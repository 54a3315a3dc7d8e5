package core

import (
	"testing"

	"shbf/internal/hashing"
)

// TestMembershipViewMatchesLive checks that a view over a live
// filter's words answers exactly as the filter, through the scalar
// probe and the round kernel, and that bad geometry or words too short
// for it are refused.
func TestMembershipViewMatchesLive(t *testing.T) {
	const m, k, wbar, seed = 1 << 16, 8, 25, 31
	live, err := NewMembership(m, k, WithMaxOffset(wbar), WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range genElements(1<<12, 1) {
		live.Add(e)
	}
	v, err := NewMembershipView(m, k, wbar, seed, live.BitWords())
	if err != nil {
		t.Fatal(err)
	}
	probes := append(genElements(1<<12, 1)[:1<<11], genDisjoint(1<<11, 2)...)
	ds := make([]hashing.Digest, len(probes))
	idxs := make([]int32, len(probes))
	for i, e := range probes {
		ds[i], idxs[i] = hashing.KeyDigest(e), int32(i)
	}
	want, got := make([]bool, len(probes)), make([]bool, len(probes))
	var sc ProbeScratch
	live.ContainsGroup(want, idxs, ds, &sc)
	v.ContainsGroup(got, idxs, ds, &sc)
	for i, d := range ds {
		if got[i] != want[i] || v.ContainsDigest(d) != live.ContainsDigest(d) {
			t.Fatalf("probe %d: view group %v scalar %v, live %v", i, got[i], v.ContainsDigest(d), want[i])
		}
	}
	for name, err := range map[string]error{
		"odd k":       viewErr(m, 7, wbar, live.BitWords()),
		"wild w̄":     viewErr(m, k, 65, live.BitWords()),
		"short words": viewErr(m, k, wbar, live.BitWords()[:len(live.BitWords())-1]),
	} {
		if err == nil {
			t.Errorf("%s: view built without error", name)
		}
	}
}

func viewErr(m, k, wbar int, words []uint64) error {
	_, err := NewMembershipView(m, k, wbar, 0, words)
	return err
}
