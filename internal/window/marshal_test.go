package window

import (
	"testing"
	"time"

	"shbf/internal/core"
)

// TestMarshalRoundTripMembership: the ShBW container restores ring
// contents, head position, epoch and tick bit-for-bit.
func TestMarshalRoundTripMembership(t *testing.T) {
	spec := memSpec(3)
	spec.Tick = 5 * time.Second
	w, err := NewMembership(spec)
	if err != nil {
		t.Fatal(err)
	}
	old := keysOf("old", 150)
	live := keysOf("live", 150)
	w.AddAll(old)
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	w.AddAll(live)

	blob, err := w.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Membership
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if back.Spec() != w.Spec() {
		t.Fatalf("spec changed across round trip: %+v vs %+v", back.Spec(), w.Spec())
	}
	if back.Epoch() != 1 {
		t.Fatalf("epoch %d, want 1", back.Epoch())
	}
	for _, e := range append(old, live...) {
		if !back.Contains(e) {
			t.Fatalf("key %q lost across round trip", e)
		}
	}
	// The restored head must be the same ring position: rotating
	// G−1 more times must expire old before live.
	for i := 0; i < 2; i++ {
		if err := back.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	if back.Contains(old[0]) && !back.Contains(live[0]) {
		t.Fatal("restored ring rotated out the wrong generation — head position lost")
	}
	if !back.Contains(live[0]) {
		t.Fatal("live generation expired too early in the restored ring")
	}
	// Re-marshal equality: same state, same bytes.
	blob2, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := w.MarshalBinary()
	if string(b1) != string(blob) {
		t.Fatal("marshal is not deterministic")
	}
	_ = blob2
}

// TestMarshalRoundTripMultiplicity: counts and rotation state survive,
// and the restored window still rotates (its recycle closure rebuilds
// generations).
func TestMarshalRoundTripMultiplicity(t *testing.T) {
	w, err := NewMultiplicity(multSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("counted")
	for i := 0; i < 5; i++ {
		if err := w.Insert(key); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := w.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Multiplicity
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if got := back.Count(key); got < 5 {
		t.Fatalf("restored count %d underestimates 5", got)
	}
	if back.Spec() != w.Spec() {
		t.Fatalf("spec changed: %+v vs %+v", back.Spec(), w.Spec())
	}
	for i := 0; i < 2; i++ {
		if err := back.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	if got := back.Count(key); got != 0 {
		t.Fatalf("count %d after full expiry of the restored ring", got)
	}
}

// TestMarshalRoundTripAssociation.
func TestMarshalRoundTripAssociation(t *testing.T) {
	w, err := NewAssociation(assocSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("assoc-key")
	if err := w.InsertS1(key); err != nil {
		t.Fatal(err)
	}
	blob, err := w.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Association
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if got, want := back.Query(key), w.Query(key); got != want {
		t.Fatalf("restored answer %s, want %s", got, want)
	}
	if back.Spec() != w.Spec() {
		t.Fatalf("spec changed: %+v vs %+v", back.Spec(), w.Spec())
	}
	// The restored ring still rotates (its recycle rule rebuilds
	// generations), and after G rotations the key has expired.
	for i := 0; i < back.Generations(); i++ {
		if err := back.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	if got := back.Query(key); got != core.RegionNone {
		t.Fatalf("restored ring answers %s after full expiry, want none", got)
	}
	if back.Spec() != w.Spec() {
		t.Fatalf("spec changed by rotation: %+v vs %+v", back.Spec(), w.Spec())
	}
}

// TestUnmarshalRejectsCorruptContainers.
func TestUnmarshalRejectsCorruptContainers(t *testing.T) {
	w, err := NewMembership(memSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := w.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var m Membership
	cases := map[string][]byte{
		"empty":        nil,
		"bad magic":    append([]byte("XXXX"), blob[4:]...),
		"bad version":  append(append([]byte(nil), blob[:4]...), append([]byte{99}, blob[5:]...)...),
		"wrong kind":   func() []byte { b := append([]byte(nil), blob...); b[5] ^= 0x7f; return b }(),
		"truncated":    blob[:len(blob)-3],
		"trailing":     append(append([]byte(nil), blob...), 0xff),
		"cross-decode": func() []byte { a, _ := mustAssoc(t).MarshalBinary(); return a }(),
	}
	for name, data := range cases {
		if err := m.UnmarshalBinary(data); err == nil {
			t.Errorf("%s container accepted", name)
		}
	}
}

func mustAssoc(t *testing.T) *Association {
	t.Helper()
	a, err := NewAssociation(assocSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	return a
}
