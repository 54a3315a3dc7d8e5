//go:build perfgate

package shbf_test

// gate_test.go holds the frozen container's timing gates. A wall-clock
// ratio is a property of the host as much as of the code, so they run
// only with -tags perfgate, in CI's bench job:
//
//	go test -tags perfgate -run '^TestGate' -count=1 -v ./...
//
// Each gate times its sides call by call and gates on the median of
// the per-round values (medianRatio): adjacent calls see the same
// frequency, steal and co-tenants, and the median ignores the rounds a
// preemption lands in.

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"shbf"
	"shbf/internal/flowkeys"
)

// medianRatio runs the given number of rounds. Each round calls every
// side once and times each call; which side goes first rotates by one
// each round (AB, BA, ... for two sides), so no side always runs in
// another's wake. ratio maps one round's call times in nanoseconds, in
// side order, to the gated value, and medianRatio returns the median
// of those values.
func medianRatio(t *testing.T, rounds int, ratio func(ns []float64) float64, sides ...func() error) float64 {
	t.Helper()
	ns := make([]float64, len(sides))
	vals := make([]float64, rounds)
	for r := range vals {
		for i := range sides {
			s := (r + i) % len(sides)
			start := time.Now()
			if err := sides[s](); err != nil {
				t.Fatal(err)
			}
			ns[s] = float64(time.Since(start))
		}
		vals[r] = ratio(ns)
	}
	sort.Float64s(vals)
	return vals[rounds/2]
}

// frozenGateBatch is the ContainsAll batch size the frozen gates probe.
const frozenGateBatch = 4096

// frozenGateFilter builds the serving shape: a 16-shard 12 Mibit k=8
// membership filter holding 64Ki 13-byte flow IDs, its ShBZ container,
// and 64Ki probes that alternate member and non-member. The container
// must answer every probe exactly as its live source before any timing
// is worth taking.
func frozenGateFilter(t *testing.T) (live shbf.Set, blob []byte, fz *shbf.Frozen, probes [][]byte) {
	t.Helper()
	const nMembers = 1 << 16
	f, err := shbf.New(shbf.Spec{Kind: shbf.KindShardedMembership, M: 12 << 20, K: 8, Shards: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	live = f.(shbf.Set)
	pool := flowkeys.Keys(2 * nMembers)
	members := pool[:nMembers]
	if err := live.AddAll(members); err != nil {
		t.Fatal(err)
	}
	probes = append([][]byte{}, pool[nMembers:]...)
	for i := 0; i < len(probes); i += 2 {
		probes[i] = members[i]
	}
	if blob, err = shbf.Freeze(f); err != nil {
		t.Fatal(err)
	}
	if fz, err = shbf.OpenFrozen(blob); err != nil {
		t.Fatal(err)
	}
	liveAns, frozenAns := live.ContainsAll(nil, probes), fz.ContainsAll(nil, probes)
	for i := range probes {
		if liveAns[i] != frozenAns[i] {
			t.Fatalf("frozen container diverges from its live filter on probe %d", i)
		}
	}
	return live, blob, fz, probes
}

// TestGateFrozenVsLive: frozen ContainsAll keeps ≥ 0.8× the live
// filter's keys/s at 4096-key batches. Live and frozen alternate only
// with each other: a neighbour that evicts both arrays (an envelope
// decode allocates 3.4 MB) turns this into a cold-cache comparison.
func TestGateFrozenVsLive(t *testing.T) {
	live, _, fz, probes := frozenGateFilter(t)
	query := probes[:frozenGateBatch]
	liveDst := make([]bool, 0, frozenGateBatch)
	frozenDst := make([]bool, 0, frozenGateBatch)
	got := medianRatio(t, 2000, func(ns []float64) float64 { return ns[0] / ns[1] },
		func() error { liveDst = live.ContainsAll(liveDst[:0], query); return nil },
		func() error { frozenDst = fz.ContainsAll(frozenDst[:0], query); return nil })
	t.Logf("frozen ÷ live ContainsAll@%d keys/s: %.3f× (cpus=%d)", frozenGateBatch, got, runtime.NumCPU())
	if got < 0.8 {
		t.Errorf("frozen ContainsAll is %.3f× live keys/s, below the 0.8× gate", got)
	}
}

// TestGateFrozenVsLiveCold: with both arrays cold, frozen ContainsAll
// keeps ≥ 0.9× the live filter's keys/s at 4096-key batches. Each round
// runs four sides in rotation: an envelope decode, which allocates
// 3.4 MB and so evicts both arrays, the live and the frozen
// ContainsAll, and an OpenFrozen. This is how a storage engine probes
// the filters of many runs and levels, one cold filter after another.
func TestGateFrozenVsLiveCold(t *testing.T) {
	live, blob, fz, probes := frozenGateFilter(t)
	env, err := shbf.AppendDump(nil, live.(shbf.Filter))
	if err != nil {
		t.Fatal(err)
	}
	query := probes[:frozenGateBatch]
	liveDst := make([]bool, 0, frozenGateBatch)
	frozenDst := make([]bool, 0, frozenGateBatch)
	got := medianRatio(t, 300, func(ns []float64) float64 { return ns[1] / ns[2] },
		func() error { _, _, err := shbf.Decode(env); return err },
		func() error { liveDst = live.ContainsAll(liveDst[:0], query); return nil },
		func() error { frozenDst = fz.ContainsAll(frozenDst[:0], query); return nil },
		func() error { _, err := shbf.OpenFrozen(blob); return err })
	t.Logf("cold frozen ÷ live ContainsAll@%d keys/s: %.3f× (cpus=%d)", frozenGateBatch, got, runtime.NumCPU())
	if got < 0.9 {
		t.Errorf("cold frozen ContainsAll is %.3f× live keys/s, below the 0.9× gate", got)
	}
}

// TestGateFrozenOpen: opening the container beats decoding the same
// filter from its envelope by ≥ 100×; the envelope materializes every
// word, the container parses a header.
func TestGateFrozenOpen(t *testing.T) {
	live, blob, _, _ := frozenGateFilter(t)
	env, err := shbf.AppendDump(nil, live.(shbf.Filter))
	if err != nil {
		t.Fatal(err)
	}
	got := medianRatio(t, 300, func(ns []float64) float64 { return ns[0] / ns[1] },
		func() error { _, _, err := shbf.Decode(env); return err },
		func() error { _, err := shbf.OpenFrozen(blob); return err })
	t.Logf("envelope Decode ÷ OpenFrozen time: %.0f× (cpus=%d)", got, runtime.NumCPU())
	if got < 100 {
		t.Errorf("OpenFrozen is %.0f× the envelope decode, below the 100× gate", got)
	}
}

// TestGateFrozenStackOpen: opening a 10,000-filter ShBK stack and
// reaching every filter in it amortizes to ≤ 10 µs per filter (the LSM
// shape: one mapped file of per-SSTable filters).
func TestGateFrozenStackOpen(t *testing.T) {
	const filters = 10_000
	members := flowkeys.Keys(1 << 16)
	var sb shbf.FrozenStackBuilder
	for i := 0; i < filters; i++ {
		f, err := shbf.New(shbf.Spec{Kind: shbf.KindMembership, M: 1 << 12, K: 8, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		lo := (i * 64) % (len(members) - 64)
		if err := f.(shbf.Adder).AddAll(members[lo : lo+64]); err != nil {
			t.Fatal(err)
		}
		if err := sb.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	stack := sb.Finish()
	got := medianRatio(t, 100, func(ns []float64) float64 { return ns[0] / filters / 1e3 },
		func() error {
			st, err := shbf.OpenFrozenStack(stack)
			if err != nil {
				return err
			}
			for j := 0; j < st.Len(); j++ {
				if _, err := st.At(j); err != nil {
					return err
				}
			}
			return nil
		})
	t.Logf("stack open + At, amortized: %.3f µs/filter over %d filters (cpus=%d)", got, filters, runtime.NumCPU())
	if got > 10 {
		t.Errorf("stack open amortizes to %.3f µs/filter, above the 10 µs gate", got)
	}
}
