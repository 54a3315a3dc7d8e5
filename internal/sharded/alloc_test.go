//go:build !race

// (The race detector makes sync.Pool drop items on purpose and adds
// allocation of shadow state, so allocs/op is meaningless under -race.)

package sharded

// Zero-allocation guards for the sharded hot paths: scalar ops digest
// into registers and the batch paths reuse pooled plans (including
// their digest buffers), so steady state must not allocate. The first
// AllocsPerRun invocation is discarded, which is when the plan pool
// and dst buffers reach steady size.

import (
	"fmt"
	"testing"

	"shbf/internal/core"
)

func requireZeroAllocs(t *testing.T, name string, runs int, fn func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(runs, fn); avg != 0 {
		t.Errorf("%s: %.2f allocs/op, want 0", name, avg)
	}
}

func allocKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("flow-%08d!", i))
	}
	return keys
}

func TestFilterHotPathsAllocFree(t *testing.T) {
	f, err := New(1<<20, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	keys := allocKeys(512)
	if err := f.AddAll(keys); err != nil {
		t.Fatal(err)
	}
	dst := make([]bool, len(keys))
	i := 0
	requireZeroAllocs(t, "Filter.Add", 100, func() { f.Add(keys[i%len(keys)]); i++ })
	requireZeroAllocs(t, "Filter.Contains", 100, func() { f.Contains(keys[i%len(keys)]); i++ })
	requireZeroAllocs(t, "Filter.AddAll", 20, func() {
		if err := f.AddAll(keys); err != nil {
			t.Fatal(err)
		}
	})
	requireZeroAllocs(t, "Filter.ContainsAll", 20, func() { dst = f.ContainsAll(dst, keys) })
}

func TestAssociationHotPathsAllocFree(t *testing.T) {
	a, err := NewAssociation(1<<20, 8, 8, core.WithCounterWidth(8))
	if err != nil {
		t.Fatal(err)
	}
	keys := allocKeys(512)
	for _, e := range keys[:256] {
		if err := a.InsertS1(e); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]core.Region, len(keys))
	i := 0
	requireZeroAllocs(t, "Association.Query", 100, func() { a.Query(keys[i%len(keys)]); i++ })
	requireZeroAllocs(t, "Association.QueryAll", 20, func() { dst = a.QueryAll(dst, keys) })
}

func TestMultiplicityHotPathsAllocFree(t *testing.T) {
	for _, k := range []int{8, 64} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) { multiplicityHotPathsAllocFree(t, k) })
	}
}

// multiplicityHotPathsAllocFree runs the guards at k bit positions per
// element; k = 64 holds the shards' update paths to their filter-owned
// position scratch whatever k is.
func multiplicityHotPathsAllocFree(t *testing.T, k int) {
	f, err := NewMultiplicity(1<<20, k, 57, 8, core.WithCounterWidth(8))
	if err != nil {
		t.Fatal(err)
	}
	keys := allocKeys(512)
	if err := f.AddAll(keys); err != nil {
		t.Fatal(err)
	}
	dst := make([]int, len(keys))
	i := 0
	requireZeroAllocs(t, "Multiplicity.Count", 100, func() { f.Count(keys[i%len(keys)]); i++ })
	requireZeroAllocs(t, "Multiplicity.CountAll", 20, func() { dst = f.CountAll(dst, keys) })
	// Insert/Delete churn on stored keys updates the backing tables in
	// place — allocation-free once every key is present.
	requireZeroAllocs(t, "Multiplicity.Insert/Delete", 100, func() {
		e := keys[i%len(keys)]
		i++
		if err := f.Insert(e); err != nil {
			t.Fatal(err)
		}
		if err := f.Delete(e); err != nil {
			t.Fatal(err)
		}
	})
	// AddAll on already-stored keys: c = 57 leaves headroom for the
	// 20+1 batch increments below.
	requireZeroAllocs(t, "Multiplicity.AddAll", 20, func() {
		if err := f.AddAll(keys); err != nil {
			t.Fatal(err)
		}
	})
}

// The windowed compositions share the classic kinds' routing and batch
// paths over their generation rings, so the same guards hold for them.

func TestWindowHotPathsAllocFree(t *testing.T) {
	w, err := NewWindow(core.Spec{Kind: core.KindWindowShardedMembership, M: 1 << 20, K: 8,
		Shards: 8, Generations: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	keys := allocKeys(512)
	if err := w.AddAll(keys); err != nil {
		t.Fatal(err)
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	dst := make([]bool, len(keys))
	i := 0
	requireZeroAllocs(t, "Window.Add", 100, func() { w.Add(keys[i%len(keys)]); i++ })
	requireZeroAllocs(t, "Window.Contains", 100, func() { w.Contains(keys[i%len(keys)]); i++ })
	requireZeroAllocs(t, "Window.AddAll", 20, func() {
		if err := w.AddAll(keys); err != nil {
			t.Fatal(err)
		}
	})
	requireZeroAllocs(t, "Window.ContainsAll", 20, func() { dst = w.ContainsAll(dst, keys) })
}

func TestWindowAssociationHotPathsAllocFree(t *testing.T) {
	a, err := NewWindowAssociation(core.Spec{Kind: core.KindWindowShardedAssociation, M: 1 << 20, K: 8,
		Shards: 8, Generations: 3, CounterWidth: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	keys := allocKeys(512)
	for _, e := range keys[:256] {
		if err := a.InsertS1(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Rotate(); err != nil {
		t.Fatal(err)
	}
	dst := make([]core.Region, len(keys))
	i := 0
	requireZeroAllocs(t, "WindowAssociation.Query", 100, func() { a.Query(keys[i%len(keys)]); i++ })
	requireZeroAllocs(t, "WindowAssociation.QueryAll", 20, func() { dst = a.QueryAll(dst, keys) })
}

func TestWindowMultiplicityHotPathsAllocFree(t *testing.T) {
	f, err := NewWindowMultiplicity(core.Spec{Kind: core.KindWindowShardedMultiplicity, M: 1 << 20, K: 8,
		C: 57, Shards: 8, Generations: 3, CounterWidth: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	keys := allocKeys(512)
	if err := f.AddAll(keys); err != nil {
		t.Fatal(err)
	}
	if err := f.Rotate(); err != nil {
		t.Fatal(err)
	}
	dst := make([]int, len(keys))
	i := 0
	requireZeroAllocs(t, "WindowMultiplicity.Count", 100, func() { f.Count(keys[i%len(keys)]); i++ })
	requireZeroAllocs(t, "WindowMultiplicity.CountAll", 20, func() { dst = f.CountAll(dst, keys) })
}
