//go:build !race

// (The race detector makes sync.Pool drop items on purpose and adds
// allocation of shadow state, so allocs/op is meaningless under -race.)

package core

// Zero-allocation guards for the hot paths. The one-pass digest
// pipeline keeps every per-query quantity (Digest, mixed values,
// positions) in registers or filter-owned scratch, so scalar
// Add/Contains/Count/Query and the batch forms must not allocate in
// steady state. testing.AllocsPerRun discards its first (warm-up)
// invocation, which is when lazily grown scratch (CountingMembership's
// position buffer, Membership's batch digest buffer) reaches its
// steady size.
//
// Update paths that store keys in a backing hash table (counting
// association/multiplicity inserts of NEW keys) allocate only when the
// table grows: a node chunk, an arena chunk or a doubled bucket array.
// Steady-state churn — keys deleted and new ones inserted — reuses
// freed nodes and must be allocation-free.

import (
	"fmt"
	"runtime"
	"testing"
)

// requireZeroAllocs runs fn and fails if any run allocated.
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

func TestMembershipHotPathsAllocFree(t *testing.T) {
	f, err := NewMembership(1<<18, 8)
	if err != nil {
		t.Fatal(err)
	}
	keys := allocKeys(256)
	for _, e := range keys {
		f.Add(e)
	}
	dst := make([]bool, len(keys))
	i := 0
	requireZeroAllocs(t, "Membership.Add", 100, func() { f.Add(keys[i%len(keys)]); i++ })
	requireZeroAllocs(t, "Membership.Contains", 100, func() { f.Contains(keys[i%len(keys)]); i++ })
	requireZeroAllocs(t, "Membership.AddAll", 20, func() {
		if err := f.AddAll(keys); err != nil {
			t.Fatal(err)
		}
	})
	requireZeroAllocs(t, "Membership.ContainsAll", 20, func() { dst = f.ContainsAll(dst, keys) })
}

func TestTShiftHotPathsAllocFree(t *testing.T) {
	f, err := NewTShift(1<<18, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	keys := allocKeys(256)
	for _, e := range keys {
		f.Add(e)
	}
	i := 0
	requireZeroAllocs(t, "TShift.Add", 100, func() { f.Add(keys[i%len(keys)]); i++ })
	requireZeroAllocs(t, "TShift.Contains", 100, func() { f.Contains(keys[i%len(keys)]); i++ })
}

func TestCountingMembershipHotPathsAllocFree(t *testing.T) {
	c, err := NewCountingMembership(1<<18, 8, WithCounterWidth(8))
	if err != nil {
		t.Fatal(err)
	}
	keys := allocKeys(64)
	for _, e := range keys {
		if err := c.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	requireZeroAllocs(t, "CountingMembership.Contains", 100, func() { c.Contains(keys[i%len(keys)]); i++ })
	// Insert+Delete pairs keep counters bounded across the runs.
	requireZeroAllocs(t, "CountingMembership.Insert/Delete", 100, func() {
		e := keys[i%len(keys)]
		i++
		if err := c.Insert(e); err != nil {
			t.Fatal(err)
		}
		if err := c.Delete(e); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAssociationHotPathsAllocFree(t *testing.T) {
	keys := allocKeys(512)
	a, err := BuildAssociation(keys[:256], keys[128:384], 1<<16, 8)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]Region, len(keys))
	i := 0
	requireZeroAllocs(t, "Association.Query", 100, func() { a.Query(keys[i%len(keys)]); i++ })
	requireZeroAllocs(t, "Association.QueryAll", 20, func() { dst = a.QueryAll(dst, keys) })

	// k = 64 holds the update paths to their filter-owned position
	// scratch whatever k is.
	for _, k := range []int{8, 64} {
		ca, err := NewCountingAssociation(1<<16, k, WithCounterWidth(8))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range keys[:256] {
			if err := ca.InsertS1(e); err != nil {
				t.Fatal(err)
			}
		}
		name := fmt.Sprintf("CountingAssociation(k=%d)", k)
		requireZeroAllocs(t, name+".Query", 100, func() { ca.Query(keys[i%len(keys)]); i++ })
		// Churn: stored keys move S1−S2 → S1∩S2 → S1−S2, and keys never
		// stored are inserted and deleted again, reusing the freed node.
		requireZeroAllocs(t, name+".Insert/Delete", 100, func() {
			stored, fresh := keys[i%256], keys[256+i%256]
			i++
			for _, err := range []error{
				ca.InsertS2(stored), ca.DeleteS2(stored),
				ca.InsertS2(fresh), ca.InsertS1(fresh), ca.DeleteS2(fresh), ca.DeleteS1(fresh),
			} {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestMultiAssociationQueryAllocFree(t *testing.T) {
	keys := allocKeys(300)
	a, err := BuildMultiAssociation([][][]byte{keys[:100], keys[80:200], keys[180:300]}, 1<<16, 6)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	requireZeroAllocs(t, "MultiAssociation.Query", 100, func() { a.Query(keys[i%len(keys)]); i++ })
}

func TestMultiplicityHotPathsAllocFree(t *testing.T) {
	f, err := NewMultiplicity(1<<18, 8, 57)
	if err != nil {
		t.Fatal(err)
	}
	keys := allocKeys(256)
	for j, e := range keys {
		if err := f.AddWithCount(e, j%57+1); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]int, len(keys))
	i := 0
	requireZeroAllocs(t, "Multiplicity.AddWithCount", 100, func() {
		if err := f.AddWithCount(keys[i%len(keys)], 3); err != nil {
			t.Fatal(err)
		}
		i++
	})
	requireZeroAllocs(t, "Multiplicity.Count", 100, func() { f.Count(keys[i%len(keys)]); i++ })
	requireZeroAllocs(t, "Multiplicity.CountAll", 20, func() { dst = f.CountAll(dst, keys) })
}

func TestCountingMultiplicityHotPathsAllocFree(t *testing.T) {
	keys := allocKeys(128)
	i := 0
	// k = 64 as for CountingAssociation.
	for _, k := range []int{8, 64} {
		f, err := NewCountingMultiplicity(1<<18, k, 57, WithCounterWidth(8))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range keys {
			if err := f.Insert(e); err != nil {
				t.Fatal(err)
			}
		}
		name := fmt.Sprintf("CountingMultiplicity(k=%d)", k)
		requireZeroAllocs(t, name+".Count", 100, func() { f.Count(keys[i%len(keys)]); i++ })
		// Insert/Delete on already-stored keys: the backing table updates
		// in place, so steady-state churn is allocation-free too.
		requireZeroAllocs(t, name+".Insert/Delete", 100, func() {
			e := keys[i%len(keys)]
			i++
			if err := f.Insert(e); err != nil {
				t.Fatal(err)
			}
			if err := f.Delete(e); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCountingTablesAddFewHeapObjects pins that the exact side tables
// of CShBF_X and CShBF_A hold their keys in a few large pointer-free
// chunks: 100k distinct keys add fewer than 1,000 heap objects (a
// table of per-key heap entries adds two per key), so the garbage
// collector has next to nothing to mark however many keys are stored.
func TestCountingTablesAddFewHeapObjects(t *testing.T) {
	const n, limit = 100_000, 1000
	keys := allocKeys(n)
	heapObjects := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapObjects
	}

	cm, err := NewCountingMultiplicity(24*n, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	before := heapObjects()
	for _, e := range keys {
		if err := cm.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	if added := int64(heapObjects()) - int64(before); added >= limit {
		t.Errorf("CountingMultiplicity: %d distinct keys added %d heap objects, want < %d", n, added, limit)
	}
	runtime.KeepAlive(cm)

	ca, err := NewCountingAssociation(24*n, 8)
	if err != nil {
		t.Fatal(err)
	}
	before = heapObjects()
	for j, e := range keys {
		if err := ca.InsertS1(e); err != nil {
			t.Fatal(err)
		}
		if j%2 == 0 {
			if err := ca.InsertS2(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	if added := int64(heapObjects()) - int64(before); added >= limit {
		t.Errorf("CountingAssociation: %d distinct keys added %d heap objects, want < %d", n, added, limit)
	}
	runtime.KeepAlive(ca)
	runtime.KeepAlive(keys)
}

func TestSCMSketchHotPathsAllocFree(t *testing.T) {
	s, err := NewSCMSketch(8, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	keys := allocKeys(256)
	i := 0
	requireZeroAllocs(t, "SCMSketch.Insert", 100, func() { s.Insert(keys[i%len(keys)]); i++ })
	requireZeroAllocs(t, "SCMSketch.Count", 100, func() { s.Count(keys[i%len(keys)]); i++ })
}
