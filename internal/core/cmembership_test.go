package core

import (
	"errors"
	"testing"
	"testing/quick"
)

func mustCounting(t *testing.T, m, k int, opts ...Option) *CountingMembership {
	t.Helper()
	c, err := NewCountingMembership(m, k, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCountingMembershipInsertDelete(t *testing.T) {
	c := mustCounting(t, 10000, 8)
	elems := genElements(500, 1)
	for _, e := range elems {
		if err := c.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range elems {
		if !c.Contains(e) {
			t.Fatal("false negative after insert")
		}
	}
	if c.N() != 500 {
		t.Fatalf("N = %d, want 500", c.N())
	}
	// Delete half; the rest must remain.
	for _, e := range elems[:250] {
		if err := c.Delete(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range elems[250:] {
		if !c.Contains(e) {
			t.Fatal("false negative after deleting other elements")
		}
	}
	if c.N() != 250 {
		t.Fatalf("N = %d, want 250", c.N())
	}
	if !c.consistent() {
		t.Fatal("B/C synchronization invariant violated")
	}
}

func TestCountingMembershipDeleteRestoresEmpty(t *testing.T) {
	// Inserting a set then deleting it must restore an all-zero filter —
	// the defining property of counting filters.
	c := mustCounting(t, 5000, 6)
	elems := genElements(300, 2)
	for _, e := range elems {
		if err := c.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range elems {
		if err := c.Delete(e); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Filter().FillRatio(); got != 0 {
		t.Fatalf("fill ratio %.4f after deleting everything, want 0", got)
	}
	if !c.consistent() {
		t.Fatal("B/C invariant violated after full teardown")
	}
}

func TestCountingMembershipDeleteAbsent(t *testing.T) {
	c := mustCounting(t, 5000, 6)
	c.Insert([]byte("present"))
	err := c.Delete([]byte("never inserted, definitely"))
	if !errors.Is(err, ErrNotStored) {
		t.Fatalf("Delete(absent) = %v, want ErrNotStored", err)
	}
	// The failed delete must not disturb stored elements.
	if !c.Contains([]byte("present")) {
		t.Fatal("failed delete corrupted the filter")
	}
	if !c.consistent() {
		t.Fatal("B/C invariant violated by failed delete")
	}
}

func TestCountingMembershipDuplicateInserts(t *testing.T) {
	// The same element inserted r times needs r deletes.
	c := mustCounting(t, 5000, 6)
	e := []byte("dup")
	for i := 0; i < 3; i++ {
		if err := c.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if !c.Contains(e) {
			t.Fatalf("false negative after %d deletes of 3 inserts", i)
		}
		if err := c.Delete(e); err != nil {
			t.Fatal(err)
		}
	}
	if c.Contains(e) {
		t.Fatal("element survives matched deletes")
	}
	if err := c.Delete(e); !errors.Is(err, ErrNotStored) {
		t.Fatalf("over-delete = %v, want ErrNotStored", err)
	}
}

func TestCountingMembershipSaturationRollback(t *testing.T) {
	// 1-bit counters saturate at 1: a second insert of the same element
	// must fail without corrupting state.
	c := mustCounting(t, 5000, 6, WithCounterWidth(1))
	e := []byte("x")
	if err := c.Insert(e); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(e); !errors.Is(err, ErrCounterSaturated) {
		t.Fatalf("second insert = %v, want ErrCounterSaturated", err)
	}
	if !c.Contains(e) {
		t.Fatal("failed insert removed the element")
	}
	if !c.consistent() {
		t.Fatal("B/C invariant violated by rolled-back insert")
	}
	// One delete still removes it cleanly.
	if err := c.Delete(e); err != nil {
		t.Fatal(err)
	}
	if c.Filter().FillRatio() != 0 {
		t.Fatal("filter not empty after rollback + delete")
	}
}

func TestCountingMembershipRandomOpsProperty(t *testing.T) {
	// Property: under random insert/delete sequences the filter never
	// reports a false negative for elements with a positive reference
	// count, and B/C stay synchronized.
	type op struct {
		Key uint8
		Del bool
	}
	f := func(ops []op) bool {
		c, err := NewCountingMembership(2000, 4, WithCounterWidth(8))
		if err != nil {
			return false
		}
		ref := map[byte]int{}
		for _, o := range ops {
			e := []byte{o.Key}
			if o.Del {
				err := c.Delete(e)
				if ref[o.Key] > 0 {
					if err != nil {
						return false
					}
					ref[o.Key]--
				}
				// Deleting with ref 0 may or may not error (false
				// positive paths can let it through); state checked below.
			} else {
				if err := c.Insert(e); err != nil {
					return false
				}
				ref[o.Key]++
			}
		}
		for k, n := range ref {
			if n > 0 && !c.Contains([]byte{k}) {
				return false
			}
		}
		return c.consistent()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCountingMembershipOverflowTally(t *testing.T) {
	c := mustCounting(t, 100, 2, WithCounterWidth(1))
	c.Insert([]byte("a"))
	if c.CounterOverflows() != 0 {
		t.Fatal("overflow recorded for clean insert")
	}
}

func TestCountingMembershipSizeBytes(t *testing.T) {
	c := mustCounting(t, 1000, 4)
	if c.SizeBytes() <= c.Filter().SizeBytes() {
		t.Fatal("SizeBytes must include the counter array")
	}
}

func TestCountingMembershipInvalidConfig(t *testing.T) {
	if _, err := NewCountingMembership(0, 4); err == nil {
		t.Fatal("accepted m=0")
	}
	if _, err := NewCountingMembership(100, 5); err == nil {
		t.Fatal("accepted odd k")
	}
}

func BenchmarkCountingMembershipInsert(b *testing.B) {
	c, _ := NewCountingMembership(1<<20, 8, WithCounterWidth(8))
	benchInserts(b, genElements(1024, 1), c.Insert, c.Delete)
}

// benchInserts times b.N calls of insert over keys in turn. Each pass
// over keys inserts every key once; before the next pass, with the
// timer stopped, remove deletes them all, so the filter never holds
// more than len(keys) keys and no timed insert is refused or a no-op
// at any b.N.
func benchInserts(b *testing.B, keys [][]byte, insert, remove func([]byte) error) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(keys)
		if j == 0 && i > 0 {
			b.StopTimer()
			for _, e := range keys {
				if err := remove(e); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
		if err := insert(keys[j]); err != nil {
			b.Fatal(err)
		}
	}
}
