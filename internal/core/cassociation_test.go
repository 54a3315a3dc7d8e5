package core

import (
	"errors"
	"testing"
)

func mustCountingAssoc(t *testing.T, m, k int, opts ...Option) *CountingAssociation {
	t.Helper()
	a, err := NewCountingAssociation(m, k, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestCountingAssociationValidation(t *testing.T) {
	if _, err := NewCountingAssociation(0, 4); err == nil {
		t.Error("accepted m=0")
	}
	if _, err := NewCountingAssociation(100, 0); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := NewCountingAssociation(100, 4, WithMaxOffset(70)); err == nil {
		t.Error("accepted w̄=70")
	}
}

func TestCountingAssociationBasicRegions(t *testing.T) {
	a := mustCountingAssoc(t, 8000, 8, WithCounterWidth(8))
	e1, e2, e3 := []byte("only in s1"), []byte("in both s1 s2"), []byte("only in s2")

	if err := a.InsertS1(e1); err != nil {
		t.Fatal(err)
	}
	if err := a.InsertS1(e2); err != nil {
		t.Fatal(err)
	}
	if err := a.InsertS2(e2); err != nil {
		t.Fatal(err)
	}
	if err := a.InsertS2(e3); err != nil {
		t.Fatal(err)
	}

	if got := a.Query(e1); !got.Contains(RegionS1Only) {
		t.Errorf("Query(e1) = %v, truth S1−S2 missing", got)
	}
	if got := a.Query(e2); !got.Contains(RegionBoth) {
		t.Errorf("Query(e2) = %v, truth S1∩S2 missing", got)
	}
	if got := a.Query(e3); !got.Contains(RegionS2Only) {
		t.Errorf("Query(e3) = %v, truth S2−S1 missing", got)
	}
	if a.N1() != 2 || a.N2() != 2 {
		t.Fatalf("N1=%d N2=%d, want 2/2", a.N1(), a.N2())
	}
}

func TestCountingAssociationRegionMigration(t *testing.T) {
	// Insert e into S1 (region S1−S2), then into S2 (→ S1∩S2), then
	// delete from S1 (→ S2−S1), then delete from S2 (→ gone). At each
	// step the encoding must track the region.
	a := mustCountingAssoc(t, 8000, 8, WithCounterWidth(8))
	e := []byte("migrating element")

	if err := a.InsertS1(e); err != nil {
		t.Fatal(err)
	}
	if got := a.Query(e); !got.Contains(RegionS1Only) {
		t.Fatalf("after InsertS1: %v", got)
	}

	if err := a.InsertS2(e); err != nil {
		t.Fatal(err)
	}
	if got := a.Query(e); !got.Contains(RegionBoth) {
		t.Fatalf("after InsertS2: %v", got)
	}

	if err := a.DeleteS1(e); err != nil {
		t.Fatal(err)
	}
	if got := a.Query(e); !got.Contains(RegionS2Only) {
		t.Fatalf("after DeleteS1: %v", got)
	}

	if err := a.DeleteS2(e); err != nil {
		t.Fatal(err)
	}
	if got := a.Query(e); got != RegionNone {
		t.Fatalf("after full removal: %v, want RegionNone", got)
	}
	// With a single element removed the array must be all zero again.
	if a.bits.OnesCount() != 0 {
		t.Fatalf("%d bits still set after removing the only element", a.bits.OnesCount())
	}
	if a.counts.NonZero() != 0 {
		t.Fatal("counters not all zero after removing the only element")
	}
}

func TestCountingAssociationIdempotentInsert(t *testing.T) {
	a := mustCountingAssoc(t, 4000, 6, WithCounterWidth(8))
	e := []byte("x")
	a.InsertS1(e)
	before := a.bits.OnesCount()
	if err := a.InsertS1(e); err != nil { // set-semantics: no-op
		t.Fatal(err)
	}
	if a.bits.OnesCount() != before {
		t.Fatal("duplicate InsertS1 changed the encoding")
	}
	if a.N1() != 1 {
		t.Fatalf("N1 = %d, want 1", a.N1())
	}
}

func TestCountingAssociationDeleteAbsent(t *testing.T) {
	a := mustCountingAssoc(t, 4000, 6)
	if err := a.DeleteS1([]byte("ghost")); !errors.Is(err, ErrNotStored) {
		t.Fatalf("DeleteS1(absent) = %v, want ErrNotStored", err)
	}
	if err := a.DeleteS2([]byte("ghost")); !errors.Is(err, ErrNotStored) {
		t.Fatalf("DeleteS2(absent) = %v, want ErrNotStored", err)
	}
}

func TestCountingAssociationMatchesStaticBuild(t *testing.T) {
	// Dynamically building the same sets must answer queries with the
	// same no-false-negative guarantee as BuildAssociation.
	s1only, both, s2only := buildAssocSets(200, 100, 200, 9)
	a := mustCountingAssoc(t, 8000, 8, WithCounterWidth(8), WithSeed(3))

	for _, e := range s1only {
		if err := a.InsertS1(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range both {
		if err := a.InsertS1(e); err != nil {
			t.Fatal(err)
		}
		if err := a.InsertS2(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range s2only {
		if err := a.InsertS2(e); err != nil {
			t.Fatal(err)
		}
	}

	for _, e := range s1only {
		if !a.Query(e).Contains(RegionS1Only) {
			t.Fatal("S1−S2 truth missing from candidates")
		}
	}
	for _, e := range both {
		if !a.Query(e).Contains(RegionBoth) {
			t.Fatal("S1∩S2 truth missing from candidates")
		}
	}
	for _, e := range s2only {
		if !a.Query(e).Contains(RegionS2Only) {
			t.Fatal("S2−S1 truth missing from candidates")
		}
	}
}

func TestCountingAssociationChurn(t *testing.T) {
	// Insert/delete churn across regions must keep B and C consistent:
	// after removing everything the structure is empty.
	a := mustCountingAssoc(t, 6000, 6, WithCounterWidth(8))
	elems := genElements(200, 10)
	for i, e := range elems {
		switch i % 3 {
		case 0:
			a.InsertS1(e)
		case 1:
			a.InsertS2(e)
		default:
			a.InsertS1(e)
			a.InsertS2(e)
		}
	}
	for i, e := range elems {
		switch i % 3 {
		case 0:
			if err := a.DeleteS1(e); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := a.DeleteS2(e); err != nil {
				t.Fatal(err)
			}
		default:
			if err := a.DeleteS1(e); err != nil {
				t.Fatal(err)
			}
			if err := a.DeleteS2(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	if a.bits.OnesCount() != 0 || a.counts.NonZero() != 0 {
		t.Fatalf("structure not empty after churn: %d bits, %d counters",
			a.bits.OnesCount(), a.counts.NonZero())
	}
	if a.N1() != 0 || a.N2() != 0 {
		t.Fatalf("set sizes not zero: N1=%d N2=%d", a.N1(), a.N2())
	}
}

func BenchmarkCountingAssociationInsertS1(b *testing.B) {
	a, _ := NewCountingAssociation(1<<20, 8, WithCounterWidth(8))
	benchInserts(b, genElements(65536, 1), a.InsertS1, a.DeleteS1)
}

// TestCountingAssociationSaturationLeavesFilterUnchanged: an insert
// refused for a saturated counter changes neither the sets nor the
// encoding, so the refused element can be neither deleted nor counted.
func TestCountingAssociationSaturationLeavesFilterUnchanged(t *testing.T) {
	// m = 1, k = 1 and 1-bit counters: every S1−S2 encoding shares
	// one counter, which the first insert saturates.
	a, err := NewCountingAssociation(1, 1, WithCounterWidth(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.InsertS1([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := a.InsertS1([]byte("b")); !errors.Is(err, ErrCounterSaturated) {
		t.Fatalf("insert onto a saturated counter = %v, want ErrCounterSaturated", err)
	}
	if a.N1() != 1 {
		t.Fatalf("N1 = %d after a refused insert, want 1", a.N1())
	}
	if err := a.DeleteS1([]byte("b")); !errors.Is(err, ErrNotStored) {
		t.Fatalf("delete of the refused element = %v, want ErrNotStored", err)
	}
	if r := a.Query([]byte("a")); !r.Contains(RegionS1Only) {
		t.Fatalf("stored element answered %v", r)
	}
}
