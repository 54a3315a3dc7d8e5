package core

import (
	"errors"
	"math/rand"
	"testing"
)

func mustCountingMult(t *testing.T, m, k, c int, opts ...Option) *CountingMultiplicity {
	t.Helper()
	f, err := NewCountingMultiplicity(m, k, c, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCountingMultiplicityValidation(t *testing.T) {
	for _, tt := range []struct{ m, k, c int }{
		{0, 4, 10}, {100, 0, 10}, {100, 4, 0}, {100, 4, 65},
	} {
		if _, err := NewCountingMultiplicity(tt.m, tt.k, tt.c); err == nil {
			t.Errorf("NewCountingMultiplicity(%d,%d,%d) accepted invalid config", tt.m, tt.k, tt.c)
		}
	}
}

func TestCountingMultiplicityInsertTracksCount(t *testing.T) {
	f := mustCountingMult(t, 20000, 8, 20, WithCounterWidth(8))
	e := []byte("flow")
	for want := 1; want <= 10; want++ {
		if err := f.Insert(e); err != nil {
			t.Fatal(err)
		}
		if got := f.Count(e); got < want {
			t.Fatalf("after %d inserts: Count = %d (false negative)", want, got)
		}
		if got := f.ExactCount(e); got != want {
			t.Fatalf("after %d inserts: ExactCount = %d", want, got)
		}
	}
}

func TestCountingMultiplicityDelete(t *testing.T) {
	f := mustCountingMult(t, 20000, 8, 20, WithCounterWidth(8))
	e := []byte("flow")
	for i := 0; i < 5; i++ {
		f.Insert(e)
	}
	for want := 4; want >= 0; want-- {
		if err := f.Delete(e); err != nil {
			t.Fatal(err)
		}
		if got := f.ExactCount(e); got != want {
			t.Fatalf("ExactCount = %d, want %d", got, want)
		}
		if want > 0 && f.Count(e) < want {
			t.Fatalf("Count = %d underestimates %d", f.Count(e), want)
		}
	}
	if err := f.Delete(e); !errors.Is(err, ErrNotStored) {
		t.Fatalf("Delete(empty) = %v, want ErrNotStored", err)
	}
	// After deleting the only element the filter must be empty.
	if f.bits.OnesCount() != 0 || f.counts.NonZero() != 0 {
		t.Fatal("structure not empty after full deletion")
	}
}

func TestCountingMultiplicityOverflow(t *testing.T) {
	f := mustCountingMult(t, 5000, 4, 3, WithCounterWidth(8))
	e := []byte("x")
	for i := 0; i < 3; i++ {
		if err := f.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Insert(e); !errors.Is(err, ErrCountOverflow) {
		t.Fatalf("insert past c = %v, want ErrCountOverflow", err)
	}
	if got := f.ExactCount(e); got != 3 {
		t.Fatalf("failed insert changed count to %d", got)
	}
}

func TestCountingMultiplicityOneEncodingPerElement(t *testing.T) {
	// "One element with multiple multiplicities is always inserted into
	// the filter one time" (Section 5.3.1): k counters per element, no
	// matter how many inserts.
	f := mustCountingMult(t, 10000, 8, 30, WithCounterWidth(8))
	e := []byte("hot flow")
	for i := 0; i < 25; i++ {
		if err := f.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.counts.NonZero(); got > 8 {
		t.Fatalf("%d non-zero counters for one element, want ≤ k = 8", got)
	}
}

func TestCountingMultiplicityManyElements(t *testing.T) {
	f := mustCountingMult(t, 60000, 6, 15, WithCounterWidth(8))
	rng := rand.New(rand.NewSource(2))
	elems := genElements(1500, 3)
	truth := make([]int, len(elems))
	for i, e := range elems {
		truth[i] = rng.Intn(15) + 1
		for j := 0; j < truth[i]; j++ {
			if err := f.Insert(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, e := range elems {
		if got := f.ExactCount(e); got != truth[i] {
			t.Fatalf("element %d: ExactCount %d, want %d", i, got, truth[i])
		}
		if got := f.Count(e); got < truth[i] {
			t.Fatalf("element %d: Count %d underestimates %d (false negative)", i, got, truth[i])
		}
	}
}

func TestCountingMultiplicityInterleavedChurn(t *testing.T) {
	f := mustCountingMult(t, 40000, 6, 25, WithCounterWidth(8))
	rng := rand.New(rand.NewSource(4))
	elems := genElements(300, 5)
	ref := make([]int, len(elems))
	for op := 0; op < 5000; op++ {
		i := rng.Intn(len(elems))
		if rng.Intn(2) == 0 && ref[i] < 25 {
			if err := f.Insert(elems[i]); err != nil {
				t.Fatal(err)
			}
			ref[i]++
		} else if ref[i] > 0 {
			if err := f.Delete(elems[i]); err != nil {
				t.Fatal(err)
			}
			ref[i]--
		}
	}
	for i, e := range elems {
		if got := f.ExactCount(e); got != ref[i] {
			t.Fatalf("element %d: ExactCount %d, want %d", i, got, ref[i])
		}
		if ref[i] > 0 && f.Count(e) < ref[i] {
			t.Fatalf("element %d: false negative (%d < %d)", i, f.Count(e), ref[i])
		}
	}
}

func TestCountingMultiplicityUnsafeMode(t *testing.T) {
	// Section 5.3.1 mode: no hash table, multiplicity learned from B.
	f := mustCountingMult(t, 30000, 8, 20, WithCounterWidth(8), WithUnsafeUpdates())
	if !f.Unsafe() {
		t.Fatal("WithUnsafeUpdates not applied")
	}
	e := []byte("lonely element")
	for want := 1; want <= 10; want++ {
		if err := f.Insert(e); err != nil {
			t.Fatal(err)
		}
		// On an otherwise-empty filter B-queries are exact, so the
		// update sequence behaves like the safe mode.
		if got := f.Count(e); got != want {
			t.Fatalf("unsafe mode, empty filter: Count = %d, want %d", got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ExactCount in unsafe mode should panic")
		}
	}()
	f.ExactCount(e)
}

func TestCountingMultiplicityUnsafeModeCanFalseNegative(t *testing.T) {
	// Demonstrate the Section 5.3.1 failure mechanism: under load, a
	// false-positive multiplicity read during update decrements foreign
	// counters and can produce false negatives. We assert only that the
	// safe mode never underestimates on the same workload — and record
	// whether the unsafe mode did (it usually does at this density).
	const m, k, c = 3000, 4, 10
	run := func(unsafe bool) (falseNegatives int) {
		var opts []Option
		opts = append(opts, WithCounterWidth(8), WithSeed(42))
		if unsafe {
			opts = append(opts, WithUnsafeUpdates())
		}
		f, err := NewCountingMultiplicity(m, k, c, opts...)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(6))
		elems := genElements(800, 7)
		ref := make([]int, len(elems))
		for op := 0; op < 4000; op++ {
			i := rng.Intn(len(elems))
			if ref[i] < c {
				if err := f.Insert(elems[i]); err != nil {
					continue // saturation under pressure is fine here
				}
				ref[i]++
			}
		}
		for i, e := range elems {
			if ref[i] > 0 && f.Count(e) < ref[i] {
				falseNegatives++
			}
		}
		return falseNegatives
	}
	if fn := run(false); fn != 0 {
		t.Fatalf("safe mode produced %d false negatives", fn)
	}
	t.Logf("unsafe mode false negatives at high load: %d", run(true))
}

func BenchmarkCountingMultiplicityInsert(b *testing.B) {
	f, _ := NewCountingMultiplicity(1<<20, 8, 57, WithCounterWidth(8))
	benchInserts(b, genElements(65536, 1), f.Insert, f.Delete)
}

// TestCountingMultiplicityDeleteChecksDestinationHeadroom: a delete
// z → z−1 whose destination counters are saturated is refused with the
// filter unchanged. Applying it would share the saturated counter
// between two encodings, and deleting the other element would then
// clear a bit of this one — a false negative.
func TestCountingMultiplicityDeleteChecksDestinationHeadroom(t *testing.T) {
	// m = 1, k = 1 and 1-bit counters: multiplicity z of any element
	// lives in counter z−1.
	f, err := NewCountingMultiplicity(1, 1, 2, WithCounterWidth(1))
	if err != nil {
		t.Fatal(err)
	}
	a, b := []byte("a"), []byte("b")
	for _, e := range [][]byte{a, a, b} { // a at 2 (counter 1), b at 1 (counter 0)
		if err := f.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Delete(a); !errors.Is(err, ErrCounterSaturated) {
		t.Fatalf("delete onto a saturated counter = %v, want ErrCounterSaturated", err)
	}
	if got := f.ExactCount(a); got != 2 {
		t.Fatalf("ExactCount(a) = %d after a refused delete, want 2", got)
	}
	if err := f.Delete(b); err != nil {
		t.Fatal(err)
	}
	if got := f.Count(a); got < 2 {
		t.Fatalf("Count(a) = %d, want ≥ 2 (no underestimate)", got)
	}
}
