package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"shbf/internal/memmodel"
)

func mustMultiplicity(t *testing.T, m, k, c int, opts ...Option) *Multiplicity {
	t.Helper()
	f, err := NewMultiplicity(m, k, c, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewMultiplicityValidation(t *testing.T) {
	tests := []struct{ m, k, c int }{
		{0, 4, 10}, {100, 0, 10}, {100, 4, 0}, {100, 4, 65},
	}
	for _, tt := range tests {
		if _, err := NewMultiplicity(tt.m, tt.k, tt.c); err == nil {
			t.Errorf("NewMultiplicity(%d,%d,%d) accepted invalid config", tt.m, tt.k, tt.c)
		}
	}
	if _, err := NewMultiplicity(100, 4, 64); err != nil {
		t.Errorf("c=64 rejected: %v", err)
	}
}

func TestMultiplicityAddWithCountRange(t *testing.T) {
	f := mustMultiplicity(t, 1000, 4, 10)
	if err := f.AddWithCount([]byte("a"), 0); !errors.Is(err, ErrCountOverflow) {
		t.Errorf("count 0 accepted: %v", err)
	}
	if err := f.AddWithCount([]byte("a"), 11); !errors.Is(err, ErrCountOverflow) {
		t.Errorf("count 11 accepted: %v", err)
	}
	if err := f.AddWithCount([]byte("a"), 10); err != nil {
		t.Errorf("count 10 rejected: %v", err)
	}
}

func TestMultiplicityReportNeverBelowTruth(t *testing.T) {
	// Section 5.2: "the largest candidate of c(e) is always greater than
	// or equal to the actual value" — no false negatives.
	const c = 57
	f := mustMultiplicity(t, 40000, 8, c)
	rng := rand.New(rand.NewSource(1))
	elems := genElements(2000, 2)
	truth := make([]int, len(elems))
	for i, e := range elems {
		truth[i] = rng.Intn(c) + 1
		if err := f.AddWithCount(e, truth[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i, e := range elems {
		if got := f.Count(e); got < truth[i] {
			t.Fatalf("element %d: reported %d < truth %d", i, got, truth[i])
		}
	}
	if f.N() != 2000 {
		t.Fatalf("N = %d, want 2000", f.N())
	}
}

func TestMultiplicityTruthAlwaysCandidate(t *testing.T) {
	const c = 20
	f := mustMultiplicity(t, 20000, 6, c)
	rng := rand.New(rand.NewSource(3))
	elems := genElements(1000, 4)
	truth := make([]int, len(elems))
	for i, e := range elems {
		truth[i] = rng.Intn(c) + 1
		f.AddWithCount(e, truth[i])
	}
	var cands []int
	for i, e := range elems {
		cands = f.Candidates(e, cands)
		found := false
		for _, j := range cands {
			if j == truth[i] {
				found = true
			}
		}
		if !found {
			t.Fatalf("element %d: truth %d not among candidates %v", i, truth[i], cands)
		}
		// Candidates must be sorted ascending.
		for j := 1; j < len(cands); j++ {
			if cands[j] <= cands[j-1] {
				t.Fatalf("candidates not strictly increasing: %v", cands)
			}
		}
	}
}

func TestMultiplicityAbsentElement(t *testing.T) {
	f := mustMultiplicity(t, 50000, 8, 57)
	for _, e := range genElements(100, 5) {
		f.AddWithCount(e, 3)
	}
	misses := 0
	for _, e := range genDisjoint(1000, 6) {
		if f.Count(e) == 0 {
			misses++
		}
	}
	// With a nearly-empty filter, essentially all absent elements report 0.
	if misses < 990 {
		t.Fatalf("only %d/1000 absent elements reported 0", misses)
	}
}

func TestMultiplicityCorrectnessRateMatchesTheory(t *testing.T) {
	// Equation (28): for a member with multiplicity j, the correctness
	// rate is (1−f0)^{j−1} where f0 = (1−e^{−kn/m})^k (Equation 26).
	// Use the paper's Figure 11 sizing: memory = 1.5·nk/ln2.
	const (
		k = 8
		n = 20000
		c = 57
	)
	nf := float64(n)
	m := int(1.5 * nf * k / math.Ln2)
	f := mustMultiplicity(t, m, k, c, WithSeed(11))
	rng := rand.New(rand.NewSource(7))
	elems := genElements(n, 8)
	truth := make([]int, len(elems))
	for i, e := range elems {
		truth[i] = rng.Intn(c) + 1
		f.AddWithCount(e, truth[i])
	}
	correct, totalWeight := 0.0, 0.0
	f0 := math.Pow(1-math.Exp(-float64(k)*n/float64(m)), k)
	expected := 0.0
	for i, e := range elems {
		if f.Count(e) == truth[i] {
			correct++
		}
		expected += math.Pow(1-f0, float64(truth[i]-1))
		totalWeight++
	}
	got := correct / totalWeight
	want := expected / totalWeight
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("correctness rate %.4f vs theory %.4f", got, want)
	}
}

func TestMultiplicityAccessCounting(t *testing.T) {
	// c = 57 windows cost one access each; a full query is ≤ k accesses
	// with early exit.
	var acc memmodel.Counter
	const k = 8
	f := mustMultiplicity(t, 10000, k, 57, WithAccessCounter(&acc))
	e := []byte("elem")
	f.AddWithCount(e, 5)
	acc.Reset()
	if got := f.Count(e); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if acc.Reads() != k {
		t.Fatalf("member query cost %d accesses, want %d", acc.Reads(), k)
	}
	if got := f.AccessesPerQuery(); got != k {
		t.Fatalf("AccessesPerQuery = %d, want %d", got, k)
	}

	// Absent element on a sparse filter: early exit after ~1 window.
	acc.Reset()
	f.Count([]byte("absent"))
	if acc.Reads() > 2 {
		t.Fatalf("absent query cost %d accesses, expected early exit", acc.Reads())
	}

	// c = 64: a window that starts past its byte's first bit costs two
	// accesses, and no query may bill more than AccessesPerQuery.
	const wide = 64
	f = mustMultiplicity(t, 1<<14, k, wide, WithAccessCounter(&acc))
	if got, want := f.AccessesPerQuery(), 2*k; got != want {
		t.Fatalf("AccessesPerQuery = %d at c = %d, want %d", got, wide, want)
	}
	elems := genElements(1200, 64)
	for i, e := range elems[:600] {
		if err := f.AddWithCount(e, i%wide+1); err != nil {
			t.Fatal(err)
		}
	}
	for i, e := range elems {
		acc.Reset()
		f.Count(e)
		if acc.Reads() > uint64(f.AccessesPerQuery()) {
			t.Fatalf("query %d at c = %d billed %d reads, more than AccessesPerQuery = %d", i, wide, acc.Reads(), f.AccessesPerQuery())
		}
	}
}

func TestMultiplicityKBitsPerElement(t *testing.T) {
	// Exactly k bits encode an element regardless of count (Section 5.4).
	f := mustMultiplicity(t, 10000, 8, 57)
	f.AddWithCount([]byte("high count"), 57)
	if got := f.bits.OnesCount(); got > 8 {
		t.Fatalf("%d bits set for one element, want ≤ 8", got)
	}
}

func TestMultiplicityCandidatesProperty(t *testing.T) {
	// Property: Count equals max(Candidates) and 0 iff no candidates.
	f := mustMultiplicity(t, 5000, 4, 16)
	rng := rand.New(rand.NewSource(13))
	for _, e := range genElements(800, 14) {
		f.AddWithCount(e, rng.Intn(16)+1)
	}
	prop := func(raw []byte) bool {
		var cands []int
		cands = f.Candidates(raw, cands)
		count := f.Count(raw)
		if len(cands) == 0 {
			return count == 0
		}
		return count == cands[len(cands)-1]
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMultiplicityReset(t *testing.T) {
	f := mustMultiplicity(t, 1000, 4, 8)
	f.AddWithCount([]byte("x"), 3)
	f.Reset()
	if f.N() != 0 || f.FillRatio() != 0 || f.Count([]byte("x")) != 0 {
		t.Fatal("Reset did not clear filter")
	}
}

func TestMultiplicityAccessors(t *testing.T) {
	f := mustMultiplicity(t, 1234, 6, 30)
	if f.M() != 1234 || f.K() != 6 || f.C() != 30 {
		t.Fatalf("accessors: M=%d K=%d C=%d", f.M(), f.K(), f.C())
	}
	if f.SizeBytes() != (1234+29+63)/64*8 {
		t.Fatalf("SizeBytes = %d", f.SizeBytes())
	}
}

func BenchmarkMultiplicityCount(b *testing.B) {
	f, _ := NewMultiplicity(1<<20, 8, 57)
	rng := rand.New(rand.NewSource(1))
	elems := genElements(4096, 1)
	for _, e := range elems {
		f.AddWithCount(e, rng.Intn(57)+1)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Count(elems[i&4095])
	}
}
