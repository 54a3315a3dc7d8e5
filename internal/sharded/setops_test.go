package sharded

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"shbf/internal/core"
)

func TestUnionEqualsDirectBuild(t *testing.T) {
	// OR-ing replica B into replica A must be byte-identical to one
	// filter that held both key sets all along — the property cluster
	// anti-entropy stands on.
	newF := func() *Filter {
		f, err := New(1<<16, 8, 4, core.WithSeed(11))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	a, b, direct := newF(), newF(), newF()
	setA, setB := genElements(700, 21), genElements(700, 22)
	if err := a.AddAll(setA); err != nil {
		t.Fatal(err)
	}
	if err := b.AddAll(setB); err != nil {
		t.Fatal(err)
	}
	if err := direct.AddAll(setA); err != nil {
		t.Fatal(err)
	}
	if err := direct.AddAll(setB); err != nil {
		t.Fatal(err)
	}
	if err := a.Union(b); err != nil {
		t.Fatalf("Union: %v", err)
	}
	got, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("union differs from direct construction")
	}
	if a.N() != direct.N() {
		t.Fatalf("union N = %d, direct N = %d", a.N(), direct.N())
	}
	// b is the read side; it must be untouched.
	if b.N() != 700 {
		t.Fatalf("source filter mutated: N = %d", b.N())
	}
}

func TestUnionSelfIsIdentity(t *testing.T) {
	f, err := New(1<<14, 8, 2, core.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AddAll(genElements(100, 1)); err != nil {
		t.Fatal(err)
	}
	before, _ := f.MarshalBinary()
	if err := f.Union(f); err != nil {
		t.Fatalf("self-union: %v", err)
	}
	after, _ := f.MarshalBinary()
	if !bytes.Equal(before, after) {
		t.Fatal("self-union changed the filter")
	}
}

func TestUnionIncompatibleRejected(t *testing.T) {
	base, err := New(1<<14, 8, 4, core.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := base.AddAll(genElements(50, 9)); err != nil {
		t.Fatal(err)
	}
	before, _ := base.MarshalBinary()
	mk := func(bits, k, shards int, seed uint64) *Filter {
		f, err := New(bits, k, shards, core.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for name, other := range map[string]*Filter{
		"bits differ":   mk(1<<15, 8, 4, 5),
		"k differs":     mk(1<<14, 6, 4, 5),
		"shards differ": mk(1<<14, 8, 8, 5),
		"seed differs":  mk(1<<14, 8, 4, 6),
	} {
		err := base.Union(other)
		if err == nil {
			t.Fatalf("%s: incompatible union accepted", name)
		}
		if !errors.Is(err, ErrIncompatible) {
			t.Errorf("%s: error is not ErrIncompatible: %v", name, err)
		}
	}
	after, _ := base.MarshalBinary()
	if !bytes.Equal(before, after) {
		t.Fatal("rejected unions mutated the filter")
	}
}

func TestUnionConcurrentWithTraffic(t *testing.T) {
	// Union holds shard-pair locks while readers, writers and an
	// opposite-direction union run concurrently; under -race this is
	// the deadlock/data-race probe for the anti-entropy path.
	newF := func(seed int64) *Filter {
		f, err := New(1<<16, 8, 4, core.WithSeed(17))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.AddAll(genElements(500, seed)); err != nil {
			t.Fatal(err)
		}
		return f
	}
	a, b := newF(31), newF(32)
	probe := genElements(200, 33)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				switch i % 4 {
				case 0:
					if err := a.Union(b); err != nil {
						t.Errorf("a.Union(b): %v", err)
					}
				case 1:
					if err := b.Union(a); err != nil {
						t.Errorf("b.Union(a): %v", err)
					}
				case 2:
					a.ContainsAll(nil, probe)
					b.ContainsAll(nil, probe)
				case 3:
					if err := a.AddAll(probe[:10]); err != nil {
						t.Errorf("AddAll: %v", err)
					}
				}
			}
		}(i)
	}
	wg.Wait()
	// After mutual unions, both filters contain both original sets.
	for _, keys := range [][][]byte{genElements(500, 31), genElements(500, 32)} {
		res := a.ContainsAll(nil, keys)
		for i, ok := range res {
			if !ok {
				t.Fatalf("union lost key %d", i)
			}
		}
	}
}

func newTestMultiplicity(t *testing.T, opts ...core.Option) *Multiplicity {
	t.Helper()
	f, err := NewMultiplicity(1<<16, 4, 16, 4, append([]core.Option{core.WithSeed(19)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMultiplicityUnionNeverUnderestimates(t *testing.T) {
	a, b := newTestMultiplicity(t), newTestMultiplicity(t)
	keys := genElements(300, 41)
	for i, k := range keys {
		for j := 0; j < 1+i%4; j++ {
			if err := a.Insert(k); err != nil {
				t.Fatal(err)
			}
		}
		for j := 0; j < 1+(i*3)%6; j++ {
			if err := b.Insert(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := a.Union(b); err != nil {
		t.Fatalf("Union: %v", err)
	}
	for i, k := range keys {
		want := 1 + i%4
		if w2 := 1 + (i*3)%6; w2 > want {
			want = w2
		}
		if got := a.Count(k); got < want {
			t.Fatalf("key %d: merged count %d underestimates %d", i, got, want)
		}
	}
	// b is the read side; its counts must be untouched.
	for i, k := range keys[:20] {
		if got := b.Count(k); got < 1+(i*3)%6 {
			t.Fatalf("source filter mutated: key %d count %d", i, got)
		}
	}
}

func TestMultiplicityUnionIdempotentAndSelf(t *testing.T) {
	a, b := newTestMultiplicity(t), newTestMultiplicity(t)
	keys := genElements(100, 43)
	for i, k := range keys {
		for j := 0; j < 1+i%5; j++ {
			if err := b.Insert(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := a.Union(b); err != nil {
		t.Fatal(err)
	}
	first := a.CountAll(nil, keys)
	if err := a.Union(b); err != nil {
		t.Fatal(err)
	}
	if err := a.Union(a); err != nil {
		t.Fatal(err)
	}
	again := a.CountAll(nil, keys)
	for i := range keys {
		if first[i] != again[i] {
			t.Fatalf("key %d: count changed %d → %d on re-union", i, first[i], again[i])
		}
	}
	if a.N() != b.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), b.N())
	}
}

func TestMultiplicityUnionIncompatibleRejected(t *testing.T) {
	base := newTestMultiplicity(t)
	if err := base.Insert([]byte("probe")); err != nil {
		t.Fatal(err)
	}
	mk := func(bits, k, c, shards int, opts ...core.Option) *Multiplicity {
		f, err := NewMultiplicity(bits, k, c, shards, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for name, other := range map[string]*Multiplicity{
		"bits differ":   mk(1<<15, 4, 16, 4, core.WithSeed(19)),
		"k differs":     mk(1<<16, 8, 16, 4, core.WithSeed(19)),
		"c differs":     mk(1<<16, 4, 8, 4, core.WithSeed(19)),
		"shards differ": mk(1<<16, 4, 16, 8, core.WithSeed(19)),
		"seed differs":  mk(1<<16, 4, 16, 4, core.WithSeed(20)),
		"unsafe mode":   mk(1<<16, 4, 16, 4, core.WithSeed(19), core.WithUnsafeUpdates()),
	} {
		err := base.Union(other)
		if err == nil {
			t.Fatalf("%s: incompatible union accepted", name)
		}
		if !errors.Is(err, ErrIncompatible) {
			t.Errorf("%s: error is not ErrIncompatible: %v", name, err)
		}
	}
	if got := base.Count([]byte("probe")); got < 1 {
		t.Fatalf("rejected unions lost the probe key (count %d)", got)
	}
}

func TestMultiplicityUnionConcurrentWithTraffic(t *testing.T) {
	a, b := newTestMultiplicity(t), newTestMultiplicity(t)
	probe := genElements(100, 47)
	for _, k := range probe {
		if err := b.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				switch i % 4 {
				case 0:
					if err := a.Union(b); err != nil {
						t.Errorf("a.Union(b): %v", err)
					}
				case 1:
					b.CountAll(nil, probe)
				case 2:
					a.CountAll(nil, probe)
				case 3:
					for _, k := range probe[:10] {
						// Repeated inserts of the same keys legitimately
						// hit the c cap, and the union goroutine's
						// saturating adds of b's counters can fill one of
						// a's counters, which Insert refuses with
						// ErrCounterSaturated and leaves a unchanged. Only
						// other errors fail.
						if err := a.Insert(k); err != nil && !errors.Is(err, core.ErrCountOverflow) &&
							!errors.Is(err, core.ErrCounterSaturated) {
							t.Errorf("Insert: %v", err)
						}
					}
				}
			}
		}(i)
	}
	wg.Wait()
	for i, k := range probe {
		if got := a.Count(k); got < 1 {
			t.Fatalf("key %d lost after concurrent unions (count %d)", i, got)
		}
	}
}
