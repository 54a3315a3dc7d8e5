package bitvec

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"shbf/internal/memmodel"
)

func TestSetBitClear(t *testing.T) {
	v := New(200)
	if v.Peek(63) || v.Peek(64) {
		t.Fatal("fresh vector has set bits")
	}
	v.Set(63)
	v.Set(64)
	v.Set(199)
	for _, i := range []int{63, 64, 199} {
		if !v.Peek(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if got := v.OnesCount(); got != 3 {
		t.Fatalf("OnesCount = %d, want 3", got)
	}
	v.Clear(64)
	if v.Peek(64) {
		t.Error("bit 64 still set after Clear")
	}
	if got := v.OnesCount(); got != 2 {
		t.Fatalf("OnesCount = %d, want 2", got)
	}
}

// TestUncountedSetClearMatchCharged: SetUncounted and ClearUncounted
// leave the vector as Set and Clear do, and charge nothing.
func TestUncountedSetClearMatchCharged(t *testing.T) {
	var billed, unbilled memmodel.Counter
	charged, uncounted := New(300), New(300)
	charged.SetCounter(&billed)
	uncounted.SetCounter(&unbilled)
	rng := rand.New(rand.NewSource(3))
	for range 2000 {
		i := rng.Intn(300)
		if rng.Intn(2) == 0 {
			charged.Set(i)
			uncounted.SetUncounted(i)
		} else {
			charged.Clear(i)
			uncounted.ClearUncounted(i)
		}
		if !charged.Equal(uncounted) {
			t.Fatalf("vectors differ after a step on bit %d", i)
		}
	}
	if billed.Writes() != 2000 || unbilled.Total() != 0 {
		t.Fatalf("charged vector billed %v, uncounted one %v", &billed, &unbilled)
	}
}

func TestBoundsPanics(t *testing.T) {
	v := New(100)
	for name, f := range map[string]func(){
		"Set(-1)":   func() { v.Set(-1) },
		"Set(100)":  func() { v.Set(100) },
		"Bit(100)":  func() { v.Bit(100) },
		"Clear(-1)": func() { v.Clear(-1) },
		"New(0)":    func() { New(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestWindowCrossesWordBoundary(t *testing.T) {
	v := New(256)
	v.Set(60)
	v.Set(63)
	v.Set(64)
	v.Set(70)
	win := v.WindowUncounted(60, 1<<16-1)
	want := uint64(1)<<0 | 1<<3 | 1<<4 | 1<<10
	if win != want {
		t.Fatalf("WindowUncounted(60, width 16) = %b, want %b", win, want)
	}
}

func TestWindowFullWord(t *testing.T) {
	v := New(128)
	for i := 0; i < 64; i += 2 {
		v.Set(i)
	}
	if got := v.WindowUncounted(0, ^uint64(0)); got != 0x5555555555555555 {
		t.Fatalf("WindowUncounted(0, width 64) = %x", got)
	}
	// Unaligned full-word window: bits 1..64, where bit 64 of the vector
	// is 0, so the top bit of the window is 0.
	if got, want := v.WindowUncounted(1, ^uint64(0)), uint64(0x2aaaaaaaaaaaaaaa); got != want {
		t.Fatalf("WindowUncounted(1, width 64) = %x, want %x", got, want)
	}
}

// TestWindowMatchesNaiveBits: bit j of WindowUncounted(pos, mask) is
// Peek(pos+j) for every width from 1 to 64, at word-aligned positions,
// at positions whose window crosses a word boundary, and at the last
// window of the vector, where the guard word is read.
func TestWindowMatchesNaiveBits(t *testing.T) {
	const n = 1024
	v := New(n)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n/3; i++ {
		v.Set(rng.Intn(n))
	}
	for w := 1; w <= 64; w++ {
		mask := ^uint64(0) >> (64 - w)
		for _, p := range []int{0, 1, 7, 60, 63, 64, 65, 127, 500, n - w} {
			win := v.WindowUncounted(p, mask)
			for j := 0; j < 64; j++ {
				if want := j < w && v.Peek(p+j); (win>>uint(j))&1 == 1 != want {
					t.Fatalf("WindowUncounted(%d) at width %d: bit %d is %d, Peek(%d) is %v", p, w, j, win>>uint(j)&1, p+j, want)
				}
			}
		}
	}
}

func TestOrWindowMatchesSet(t *testing.T) {
	// Property: OrWindowUncounted(pos, w) leaves the vector equal to
	// Set(pos+b) for every set bit b of w, at aligned, unaligned and
	// last-word positions alike, and never touches the guard word.
	const n = 1000
	got, want := New(n), New(n)
	f := func(pos uint16, w uint64) bool {
		p := int(pos) % n
		if room := n - p; room < 64 {
			w &= 1<<uint(room) - 1
		}
		got.Reset()
		want.Reset()
		got.OrWindowUncounted(p, w)
		for b := 0; b < 64; b++ {
			if w>>uint(b)&1 == 1 {
				want.Set(p + b)
			}
		}
		return got.Equal(want) && got.words[len(got.words)-1] == 0
	}
	cfg := &quick.Config{MaxCount: 2000, Values: func(args []reflect.Value, rng *rand.Rand) {
		pos := rng.Intn(n)
		switch rng.Intn(3) {
		case 0:
			pos &^= 63
		case 1:
			pos = n - 1 - rng.Intn(64)
		}
		args[0] = reflect.ValueOf(uint16(pos))
		args[1] = reflect.ValueOf(rng.Uint64() & rng.Uint64())
	}}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestAccessAccounting(t *testing.T) {
	var c memmodel.Counter
	v := New(1000)
	v.SetCounter(&c)
	if v.Counter() != &c {
		t.Fatal("Counter() did not return attached counter")
	}

	v.Set(10) // 1 write
	v.Bit(10) // 1 read
	if c.Writes() != 1 || c.Reads() != 1 {
		t.Fatalf("after Set+Bit: %v", &c)
	}

	// Peek, the window forms and instrumentation never charge.
	c.Reset()
	v.Peek(10)
	v.WindowUncounted(1, ^uint64(0))
	v.OrWindowUncounted(1, 1<<57-1)
	v.OnesCount()
	v.FillRatio()
	if c.Total() != 0 {
		t.Fatalf("instrumentation charged %d accesses", c.Total())
	}
}

func TestNilCounterSafe(t *testing.T) {
	v := New(64)
	v.Set(1) // must not panic with no counter attached
	v.Bit(1)
	v.Clear(1)
}

func TestFillRatioAndReset(t *testing.T) {
	v := New(100)
	for i := 0; i < 50; i++ {
		v.Set(i)
	}
	if got := v.FillRatio(); got != 0.5 {
		t.Fatalf("FillRatio = %v, want 0.5", got)
	}
	v.Reset()
	if v.OnesCount() != 0 {
		t.Fatal("Reset left bits set")
	}
}

func TestCloneAndEqual(t *testing.T) {
	v := New(130)
	v.Set(0)
	v.Set(129)
	w := v.Clone()
	if !v.Equal(w) {
		t.Fatal("clone not equal to original")
	}
	w.Set(5)
	if v.Equal(w) {
		t.Fatal("mutating clone affected equality unexpectedly")
	}
	if v.Peek(5) {
		t.Fatal("clone shares storage with original")
	}
	if v.Equal(New(131)) {
		t.Fatal("vectors of different length compared equal")
	}
}

func TestSizeBytes(t *testing.T) {
	if got := New(64).SizeBytes(); got != 8 {
		t.Errorf("SizeBytes(64 bits) = %d, want 8", got)
	}
	if got := New(65).SizeBytes(); got != 16 {
		t.Errorf("SizeBytes(65 bits) = %d, want 16", got)
	}
}

func TestSetClearRoundTripProperty(t *testing.T) {
	v := New(512)
	f := func(idx []uint16) bool {
		v.Reset()
		seen := map[int]bool{}
		for _, i := range idx {
			p := int(i) % 512
			v.Set(p)
			seen[p] = true
		}
		for p := range seen {
			if !v.Peek(p) {
				return false
			}
			v.Clear(p)
		}
		return v.OnesCount() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWindow57(b *testing.B) {
	v := New(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = v.WindowUncounted((i*2654435761)%(1<<20-57), 1<<57-1)
	}
}

func BenchmarkBit(b *testing.B) {
	v := New(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = v.Bit((i * 2654435761) % (1 << 20))
	}
}
