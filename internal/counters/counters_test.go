package counters

import (
	"math/rand"
	"testing"
	"testing/quick"

	"shbf/internal/memmodel"
)

func TestWidths(t *testing.T) {
	// Every width must pack and unpack exactly, including widths that
	// straddle word boundaries.
	for _, width := range []uint{1, 2, 3, 4, 5, 6, 7, 8, 13, 16, 31, 32, 33, 63, 64} {
		a := New(100, width)
		if a.Width() != width {
			t.Fatalf("Width() = %d, want %d", a.Width(), width)
		}
		rng := rand.New(rand.NewSource(int64(width)))
		want := make([]uint64, 100)
		for i := range want {
			want[i] = rng.Uint64() & a.Max()
			a.Set(i, want[i])
		}
		for i, w := range want {
			if got := a.Peek(i); got != w {
				t.Fatalf("width %d: counter %d = %d, want %d", width, i, got, w)
			}
		}
	}
}

func TestMax(t *testing.T) {
	if got := New(1, 4).Max(); got != 15 {
		t.Errorf("Max(4) = %d, want 15", got)
	}
	if got := New(1, 64).Max(); got != ^uint64(0) {
		t.Errorf("Max(64) = %d, want all-ones", got)
	}
}

func TestIncDec(t *testing.T) {
	a := New(10, 4)
	for i := 0; i < 5; i++ {
		if got := a.Inc(3); got != uint64(i+1) {
			t.Fatalf("Inc #%d = %d, want %d", i, got, i+1)
		}
	}
	for i := 4; i >= 0; i-- {
		v, ok := a.Dec(3)
		if !ok || v != uint64(i) {
			t.Fatalf("Dec = (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	if _, ok := a.Dec(3); ok {
		t.Fatal("Dec of zero counter reported ok")
	}
	if a.Peek(3) != 0 {
		t.Fatal("zero counter changed by failed Dec")
	}
}

func TestSaturation(t *testing.T) {
	a := New(2, 2) // max 3
	for i := 0; i < 5; i++ {
		a.Inc(0)
	}
	if got := a.Peek(0); got != 3 {
		t.Fatalf("saturated counter = %d, want 3", got)
	}
	if got := a.Overflows(); got != 2 {
		t.Fatalf("Overflows = %d, want 2", got)
	}
	a.Set(1, 100) // clamps
	if got := a.Peek(1); got != 3 {
		t.Fatalf("Set clamped to %d, want 3", got)
	}
}

func TestNeighborIsolation(t *testing.T) {
	// Mutating one counter must not disturb neighbors, for widths that
	// share words.
	for _, width := range []uint{3, 4, 6, 7} {
		a := New(64, width)
		for i := 0; i < 64; i++ {
			a.Set(i, uint64(i)&a.Max())
		}
		a.Set(31, a.Max())
		a.Inc(32)
		a.Dec(30)
		for i := 0; i < 64; i++ {
			want := uint64(i) & a.Max()
			switch i {
			case 31:
				want = a.Max()
			case 32:
				want = (uint64(32) & a.Max()) + 1
				if want > a.Max() {
					want = a.Max()
				}
			case 30:
				w := uint64(30) & a.Max()
				if w > 0 {
					w--
				}
				want = w
			}
			if got := a.Peek(i); got != want {
				t.Fatalf("width %d: counter %d = %d, want %d", width, i, got, want)
			}
		}
	}
}

func TestIncDecRoundTripProperty(t *testing.T) {
	// Property: a random sequence of Inc operations followed by the same
	// number of Decs per index restores an all-zero array (when no
	// saturation occurs).
	f := func(ops []uint8) bool {
		a := New(32, 8) // max 255 — no saturation for ≤255 ops per slot
		count := map[int]int{}
		for _, op := range ops {
			i := int(op) % 32
			a.Inc(i)
			count[i]++
		}
		for i, c := range count {
			for j := 0; j < c; j++ {
				if _, ok := a.Dec(i); !ok {
					return false
				}
			}
		}
		return a.NonZero() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNonZero(t *testing.T) {
	a := New(100, 4)
	if a.NonZero() != 0 {
		t.Fatal("fresh array has non-zero counters")
	}
	a.Set(5, 1)
	a.Set(50, 7)
	a.Set(99, 15)
	if got := a.NonZero(); got != 3 {
		t.Fatalf("NonZero = %d, want 3", got)
	}
	a.Reset()
	if a.NonZero() != 0 || a.Overflows() != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestAccessAccounting(t *testing.T) {
	var c memmodel.Counter
	a := New(100, 4)
	a.SetCounter(&c)
	a.Inc(0) // 1 read + 1 write
	if c.Reads() != 1 || c.Writes() != 1 {
		t.Fatalf("after Inc: %v", &c)
	}
	c.Reset()
	a.Get(0)
	if c.Reads() != 1 || c.Writes() != 0 {
		t.Fatalf("after Get: %v", &c)
	}
	c.Reset()
	a.Dec(0)
	if c.Reads() != 1 || c.Writes() != 1 {
		t.Fatalf("after Dec: %v", &c)
	}
	c.Reset()
	a.Peek(0)
	a.NonZero()
	if c.Total() != 0 {
		t.Fatalf("instrumentation charged %d accesses", c.Total())
	}
}

// TestUncountedStepsMatchCharged drives twin arrays with one random
// sequence of steps, the charged Inc/Dec on one and the uncounted
// forms on the other (on odd steps IncWord/DecWord where InWord
// holds), and checks that the values, the (v, ok) answers and the
// overflow tallies agree while only the charged array is billed, at
// every width class. The small array and the bias toward increments
// saturate the counters of up to 8 bits.
func TestUncountedStepsMatchCharged(t *testing.T) {
	for _, width := range []uint{1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 32, 33, 64} {
		var billed, unbilled memmodel.Counter
		charged, uncounted := New(37, width), New(37, width)
		charged.SetCounter(&billed)
		uncounted.SetCounter(&unbilled)
		if got, want := uncounted.InWord(), 64%width == 0; got != want {
			t.Fatalf("width %d: InWord = %v, want %v", width, got, want)
		}
		rng := rand.New(rand.NewSource(int64(width)))
		for step := 0; step < 40000; step++ {
			i, word := rng.Intn(37), uncounted.InWord() && step%2 == 1
			if rng.Intn(3) != 0 {
				want := charged.Inc(i)
				if word {
					uncounted.IncWord(i)
				} else if got := uncounted.IncUncounted(i); got != want {
					t.Fatalf("width %d step %d: IncUncounted(%d) = %d, want %d", width, step, i, got, want)
				}
			} else {
				wantV, wantOK := charged.Dec(i)
				var gotV uint64
				var gotOK bool
				if word {
					gotV, gotOK = uncounted.DecWord(i)
				} else {
					gotV, gotOK = uncounted.DecUncounted(i)
				}
				if gotV != wantV || gotOK != wantOK {
					t.Fatalf("width %d step %d: Dec(%d) = %d, %v, want %d, %v", width, step, i, gotV, gotOK, wantV, wantOK)
				}
			}
			if got, want := uncounted.GetUncounted(i), charged.Peek(i); got != want {
				t.Fatalf("width %d step %d: counter %d = %d, want %d", width, step, i, got, want)
			}
		}
		if charged.Overflows() != uncounted.Overflows() || (width <= 8 && charged.Overflows() == 0) {
			t.Fatalf("width %d: overflows %d and %d, want equal (and nonzero up to 8 bits)",
				width, charged.Overflows(), uncounted.Overflows())
		}
		if billed.Total() == 0 || unbilled.Total() != 0 {
			t.Fatalf("width %d: charged array billed %v, uncounted one %v", width, &billed, &unbilled)
		}
		uncounted.Charge(3, 2)
		if unbilled.Reads() != 3 || unbilled.Writes() != 2 {
			t.Fatalf("width %d: Charge(3, 2) billed %v", width, &unbilled)
		}
	}
}

func TestPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"New(0,4)":  func() { New(0, 4) },
		"New(1,0)":  func() { New(1, 0) },
		"New(1,65)": func() { New(1, 65) },
		"Get(-1)":   func() { New(10, 4).Get(-1) },
		"Set(10)":   func() { New(10, 4).Set(10, 0) },
		"Inc(11)":   func() { New(10, 4).Inc(11) },
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

func TestSizeBytes(t *testing.T) {
	// 100 4-bit counters = 400 bits = 7 words = 56 bytes.
	if got := New(100, 4).SizeBytes(); got != 56 {
		t.Errorf("SizeBytes = %d, want 56", got)
	}
}

func BenchmarkInc4bit(b *testing.B) {
	a := New(1<<16, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Inc(i & (1<<16 - 1))
	}
}

func TestAddSaturating(t *testing.T) {
	a, b := New(8, 4), New(8, 4)
	for i := 0; i < 8; i++ {
		a.Set(i, uint64(i))   // 0..7
		b.Set(i, uint64(2*i)) // 0..14, clamped to 15 by Set
	}
	if err := a.AddSaturating(b); err != nil {
		t.Fatalf("AddSaturating: %v", err)
	}
	for i := 0; i < 8; i++ {
		want := uint64(3 * i)
		if want > 15 {
			want = 15
		}
		if got := a.Peek(i); got != want {
			t.Fatalf("counter %d = %d, want %d", i, got, want)
		}
	}
	// Sums past Max clamp and tally overflows.
	if a.Overflows() == 0 {
		t.Fatal("clamped sums did not tally overflows")
	}
	// Mismatched geometry is refused.
	if err := a.AddSaturating(New(8, 5)); err == nil {
		t.Fatal("accepted width mismatch")
	}
	if err := a.AddSaturating(New(9, 4)); err == nil {
		t.Fatal("accepted length mismatch")
	}
}

func TestAddSaturatingWidth64(t *testing.T) {
	// Width 64 is where an unchecked sum would wrap instead of clamp.
	a, b := New(2, 64), New(2, 64)
	a.Set(0, ^uint64(0)-1)
	b.Set(0, 5)
	a.Set(1, 7)
	b.Set(1, 9)
	if err := a.AddSaturating(b); err != nil {
		t.Fatal(err)
	}
	if got := a.Peek(0); got != ^uint64(0) {
		t.Fatalf("counter 0 = %d, want saturation", got)
	}
	if got := a.Peek(1); got != 16 {
		t.Fatalf("counter 1 = %d, want 16", got)
	}
}
