// Package counters implements packed fixed-width counter arrays, the
// array C of the counting filters (CBF, CShBF_M, CShBF_A, CShBF_X,
// Spectral BF, DCF).
//
// The paper notes that "in most applications, 4 bits for a counter are
// enough" (Section 3.3) and uses 6-bit counters for Spectral BF and the
// CM sketch in the Figure 11 experiments; Array supports any width from
// 1 to 64 bits and packs counters contiguously so that z-bit counters
// observe the same one-access window rule as bits when
// w̄ ≤ ⌊(w−7)/z⌋ (Section 3.3).
package counters

import (
	"fmt"

	"shbf/internal/memmodel"
)

// Array is a fixed-size array of n counters, each width bits wide.
// Increments saturate at the maximum value (2^width − 1) rather than
// wrapping; Overflows reports how often saturation happened so
// experiments can verify the paper's "4 bits are enough" claim.
type Array struct {
	words     []uint64
	n         int
	width     uint
	max       uint64
	overflows uint64
	inWord    bool // width divides 64: no counter straddles two words
	acc       *memmodel.Counter
}

// New returns an array of n counters of the given bit width, all zero.
// It panics if n is not positive or width is outside [1, 64]; both are
// static configuration.
func New(n int, width uint) *Array {
	if n <= 0 {
		panic(fmt.Sprintf("counters: size %d must be positive", n))
	}
	if width < 1 || width > 64 {
		panic(fmt.Sprintf("counters: width %d out of range [1,64]", width))
	}
	totalBits := n * int(width)
	var max uint64
	if width == 64 {
		max = ^uint64(0)
	} else {
		max = (1 << width) - 1
	}
	return &Array{
		words:  make([]uint64, (totalBits+63)/64),
		n:      n,
		width:  width,
		max:    max,
		inWord: 64%width == 0,
	}
}

// SetCounter attaches a memory-access counter; nil detaches.
func (a *Array) SetCounter(c *memmodel.Counter) { a.acc = c }

// Len returns the number of counters.
func (a *Array) Len() int { return a.n }

// Width returns the counter width in bits.
func (a *Array) Width() uint { return a.width }

// Max returns the saturation value 2^width − 1.
func (a *Array) Max() uint64 { return a.max }

// Overflows returns how many increments saturated.
func (a *Array) Overflows() uint64 { return a.overflows }

// SizeBytes returns the memory footprint of the counter storage.
func (a *Array) SizeBytes() int { return len(a.words) * 8 }

// Get returns counter i, charging one read access (a z-bit counter read
// is one aligned fetch for every width the reproduction uses).
func (a *Array) Get(i int) uint64 {
	a.boundsCheck(i)
	a.acc.AddReads(1)
	return a.get(i)
}

// Peek returns counter i without charging an access.
func (a *Array) Peek(i int) uint64 {
	a.boundsCheck(i)
	return a.get(i)
}

// Set stores v into counter i (clamped to Max), charging one write.
func (a *Array) Set(i int, v uint64) {
	a.boundsCheck(i)
	if v > a.max {
		v = a.max
	}
	a.put(i, v)
	a.acc.AddWrites(1)
}

// Inc increments counter i by 1, saturating at Max. It returns the new
// value and charges one read and one write access.
func (a *Array) Inc(i int) uint64 {
	a.boundsCheck(i)
	v := a.get(i)
	a.acc.AddReads(1)
	if v == a.max {
		a.overflows++
		a.acc.AddWrites(1)
		return v
	}
	v++
	a.put(i, v)
	a.acc.AddWrites(1)
	return v
}

// Dec decrements counter i by 1. Decrementing a zero counter is a
// programming error in every scheme that uses this package (it means a
// delete without a matching insert), so Dec reports it via ok=false and
// leaves the counter at zero. It charges one read access, and one write
// access when the counter was nonzero.
func (a *Array) Dec(i int) (v uint64, ok bool) {
	a.boundsCheck(i)
	v = a.get(i)
	a.acc.AddReads(1)
	if v == 0 {
		return 0, false
	}
	v--
	a.put(i, v)
	a.acc.AddWrites(1)
	return v, true
}

// Uncounted and word-level forms. The counting filters' update paths
// step k counters at a time; each step below is Inc, Dec or Peek
// without the access charge and without the explicit range check, so
// the caller charges the k steps' accesses with one Charge. As with
// bitvec's uncounted forms, callers hold indexes that are in range by
// construction; a wild index past the last word faults the slice
// bounds check instead of touching foreign memory. Inc and Dec keep
// bodies of their own rather than calling these: IncUncounted and
// DecUncounted do not inline, and the charged paths (CShBF_M, the
// CBF, the sketches) would pay a nested call.

// InWord reports whether the width divides 64, so that no counter
// straddles two words and IncWord and DecWord apply.
func (a *Array) InWord() bool { return a.inWord }

// Charge charges reads and writes to the attached access counter.
func (a *Array) Charge(reads, writes int) {
	a.acc.AddReads(reads)
	a.acc.AddWrites(writes)
}

// GetUncounted returns counter i, like Peek. It inlines for every
// width.
func (a *Array) GetUncounted(i int) uint64 { return a.get(i) }

// IncUncounted is Inc without the charge, for any width: it returns
// the new value, and a saturated counter stays at Max and is tallied
// as an overflow.
func (a *Array) IncUncounted(i int) uint64 {
	v := a.get(i)
	if v == a.max {
		a.overflows++
		return v
	}
	v++
	a.put(i, v)
	return v
}

// DecUncounted is Dec without the charge, for any width.
func (a *Array) DecUncounted(i int) (v uint64, ok bool) {
	v = a.get(i)
	if v == 0 {
		return 0, false
	}
	v--
	a.put(i, v)
	return v, true
}

// IncWord is IncUncounted for an InWord array, as one add into the
// counter's word. It inlines.
func (a *Array) IncWord(i int) {
	bit := i * int(a.width)
	wi, off := bit>>6, uint(bit&63)
	if a.words[wi]>>off&a.max == a.max {
		a.overflows++
		return
	}
	a.words[wi] += 1 << off
}

// DecWord is DecUncounted for an InWord array, as one subtract from the
// counter's word. It inlines.
func (a *Array) DecWord(i int) (v uint64, ok bool) {
	bit := i * int(a.width)
	wi, off := bit>>6, uint(bit&63)
	if v = a.words[wi] >> off & a.max; v == 0 {
		return 0, false
	}
	a.words[wi] -= 1 << off
	return v - 1, true
}

// AddSaturating adds o's counters into a counter-wise, clamping each
// sum at Max — the merge primitive of the counting-filter union
// (core.CountingMultiplicity.Merge): a clamped counter can only delay
// bit clearing on later deletes, never clear a bit early, so the
// no-false-negative guarantee survives the merge. Each clamp is
// tallied as an overflow. The arrays must agree on length and width;
// no memory accesses are charged (merges are rare control-plane
// events, not query-path work).
func (a *Array) AddSaturating(o *Array) error {
	if a.n != o.n || a.width != o.width {
		return fmt.Errorf("counters: mismatched arrays (%d×%d-bit vs %d×%d-bit)",
			a.n, a.width, o.n, o.width)
	}
	for i := 0; i < a.n; i++ {
		ov := o.get(i)
		if ov == 0 {
			continue
		}
		v := a.get(i) + ov
		// Both operands are ≤ max ≤ 2^64−1 with width ≤ 64; the sum can
		// wrap only at width 64, where wrapping below either operand
		// detects it.
		if v > a.max || v < ov {
			v = a.max
			a.overflows++
		}
		a.put(i, v)
	}
	return nil
}

// Reset zeroes all counters and the overflow tally.
func (a *Array) Reset() {
	for i := range a.words {
		a.words[i] = 0
	}
	a.overflows = 0
}

// NonZero returns the number of non-zero counters (instrumentation; no
// access charged). For a CBF this equals the OnesCount of the shadowed
// bit array.
func (a *Array) NonZero() int {
	count := 0
	for i := 0; i < a.n; i++ {
		if a.get(i) != 0 {
			count++
		}
	}
	return count
}

func (a *Array) get(i int) uint64 {
	bit := i * int(a.width)
	wi, off := bit>>6, uint(bit&63)
	v := a.words[wi] >> off
	if off+a.width > 64 {
		v |= a.words[wi+1] << (64 - off)
	}
	return v & a.max
}

func (a *Array) put(i int, v uint64) {
	bit := i * int(a.width)
	wi, off := bit>>6, uint(bit&63)
	a.words[wi] = a.words[wi]&^(a.max<<off) | v<<off
	if off+a.width > 64 {
		hi := a.width - (64 - off)
		a.words[wi+1] = a.words[wi+1]&^(a.max>>(a.width-hi)) | v>>(a.width-hi)
	}
}

func (a *Array) boundsCheck(i int) {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("counters: index %d out of range [0,%d)", i, a.n))
	}
}
