// Package bitvec implements the bit array B underlying every filter in
// the reproduction, with the two capabilities the ShBF framework needs
// beyond a plain bitset:
//
//  1. Windowed reads. ShBF queries read w̄ (or c) consecutive bits
//     starting at an arbitrary position and inspect where the 1s fall
//     (Figure 1). WindowUncounted returns up to 64 consecutive bits as
//     a uint64, and OrWindowUncounted sets them.
//
//  2. Memory-access accounting. The paper's Figures 8, 10(b) and 11(b)
//     report "# memory accesses per query" under the byte-addressable
//     model of Section 3.1. A vector carries the memmodel.Counter that
//     measures it. Its single-bit steps (Set, Clear, Bit) charge the
//     counter themselves; the window forms charge nothing, and the
//     filters that read windows bill memmodel.AccessCount per window
//     read to Counter after the probe.
//
// Vectors are created with explicit slack so shifted positions
// h_i(e)%m + o(e) never wrap: the paper "extends the number of bits in
// ShBF to m+c" (Section 1.2).
package bitvec

import (
	"fmt"
	"math/bits"

	"shbf/internal/memmodel"
)

// Vector is a fixed-size bit array. The zero value is unusable; use New.
type Vector struct {
	words []uint64
	n     int // total bits, including slack
	acc   *memmodel.Counter
}

// New returns a vector of n bits, all zero. It panics if n is not
// positive: sizes are static configuration derived from m and the
// offset range, not runtime input.
func New(n int) *Vector {
	if n <= 0 {
		panic(fmt.Sprintf("bitvec: size %d must be positive", n))
	}
	// One guard word beyond the last data word lets WindowUncounted
	// read two words unconditionally (branchless) at every in-range
	// position.
	return &Vector{
		words: make([]uint64, (n+63)/64+1),
		n:     n,
	}
}

// Borrow returns an n-bit vector over words, which it does not copy:
// the first (n+63)/64+1 words are its data words and guard word, laid
// out as New lays them out, and any words after those are left alone.
// The vector has no counter. Its writes land in words, so a caller
// lending read-only memory (a mapped file) must only read through it.
func Borrow(words []uint64, n int) (Vector, error) {
	need := (n+63)/64 + 1
	if n <= 0 || len(words) < need {
		return Vector{}, fmt.Errorf("bitvec: %d words cannot hold %d bits and a guard word", len(words), n)
	}
	return Vector{words: words[:need:need], n: n}, nil
}

// SetCounter attaches an access counter; nil detaches. Set, Clear and
// Bit charge it per the Section 3.1 model, and the filters bill their
// window reads and writes to it.
func (v *Vector) SetCounter(c *memmodel.Counter) { v.acc = c }

// Counter returns the attached access counter (possibly nil).
func (v *Vector) Counter() *memmodel.Counter { return v.acc }

// Len returns the total number of bits, including slack.
func (v *Vector) Len() int { return v.n }

// SizeBytes returns the memory footprint of the logical bit storage
// (excluding the internal guard word).
func (v *Vector) SizeBytes() int { return (v.n + 63) / 64 * 8 }

// Set sets bit i to 1, charging one write access.
func (v *Vector) Set(i int) {
	v.boundsCheck(i)
	v.SetUncounted(i)
	v.acc.AddWrites(1)
}

// Clear sets bit i to 0, charging one write access.
func (v *Vector) Clear(i int) {
	v.boundsCheck(i)
	v.ClearUncounted(i)
	v.acc.AddWrites(1)
}

// SetUncounted is Set without the access charge and the explicit range
// check, small enough to inline: the counting filters' update paths
// set k bits at a time and charge the k writes at once through
// Counter. Positions must be in range by construction, as for
// WindowUncounted.
func (v *Vector) SetUncounted(i int) { v.words[i>>6] |= 1 << uint(i&63) }

// ClearUncounted is Clear without the access charge and the explicit
// range check, on the same terms as SetUncounted.
func (v *Vector) ClearUncounted(i int) { v.words[i>>6] &^= 1 << uint(i&63) }

// Bit reports whether bit i is set, charging one read access. This is
// the probe primitive of the standard BF baseline, whose k probes hit k
// random words and therefore cost k accesses (Section 1.2.1).
func (v *Vector) Bit(i int) bool {
	v.boundsCheck(i)
	v.acc.AddReads(1)
	return v.words[i>>6]&(1<<uint(i&63)) != 0
}

// Peek reports whether bit i is set without charging an access. Used by
// tests and by write paths that already accounted for their access.
func (v *Vector) Peek(i int) bool {
	v.boundsCheck(i)
	return v.words[i>>6]&(1<<uint(i&63)) != 0
}

// WindowUncounted returns the consecutive bits starting at pos, packed
// into the low bits of a uint64 (bit pos at bit 0) and masked by mask,
// the window-width mask (1<<width − 1; ^0 for width 64). It is one
// branchless two-word read, small enough to inline: the guard word
// makes words[wi+1] always addressable, and Go defines x << 64 as 0,
// so the second word's share vanishes when pos is word-aligned. It
// validates no range and charges no access. Callers hold positions
// that are in range by construction (every filter derives them as
// Reduce(·, m) + offset ≤ Len), and a filter with a counter attached
// bills memmodel.AccessCount(pos, width) for each window it read. A
// wild position faults the slice bounds check rather than reading
// foreign memory.
func (v *Vector) WindowUncounted(pos int, mask uint64) uint64 {
	wi, off := pos>>6, uint(pos&63)
	return (v.words[wi]>>off | v.words[wi+1]<<(64-off)) & mask
}

// OrWindowUncounted is the write form of WindowUncounted: it sets bit
// pos+b for every set bit b of w, with the same two-word access and no
// branch. The second word is always written; when pos is word-aligned
// its share of w is 0 (Go defines x >> 64 as 0), so it is unchanged.
// Every set bit of w must land inside the vector (pos + 63 −
// LeadingZeros64(w) < Len), which keeps the guard word zero. It
// charges no access: a filter with a counter attached bills one write
// per bit it set, as Set would.
func (v *Vector) OrWindowUncounted(pos int, w uint64) {
	wi, off := pos>>6, uint(pos&63)
	v.words[wi] |= w << off
	v.words[wi+1] |= w >> (64 - off)
}

// Words returns the vector's backing words — data words in
// least-significant-bit-first order followed by the trailing guard
// word. The slice aliases live storage; callers (the frozen encoder)
// must treat it as read-only.
func (v *Vector) Words() []uint64 { return v.words }

// OnesCount returns the number of set bits (no access charged; this is
// instrumentation, not a query path).
func (v *Vector) OnesCount() int {
	total := 0
	for _, w := range v.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// FillRatio returns the fraction of set bits, the empirical 1−p′ of the
// analysis (Equation 2).
func (v *Vector) FillRatio() float64 {
	return float64(v.OnesCount()) / float64(v.n)
}

// Reset zeroes every bit without charging accesses.
func (v *Vector) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// Clone returns a deep copy sharing no storage; the clone has no counter.
func (v *Vector) Clone() *Vector {
	w := make([]uint64, len(v.words))
	copy(w, v.words)
	return &Vector{words: w, n: v.n}
}

// Or ORs o's bits into v. Panics if lengths differ (a programming
// error: set algebra requires identical geometry).
func (v *Vector) Or(o *Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: Or of mismatched lengths %d and %d", v.n, o.n))
	}
	for i := range v.words {
		v.words[i] |= o.words[i]
	}
}

// And ANDs o's bits into v. Panics if lengths differ.
func (v *Vector) And(o *Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: And of mismatched lengths %d and %d", v.n, o.n))
	}
	for i := range v.words {
		v.words[i] &= o.words[i]
	}
}

// Equal reports whether two vectors have identical length and contents.
func (v *Vector) Equal(o *Vector) bool {
	if v.n != o.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

func (v *Vector) boundsCheck(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: bit %d out of range [0,%d)", i, v.n))
	}
}
