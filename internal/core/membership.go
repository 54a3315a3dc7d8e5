package core

import (
	"fmt"

	"shbf/internal/bitvec"
	"shbf/internal/hashing"
	"shbf/internal/memmodel"
)

// Membership is ShBF_M, the shifting Bloom filter for membership queries
// (paper Section 3).
//
// Construction (Section 3.1): for each element e, compute k/2 base
// positions h_1(e)%m … h_{k/2}(e)%m and one offset
// o(e) = h_{k/2+1}(e) % (w̄−1) + 1 ∈ [1, w̄−1], then set both B[h_i(e)%m]
// and B[h_i(e)%m + o(e)]. The filter stores k bits per element like a
// standard k-function Bloom filter but computes only k/2+1 hash
// functions.
//
// Query (Section 3.2): read the pair (B[h_i%m], B[h_i%m+o]) with one
// memory access per i and report membership iff every pair is (1,1),
// terminating early at the first miss — at most k/2 accesses versus the
// standard filter's k.
type Membership struct {
	bits    *bitvec.Vector
	m       int    // base array size; slack of w̄−1 bits follows
	k       int    // total bit positions per element (even)
	half    int    // k/2 base hash functions
	wbar    int    // maximum offset value w̄
	offMod  int    // w̄−1, the offset modulus (kept so offsetDigest inlines)
	winMask uint64 // precomputed w̄-bit window mask for the uncounted read
	fam     *hashing.Family
	seed    uint64 // construction seed (retained for serialization)
	n       int    // elements added

	// dscratch is the batch paths' digest buffer (see batch.go); kept
	// on the filter — which is single-goroutine by contract — so
	// steady-state batches are allocation-free.
	dscratch []hashing.Digest
}

// NewMembership returns an empty ShBF_M with an m-bit base array and k
// bit positions per element. k must be even and at least 2 (the paper
// assumes k even "for simplicity", splitting it into k/2 hash pairs).
// The array is extended by w̄−1 slack bits so shifted positions never
// wrap (Section 1.2: "we extend the number of bits in ShBF to m+c").
func NewMembership(m, k int, opts ...Option) (*Membership, error) {
	cfg, err := buildConfig(KindMembership, opts)
	if err != nil {
		return nil, err
	}
	return newMembership(m, k, cfg)
}

// newMembership builds from a resolved config (shared with the
// counting wrapper, which validates options against its own kind).
func newMembership(m, k int, cfg config) (*Membership, error) {
	if err := checkMembership(m, k, cfg.maxOffset); err != nil {
		return nil, err
	}
	f := new(Membership)
	f.init(bitvec.New(m+cfg.maxOffset-1), m, k, cfg.maxOffset, cfg.seed)
	f.bits.SetCounter(cfg.counter)
	return f, nil
}

// checkMembership validates ShBF_M's geometry.
func checkMembership(m, k, wbar int) error {
	if m <= 0 {
		return fmt.Errorf("core: m = %d must be positive", m)
	}
	if k < 2 || k%2 != 0 {
		return fmt.Errorf("core: k = %d must be even and ≥ 2", k)
	}
	if wbar < 2 || wbar > 64 {
		return fmt.Errorf("core: max offset w̄ = %d out of range [2,64]", wbar)
	}
	return nil
}

// init makes f an empty ShBF_M of checked geometry over bits, an
// (m+w̄−1)-bit array.
func (f *Membership) init(bits *bitvec.Vector, m, k, wbar int, seed uint64) {
	*f = Membership{
		bits:    bits,
		m:       m,
		k:       k,
		half:    k / 2,
		wbar:    wbar,
		offMod:  wbar - 1,
		winMask: ^uint64(0) >> (64 - uint(wbar)),
		fam:     hashing.NewFamily(k/2+1, seed),
		seed:    seed,
	}
}

// M returns the base array size in bits (excluding offset slack).
func (f *Membership) M() int { return f.m }

// K returns the number of bit positions per element.
func (f *Membership) K() int { return f.k }

// MaxOffset returns w̄.
func (f *Membership) MaxOffset() int { return f.wbar }

// N returns the number of elements added.
func (f *Membership) N() int { return f.n }

// SizeBytes returns the filter's bit-array footprint.
func (f *Membership) SizeBytes() int { return f.bits.SizeBytes() }

// FillRatio returns the fraction of set bits (the empirical 1−p′ of
// Equation 2).
func (f *Membership) FillRatio() float64 { return f.bits.FillRatio() }

// HashOpsPerAdd returns the number of hash computations per insertion:
// k/2 + 1 (Section 3.1).
func (f *Membership) HashOpsPerAdd() int { return f.half + 1 }

// offsetDigest computes o(e) = h_{k/2+1}(e) % (w̄−1) + 1 ∈ [1, w̄−1]
// from e's digest. The offset is never 0: a zero offset would collapse
// the pair to a single bit (Section 3.1).
func (f *Membership) offsetDigest(d hashing.Digest) int {
	return hashing.Reduce(f.fam.FromDigest(f.half, d), f.offMod) + 1
}

// Add inserts e: one digest pass, then k/2+1 mixes setting k bits.
func (f *Membership) Add(e []byte) {
	f.AddDigest(f.fam.Digest(e))
}

// AddDigest inserts the element whose digest is d. Batch and sharded
// paths that already digested the key call this to avoid re-scanning
// it; d must be the element's hashing.KeyDigest.
func (f *Membership) AddDigest(d hashing.Digest) {
	o := f.offsetDigest(d)
	for i := 0; i < f.half; i++ {
		base := f.fam.ModFromDigest(i, d, f.m)
		f.bits.Set(base)
		f.bits.Set(base + o)
	}
	f.n++
}

// Contains reports whether e may be in the set (no false negatives;
// false positives at the Equation 1 rate). One digest pass over the
// key, then per probe one integer mix and one w̄-bit window read (one
// memory access); the scan stops at the first failed pair, so a
// negative rejected by its first window costs one access, matching
// the standard filter's early-exit cost. (Under multi-pass hashing
// the offset hash was computed lazily to keep rejections cheap; as a
// single integer mix it is now cheaper than the branch that deferred
// it, so the pair mask is built up front.)
func (f *Membership) Contains(e []byte) bool {
	return f.ContainsDigest(hashing.KeyDigest(e))
}

// ContainsDigest answers Contains for the element whose digest is d.
func (f *Membership) ContainsDigest(d hashing.Digest) bool {
	ok, read := f.probe(d)
	if acc := f.bits.Counter(); acc != nil {
		billWindows(acc, f.fam, d, read, f.m, f.wbar)
	}
	return ok
}

// probe reads d's pairs until one fails, and returns the answer and
// how many windows it read. Hoisted locals keep the loop's operands in
// registers; the body is one mix, one reduction and one two-word read
// per pair.
func (f *Membership) probe(d hashing.Digest) (bool, int) {
	pairMask := uint64(1) | uint64(1)<<uint(f.offsetDigest(d))
	fam, bits, m, winMask := f.fam, f.bits, f.m, f.winMask
	for i, half := 0, f.half; i < half; i++ {
		base := fam.ModFromDigest(i, d, m)
		if bits.WindowUncounted(base, winMask)&pairMask != pairMask {
			return false, i + 1
		}
	}
	return true, f.half
}

// billWindows charges acc for a probe of the element digested as d
// that read its first n windows, each width bits wide at h_i(d) mod m:
// memmodel.AccessCount reads per window, the paper's Section 3.1 cost,
// which depends on the window's position alone. The scalar probes
// read uncharged and call it only when an access counter is attached;
// the round kernels bill in gather.
func billWindows(acc *memmodel.Counter, fam *hashing.Family, d hashing.Digest, n, m, width int) {
	for i := range n {
		acc.AddReads(memmodel.AccessCount(fam.ModFromDigest(i, d, m), width))
	}
}

// Reset clears the filter.
func (f *Membership) Reset() {
	f.bits.Reset()
	f.n = 0
}

// positions appends the k absolute bit positions encoding e — base and
// shifted interleaved: base_1, base_1+o, base_2, base_2+o, … — used by
// the counting variant to keep B and C synchronized.
func (f *Membership) positions(e []byte, dst []int) []int {
	return f.positionsDigest(f.fam.Digest(e), dst)
}

// positionsDigest is positions for an already digested element.
func (f *Membership) positionsDigest(d hashing.Digest, dst []int) []int {
	dst = dst[:0]
	o := f.offsetDigest(d)
	for i := 0; i < f.half; i++ {
		base := f.fam.ModFromDigest(i, d, f.m)
		dst = append(dst, base, base+o)
	}
	return dst
}

// BitWords returns the filter's backing bit-array words (data words
// plus the trailing guard word) for read-only consumers — the frozen
// encoder serializes them verbatim. The slice aliases live storage;
// mutating it breaks the filter.
func (f *Membership) BitWords() []uint64 { return f.bits.Words() }

// setBit and clearBit expose single-bit maintenance to the counting
// variant without charging query-model accesses twice.
func (f *Membership) setBit(pos int)   { f.bits.Set(pos) }
func (f *Membership) clearBit(pos int) { f.bits.Clear(pos) }

// totalBits returns the full array length m + w̄ − 1.
func (f *Membership) totalBits() int { return f.bits.Len() }
