package core

import (
	"fmt"
	"math/bits"

	"shbf/internal/bitvec"
	"shbf/internal/hashing"
)

// Multiplicity is ShBF_X, the shifting Bloom filter for multiplicity
// queries over a multi-set (paper Section 5). An element e occurring
// c(e) times is encoded once with offset o(e) = c(e) − 1: the k bits
// B[h_i(e)%m + c(e)−1] are set. A query reads, per base position, the c
// consecutive bits B[h_i%m … h_i%m+c−1] (⌈c/w⌉ memory accesses each,
// Section 5.2) and intersects the k windows; bit j−1 surviving in the
// intersection makes j a candidate multiplicity. The largest candidate
// is reported so the answer is never below the true count — no false
// negatives, only one-sided overestimates (Section 5.4).
type Multiplicity struct {
	multQuery
	n int // distinct elements encoded
}

// multQuery is the query side ShBF_X and CShBF_X share: the bit array
// B, its geometry and hash family, and the probe.
type multQuery struct {
	bits *bitvec.Vector
	m    int
	k    int
	c    int // maximum multiplicity
	fam  *hashing.Family
	seed uint64
}

// newMultQuery checks ShBF_X's geometry and returns its query side over
// an empty (m+c−1)-bit B, with cfg's access counter attached.
func newMultQuery(m, k, c int, cfg config) (multQuery, error) {
	if m <= 0 {
		return multQuery{}, fmt.Errorf("core: m = %d must be positive", m)
	}
	if k < 1 {
		return multQuery{}, fmt.Errorf("core: k = %d must be ≥ 1", k)
	}
	if c < 1 || c > 64 {
		return multQuery{}, fmt.Errorf("core: max multiplicity c = %d out of range [1,64]", c)
	}
	q := multQuery{
		bits: bitvec.New(m + c - 1),
		m:    m,
		k:    k,
		c:    c,
		fam:  hashing.NewFamily(k, cfg.seed),
		seed: cfg.seed,
	}
	q.bits.SetCounter(cfg.counter)
	return q, nil
}

// NewMultiplicity returns an empty ShBF_X for counts in [1, c]. The
// paper's evaluation uses c = 57 (= w̄) so each per-position window is a
// single access; any c in [1, 64] is supported here (c > w would cost
// ⌈c/w⌉ accesses per window, which the access accounting reflects).
func NewMultiplicity(m, k, c int, opts ...Option) (*Multiplicity, error) {
	cfg, err := buildConfig(KindMultiplicity, opts)
	if err != nil {
		return nil, err
	}
	q, err := newMultQuery(m, k, c, cfg)
	if err != nil {
		return nil, err
	}
	return &Multiplicity{multQuery: q}, nil
}

// M, K and C report the construction parameters.
func (q *multQuery) M() int { return q.m }
func (q *multQuery) K() int { return q.k }
func (q *multQuery) C() int { return q.c }

// FillRatio returns the fraction of set bits in B.
func (q *multQuery) FillRatio() float64 { return q.bits.FillRatio() }

// N returns the number of distinct elements encoded.
func (f *Multiplicity) N() int { return f.n }

// SizeBytes returns the bit-array footprint.
func (f *Multiplicity) SizeBytes() int { return f.bits.SizeBytes() }

// AddWithCount encodes element e with multiplicity count ∈ [1, c].
// Regardless of count, exactly k bits are set — the memory cost is
// independent of the multiplicities, the property that makes ShBF_X more
// memory-efficient than counter-based schemes (Section 5.4). One digest
// pass, k mixes.
func (f *Multiplicity) AddWithCount(e []byte, count int) error {
	if count < 1 || count > f.c {
		return fmt.Errorf("core: count %d out of range [1,%d]: %w", count, f.c, ErrCountOverflow)
	}
	d := f.fam.Digest(e)
	o := count - 1
	for i := 0; i < f.k; i++ {
		f.bits.Set(f.fam.ModFromDigest(i, d, f.m) + o)
	}
	f.n++
	return nil
}

// candidateMask intersects the k c-bit windows of the element digested
// as d; bit j−1 set means j is a candidate multiplicity.
func (q *multQuery) candidateMask(d hashing.Digest) uint64 {
	cand, read := q.probe(d)
	if acc := q.bits.Counter(); acc != nil {
		billWindows(acc, q.fam, d, read, q.m, q.c)
	}
	return cand
}

// probe reads d's windows until the intersection empties, and returns
// it and how many windows it read.
func (q *multQuery) probe(d hashing.Digest) (uint64, int) {
	all := ^uint64(0) >> (64 - uint(q.c))
	fam, bits, m := q.fam, q.bits, q.m
	cand := all
	i := 0
	for k := q.k; i < k && cand != 0; i++ {
		cand &= bits.WindowUncounted(fam.ModFromDigest(i, d, m), all)
	}
	return cand, i
}

// Candidates appends the candidate multiplicities of e to dst in
// increasing order and returns it. For an element with true count j,
// j is always present (Section 5.2); false positives may add larger or
// smaller values.
func (f *Multiplicity) Candidates(e []byte, dst []int) []int {
	dst = dst[:0]
	cand := f.candidateMask(f.fam.Digest(e))
	for cand != 0 {
		j := bits.TrailingZeros64(cand)
		dst = append(dst, j+1)
		cand &^= 1 << uint(j)
	}
	return dst
}

// Count returns the reported multiplicity of e: the largest candidate,
// "to avoid false negatives" (Section 5.2), or 0 if e is certainly not
// in the multi-set. The report is always ≥ the true count. It reads
// only B.
func (q *multQuery) Count(e []byte) int {
	return q.CountDigest(q.fam.Digest(e))
}

// CountDigest answers Count for the element whose digest is d.
func (q *multQuery) CountDigest(d hashing.Digest) int {
	return bits.Len64(q.candidateMask(d))
}

// Reset clears the filter.
func (f *Multiplicity) Reset() {
	f.bits.Reset()
	f.n = 0
}

// AccessesPerQuery returns k·⌈(c+7)/w⌉, the worst-case memory accesses
// of one query (the measured average is lower because of early
// termination). Each of the k windows is c bits wide and may start at
// any bit of its first byte, and an access reads w bits from a byte
// boundary (memmodel.AccessCount), so a window costs up to ⌈(c+7)/w⌉
// accesses. For c ≤ w−7 that is one, the paper's Section 5.2 budget.
func (f *Multiplicity) AccessesPerQuery() int {
	return f.k * ((f.c + 7 + WordBits - 1) / WordBits)
}
