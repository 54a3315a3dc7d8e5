package core

import (
	"fmt"

	"shbf/internal/bitvec"
	"shbf/internal/hashing"
)

// TShift is the generalized ShBF_M of paper Section 3.6: instead of one
// offset per base hash (t = 1, which is exactly ShBF_M), it uses groups
// of t+1 positions — one base hash plus t shifted copies — so k bit
// positions require only k/(t+1) base hash functions plus t offset
// functions, k/(t+1)+t hash computations in total.
//
// Following the paper's partitioned construction ("the output of each
// hash function covers a distinct set of consecutive (w̄−1)/t bits"),
// the j-th offset is drawn from the j-th segment of the window:
//
//	o_j(e) = (j−1)·s + (h_{g+j}(e) mod s) + 1,  s = (w̄−1)/t
//
// so the t shifted bits land in disjoint segments of the w̄-bit window
// and the whole group is still read with one memory access.
type TShift struct {
	bits    *bitvec.Vector
	m       int
	k       int
	t       int
	groups  int // k/(t+1) base hash functions
	seg     int // segment width s = (w̄−1)/t
	wbar    int
	winMask uint64          // precomputed w̄-bit window mask for the uncounted read
	fam     *hashing.Family // groups + t hashers
	seed    uint64
	n       int
	offs    []int // scratch: t offsets
}

// NewTShift returns an empty generalized filter with k total positions
// per element and t shifts per group. Requirements: t ≥ 1, (t+1) | k,
// and t ≤ w̄−1 so each segment holds at least one bit. NewTShift with
// t = 1 is behaviourally the ShBF_M construction.
func NewTShift(m, k, t int, opts ...Option) (*TShift, error) {
	cfg, err := buildConfig(KindTShift, opts)
	if err != nil {
		return nil, err
	}
	if m <= 0 {
		return nil, fmt.Errorf("core: m = %d must be positive", m)
	}
	if t < 1 {
		return nil, fmt.Errorf("core: t = %d must be ≥ 1", t)
	}
	if k < t+1 || k%(t+1) != 0 {
		return nil, fmt.Errorf("core: k = %d must be a positive multiple of t+1 = %d", k, t+1)
	}
	if cfg.maxOffset < 2 || cfg.maxOffset > 64 {
		return nil, fmt.Errorf("core: max offset w̄ = %d out of range [2,64]", cfg.maxOffset)
	}
	seg := (cfg.maxOffset - 1) / t
	if seg < 1 {
		return nil, fmt.Errorf("core: t = %d too large for w̄ = %d (empty segments)", t, cfg.maxOffset)
	}
	groups := k / (t + 1)
	f := &TShift{
		bits:    bitvec.New(m + cfg.maxOffset - 1),
		m:       m,
		k:       k,
		t:       t,
		groups:  groups,
		seg:     seg,
		wbar:    cfg.maxOffset,
		winMask: ^uint64(0) >> (64 - uint(cfg.maxOffset)),
		fam:     hashing.NewFamily(groups+t, cfg.seed),
		seed:    cfg.seed,
		offs:    make([]int, t),
	}
	f.bits.SetCounter(cfg.counter)
	return f, nil
}

// M returns the base array size. K, T, N, and MaxOffset report the other
// parameters.
func (f *TShift) M() int         { return f.m }
func (f *TShift) K() int         { return f.k }
func (f *TShift) T() int         { return f.t }
func (f *TShift) N() int         { return f.n }
func (f *TShift) MaxOffset() int { return f.wbar }

// HashOpsPerAdd returns k/(t+1) + t, the paper's hashing budget for the
// generalized scheme.
func (f *TShift) HashOpsPerAdd() int { return f.groups + f.t }

// FillRatio returns the fraction of set bits.
func (f *TShift) FillRatio() float64 { return f.bits.FillRatio() }

// offsets fills f.offs with the t segment-partitioned offsets of the
// element whose digest is d.
func (f *TShift) offsets(d hashing.Digest) {
	for j := 0; j < f.t; j++ {
		h := f.fam.FromDigest(f.groups+j, d)
		f.offs[j] = j*f.seg + hashing.Reduce(h, f.seg) + 1
	}
}

// Add inserts e: for each of the k/(t+1) base positions, set the base
// bit and its t shifted copies. One digest pass, k/(t+1)+t mixes.
func (f *TShift) Add(e []byte) {
	f.addDigest(f.fam.Digest(e))
}

func (f *TShift) addDigest(d hashing.Digest) {
	f.offsets(d)
	for i := 0; i < f.groups; i++ {
		base := f.fam.ModFromDigest(i, d, f.m)
		f.bits.Set(base)
		for _, o := range f.offs {
			f.bits.Set(base + o)
		}
	}
	f.n++
}

// Contains reports whether e may be in the set. Each group is verified
// with a single w̄-bit window read; the scan stops at the first group
// whose t+1 bits are not all 1. The t offset mixes are computed only
// once the first base bit passes, so cheap rejections stay cheap.
func (f *TShift) Contains(e []byte) bool {
	d := f.fam.Digest(e)
	ok, read := f.probe(d)
	if acc := f.bits.Counter(); acc != nil {
		billWindows(acc, f.fam, d, read, f.m, f.wbar)
	}
	return ok
}

// probe reads d's groups until one fails, and returns the answer and
// how many windows it read.
func (f *TShift) probe(d hashing.Digest) (bool, int) {
	mask := uint64(0)
	for i := 0; i < f.groups; i++ {
		win := f.bits.WindowUncounted(f.fam.ModFromDigest(i, d, f.m), f.winMask)
		if win&1 == 0 {
			return false, i + 1
		}
		if mask == 0 {
			f.offsets(d)
			mask = 1
			for _, o := range f.offs {
				mask |= 1 << uint(o)
			}
		}
		if win&mask != mask {
			return false, i + 1
		}
	}
	return true, f.groups
}

// Reset clears the filter.
func (f *TShift) Reset() {
	f.bits.Reset()
	f.n = 0
}
