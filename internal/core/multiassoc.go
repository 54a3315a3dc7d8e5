package core

import (
	"fmt"
	"math/bits"

	"shbf/internal/bitvec"
	"shbf/internal/hashing"
	"shbf/internal/hashtable"
)

// MultiAssociation extends ShBF_A from two sets to g sets (2 ≤ g ≤ 5),
// the multi-set membership problem of the paper's Section 2.2 (kBF,
// Bloomier, Coded BF, Combinatorial BF, …). The framework generalizes
// directly: an element's *region* is the non-empty subset of sets that
// contain it — one of R = 2^g − 1 possibilities — and the region is
// encoded in the offset. Region 1 (only the first set) keeps offset 0;
// every other region r gets a per-element offset drawn from its own
// segment of the w̄-bit window:
//
//	o_r(e) = (r−2)·s + (h_r(e) mod s) + 1,  s = (w̄−1)/(R−1)
//
// so all R candidate positions of a query live in one window and are
// checked with k memory accesses, versus g·k for one BF per set.
//
// Like ShBF_A — and unlike the Section 2.2 schemes, which require the
// sets to be pairwise disjoint — overlapping sets are handled soundly:
// the true region is always among the candidates.
type MultiAssociation struct {
	bits    *bitvec.Vector
	m       int
	k       int
	g       int
	regions int // R = 2^g − 1
	seg     int // segment width s
	wbar    int
	fam     *hashing.Family // k base + (R−1) offset hashers
	seed    uint64
	sizes   []int // distinct elements per set at build time
}

// MaxMultiAssociationSets bounds g: with w̄ = 57 the window holds
// R−1 = 2^5−2 = 30 one-bit segments, and query cost grows with 2^g.
const MaxMultiAssociationSets = 5

// BuildMultiAssociation constructs the filter over g = len(sets) sets.
// Duplicates within a set are ignored; sets may overlap.
func BuildMultiAssociation(sets [][][]byte, m, k int, opts ...Option) (*MultiAssociation, error) {
	cfg, err := buildConfig(KindMultiAssociation, opts)
	if err != nil {
		return nil, err
	}
	g := len(sets)
	if g < 2 || g > MaxMultiAssociationSets {
		return nil, fmt.Errorf("core: %d sets out of range [2,%d]", g, MaxMultiAssociationSets)
	}
	if m <= 0 {
		return nil, fmt.Errorf("core: m = %d must be positive", m)
	}
	if k < 1 {
		return nil, fmt.Errorf("core: k = %d must be ≥ 1", k)
	}
	regions := 1<<g - 1
	if cfg.maxOffset < regions || cfg.maxOffset > 64 {
		return nil, fmt.Errorf("core: max offset w̄ = %d cannot host %d region segments", cfg.maxOffset, regions-1)
	}
	a := &MultiAssociation{
		bits:    bitvec.New(m + cfg.maxOffset - 1),
		m:       m,
		k:       k,
		g:       g,
		regions: regions,
		seg:     (cfg.maxOffset - 1) / (regions - 1),
		wbar:    cfg.maxOffset,
		fam:     hashing.NewFamily(k+regions-1, cfg.seed),
		seed:    cfg.seed,
		sizes:   make([]int, g),
	}
	a.bits.SetCounter(cfg.counter)

	// Membership tables, one per set (the Section 4.1 T_i idea).
	tables := make([]*hashtable.Table, g)
	for i := range tables {
		tables[i] = hashtable.New(cfg.seed + uint64(i) + 1)
		for _, e := range sets[i] {
			tables[i].Put(e, 1)
		}
		a.sizes[i] = tables[i].Len()
	}

	// Encode each distinct element of the union once, under its region.
	seen := hashtable.New(cfg.seed + 100)
	for i := range tables {
		tables[i].Range(func(e []byte, _ uint64) bool {
			if seen.Contains(e) {
				return true
			}
			seen.Put(e, 1)
			region := 0
			for j := range tables {
				if tables[j].Contains(e) {
					region |= 1 << j
				}
			}
			d := a.fam.Digest(e)
			a.encode(d, a.offsetFor(d, region))
			return true
		})
	}
	return a, nil
}

// offsetFor returns region r's per-element offset for the element
// digested as d; region 1 ({set 0}) anchors at 0.
func (a *MultiAssociation) offsetFor(d hashing.Digest, region int) int {
	if region == 1 {
		return 0
	}
	// Regions 2..R map to segments 0..R−2 and offset mixers k..k+R−2.
	idx := region - 2
	h := a.fam.FromDigest(a.k+idx, d)
	return idx*a.seg + hashing.Reduce(h, a.seg) + 1
}

func (a *MultiAssociation) encode(d hashing.Digest, o int) {
	for i := 0; i < a.k; i++ {
		a.bits.Set(a.fam.ModFromDigest(i, d, a.m) + o)
	}
}

// G returns the number of sets; M, K the geometry; SetSize the distinct
// size of set i at build time.
func (a *MultiAssociation) G() int            { return a.g }
func (a *MultiAssociation) M() int            { return a.m }
func (a *MultiAssociation) K() int            { return a.k }
func (a *MultiAssociation) SetSize(i int) int { return a.sizes[i] }

// SizeBytes returns the bit-array footprint.
func (a *MultiAssociation) SizeBytes() int { return a.bits.SizeBytes() }

// HashOpsPerQuery returns k + R − 1.
func (a *MultiAssociation) HashOpsPerQuery() int { return a.k + a.regions - 1 }

// MultiAnswer is the candidate-region set of a multi-association query:
// bit r−1 set means region r (a subset mask of sets) survived all k
// windows.
type MultiAnswer struct {
	candidates uint32
	g          int
}

// Clear reports whether exactly one region remains.
func (ans MultiAnswer) Clear() bool {
	return ans.candidates != 0 && ans.candidates&(ans.candidates-1) == 0
}

// Empty reports no surviving region: the element is in none of the sets
// (definitely — the construction has no false negatives).
func (ans MultiAnswer) Empty() bool { return ans.candidates == 0 }

// Contains reports whether the region with set-mask truth survived.
func (ans MultiAnswer) Contains(truthMask int) bool {
	if truthMask < 1 {
		return false
	}
	return ans.candidates&(1<<(truthMask-1)) != 0
}

// Region returns the surviving region's set mask when Clear, else 0.
func (ans MultiAnswer) Region() int {
	if !ans.Clear() {
		return 0
	}
	return bits.TrailingZeros32(ans.candidates) + 1
}

// DefinitelyIn reports whether every surviving region includes set i —
// the element is certainly in that set.
func (ans MultiAnswer) DefinitelyIn(i int) bool {
	if ans.candidates == 0 || i < 0 || i >= ans.g {
		return false
	}
	rest := ans.candidates
	for rest != 0 {
		r := bits.TrailingZeros32(rest) + 1
		if r&(1<<i) == 0 {
			return false
		}
		rest &= rest - 1
	}
	return true
}

// Query returns the candidate regions for e. For elements of the union
// the true region always survives; overlapping sets are first-class.
// One digest pass serves the R−1 region offsets and the k base
// positions.
func (a *MultiAssociation) Query(e []byte) MultiAnswer {
	d := a.fam.Digest(e)
	// Offsets for every region (region 1 ↦ 0 handled in the loop).
	var offs [31]int
	for r := 2; r <= a.regions; r++ {
		offs[r-1] = a.offsetFor(d, r)
	}

	winMask := ^uint64(0) >> (64 - uint(a.wbar))
	cand := uint32(1)<<a.regions - 1
	read := 0
	for ; read < a.k && cand != 0; read++ {
		win := a.bits.WindowUncounted(a.fam.ModFromDigest(read, d, a.m), winMask)
		survived := uint32(win & 1) // region 1 at offset 0
		for r := 2; r <= a.regions; r++ {
			survived |= uint32(win>>uint(offs[r-1])&1) << (r - 1)
		}
		cand &= survived
	}
	if acc := a.bits.Counter(); acc != nil {
		billWindows(acc, a.fam, d, read, a.m, a.wbar)
	}
	return MultiAnswer{candidates: cand, g: a.g}
}
