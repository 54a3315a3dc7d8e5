package core

import (
	"fmt"

	"shbf/internal/bitvec"
	"shbf/internal/hashing"
	"shbf/internal/hashtable"
)

// Region identifies, as a bitmask, the parts of S1 ∪ S2 an element may
// belong to. The three atomic regions are mutually exclusive ground
// truths; query answers may contain several candidates (paper Section
// 4.2's outcomes 4–7).
type Region uint8

const (
	// RegionS1Only is S1 − S2 (offset 0 in the encoding).
	RegionS1Only Region = 1 << iota
	// RegionBoth is S1 ∩ S2 (offset o1).
	RegionBoth
	// RegionS2Only is S2 − S1 (offset o2).
	RegionS2Only

	// RegionNone means no candidate matched. For e ∈ S1 ∪ S2 this cannot
	// happen (the construction has no false negatives); for other
	// elements it is a definite "not in either set".
	RegionNone Region = 0
)

// String implements fmt.Stringer for region masks.
func (r Region) String() string {
	switch r {
	case RegionNone:
		return "∅"
	case RegionS1Only:
		return "S1−S2"
	case RegionBoth:
		return "S1∩S2"
	case RegionS2Only:
		return "S2−S1"
	case RegionS1Only | RegionBoth:
		return "S1 (S2 unsure)"
	case RegionS2Only | RegionBoth:
		return "S2 (S1 unsure)"
	case RegionS1Only | RegionS2Only:
		return "S1−S2 ∪ S2−S1"
	default:
		return "S1∪S2"
	}
}

// Clear reports whether the mask pins down exactly one atomic region —
// the paper's "clear answer" (outcomes 1–3 of Section 4.2).
func (r Region) Clear() bool {
	return r == RegionS1Only || r == RegionBoth || r == RegionS2Only
}

// InS1 reports whether every candidate region lies inside S1, i.e. the
// element is definitely in S1 (outcomes 1, 2 and 4).
func (r Region) InS1() bool {
	return r != RegionNone && r&RegionS2Only == 0
}

// InS2 reports whether every candidate region lies inside S2 (outcomes
// 2, 3 and 5).
func (r Region) InS2() bool {
	return r != RegionNone && r&RegionS1Only == 0
}

// Contains reports whether the atomic region truth is among the
// candidates.
func (r Region) Contains(truth Region) bool { return r&truth != 0 }

// Association is ShBF_A, the shifting Bloom filter for association
// queries over two sets S1 and S2 (paper Section 4). One m-bit array
// encodes every element of S1 ∪ S2 exactly once, with its region
// carried by the offset:
//
//	e ∈ S1−S2: o(e) = 0
//	e ∈ S1∩S2: o(e) = o1(e) = h_{k+1}(e) % ((w̄−1)/2) + 1
//	e ∈ S2−S1: o(e) = o2(e) = o1(e) + h_{k+2}(e) % ((w̄−1)/2) + 1
//
// A query reads, for each of the k base positions, the three bits at
// offsets {0, o1(e), o2(e)} — all inside one w̄-bit window, hence k
// memory accesses and k+2 hash computations per query versus iBF's 2k
// and 2k (paper Table 2). Unlike iBF, ShBF_A never returns a wrong
// region: its seven outcomes are all sound, merely sometimes incomplete
// (Section 4.2).
type Association struct {
	assocQuery
	n1, n2 int // |S1|, |S2| distinct
	nBoth  int // |S1 ∩ S2|
}

// assocQuery is the query side ShBF_A and CShBF_A share: the bit array
// B, its geometry and hash family, the region offsets and the probe.
type assocQuery struct {
	bits      *bitvec.Vector
	m         int
	k         int
	wbar      int
	halfRange int    // (w̄−1)/2, the range of each offset component
	winMask   uint64 // precomputed w̄-bit window mask for the uncounted read
	fam       *hashing.Family
	seed      uint64
}

// newAssocQuery checks ShBF_A's geometry and returns its query side
// over an empty (m+w̄−1)-bit B, with cfg's access counter attached.
func newAssocQuery(m, k int, cfg config) (assocQuery, error) {
	if m <= 0 {
		return assocQuery{}, fmt.Errorf("core: m = %d must be positive", m)
	}
	if k < 1 {
		return assocQuery{}, fmt.Errorf("core: k = %d must be ≥ 1", k)
	}
	if cfg.maxOffset < 3 || cfg.maxOffset > 64 {
		return assocQuery{}, fmt.Errorf("core: max offset w̄ = %d out of range [3,64] (association needs two offset components)", cfg.maxOffset)
	}
	q := assocQuery{
		bits:      bitvec.New(m + cfg.maxOffset - 1),
		m:         m,
		k:         k,
		wbar:      cfg.maxOffset,
		halfRange: (cfg.maxOffset - 1) / 2,
		winMask:   ^uint64(0) >> (64 - uint(cfg.maxOffset)),
		fam:       hashing.NewFamily(k+2, cfg.seed),
		seed:      cfg.seed,
	}
	q.bits.SetCounter(cfg.counter)
	return q, nil
}

// BuildAssociation constructs ShBF_A from the two sets. Duplicates
// within each input slice are ignored (the construction hash tables T1
// and T2 deduplicate, Section 4.1). The sets need not be disjoint —
// handling overlap is the point of the scheme.
func BuildAssociation(s1, s2 [][]byte, m, k int, opts ...Option) (*Association, error) {
	cfg, err := buildConfig(KindAssociation, opts)
	if err != nil {
		return nil, err
	}
	q, err := newAssocQuery(m, k, cfg)
	if err != nil {
		return nil, err
	}
	a := &Association{assocQuery: q}

	// Step 1 (Section 4.1): hash tables over the raw sets.
	t1 := hashtable.New(cfg.seed + 1)
	for _, e := range s1 {
		t1.Put(e, 1)
	}
	t2 := hashtable.New(cfg.seed + 2)
	for _, e := range s2 {
		t2.Put(e, 1)
	}
	a.n1, a.n2 = t1.Len(), t2.Len()

	// Step 2: elements of S1 — offset 0 if exclusive, o1 if shared.
	// Each element is digested once; region offset and the k positions
	// all derive from that digest.
	t1.Range(func(e []byte, _ uint64) bool {
		d := a.fam.Digest(e)
		o := 0
		if t2.Contains(e) {
			o = a.offset1(d)
			a.nBoth++
		}
		a.encode(d, o)
		return true
	})

	// Step 3: elements of S2 not already stored via S1 — offset o2.
	t2.Range(func(e []byte, _ uint64) bool {
		if t1.Contains(e) {
			return true // already encoded with o1
		}
		d := a.fam.Digest(e)
		a.encode(d, a.offset2(d))
		return true
	})
	return a, nil
}

// offset1 computes o1(e) ∈ [1, (w̄−1)/2] from e's digest.
func (q *assocQuery) offset1(d hashing.Digest) int {
	return hashing.Reduce(q.fam.FromDigest(q.k, d), q.halfRange) + 1
}

// offset2 computes o2(e) = o1(e) + h_{k+2}(e)%((w̄−1)/2) + 1 ∈ [2, w̄−1].
func (q *assocQuery) offset2(d hashing.Digest) int {
	return q.offset1(d) + hashing.Reduce(q.fam.FromDigest(q.k+1, d), q.halfRange) + 1
}

// encode sets the k bits B[h_i(e)%m + o] for the element digested as d.
func (a *Association) encode(d hashing.Digest, o int) {
	for i := 0; i < a.k; i++ {
		a.bits.Set(a.fam.ModFromDigest(i, d, a.m) + o)
	}
}

// M, K and MaxOffset report the construction parameters.
func (q *assocQuery) M() int         { return q.m }
func (q *assocQuery) K() int         { return q.k }
func (q *assocQuery) MaxOffset() int { return q.wbar }

// FillRatio returns the fraction of set bits in B.
func (q *assocQuery) FillRatio() float64 { return q.bits.FillRatio() }

// N1, N2 and NBoth report the distinct set sizes observed at build
// time.
func (a *Association) N1() int    { return a.n1 }
func (a *Association) N2() int    { return a.n2 }
func (a *Association) NBoth() int { return a.nBoth }

// NDistinct returns n′ = |S1 ∪ S2|, the quantity the paper sizes m by
// (m = n′·k/ln 2 at the optimum, Table 2).
func (a *Association) NDistinct() int { return a.n1 + a.n2 - a.nBoth }

// SizeBytes returns the bit-array footprint.
func (a *Association) SizeBytes() int { return a.bits.SizeBytes() }

// Query returns the candidate-region mask for e. For e ∈ S1 ∪ S2 the
// true region is always among the candidates (no false negatives) and
// any of the seven Section 4.2 outcomes may be returned; for other
// elements RegionNone may additionally be returned. One digest pass,
// then each of the ≤ k window reads costs one mix and one memory
// access and checks all three offsets at once; the scan stops early
// once no candidate survives.
func (q *assocQuery) Query(e []byte) Region {
	return q.QueryDigest(q.fam.Digest(e))
}

// QueryDigest answers Query for the element whose digest is d.
func (q *assocQuery) QueryDigest(d hashing.Digest) Region {
	cand, read := q.probe(d)
	if acc := q.bits.Counter(); acc != nil {
		billWindows(acc, q.fam, d, read, q.m, q.wbar)
	}
	return cand
}

// probe reads d's windows until no candidate survives, and returns the
// candidates and how many windows it read.
func (q *assocQuery) probe(d hashing.Digest) (Region, int) {
	o1 := q.offset1(d)
	o2 := o1 + hashing.Reduce(q.fam.FromDigest(q.k+1, d), q.halfRange) + 1
	fam, bits, m, winMask := q.fam, q.bits, q.m, q.winMask
	cand := RegionS1Only | RegionBoth | RegionS2Only
	i := 0
	for k := q.k; i < k && cand != RegionNone; i++ {
		win := bits.WindowUncounted(fam.ModFromDigest(i, d, m), winMask)
		// Branchless candidate pruning: surviving regions are exactly
		// those whose offset bit is set in the window (the bit tests are
		// data-dependent 50/50 coin flips at the optimal fill, so
		// branching on them would mispredict constantly).
		survived := Region(win&1) |
			Region(win>>uint(o1)&1)<<1 |
			Region(win>>uint(o2)&1)<<2
		cand &= survived
	}
	return cand, i
}

// HashOpsPerQuery returns k+2, the paper's Table 2 hashing budget.
func (a *Association) HashOpsPerQuery() int { return a.k + 2 }
