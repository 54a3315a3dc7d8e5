package core

import (
	"fmt"

	"shbf/internal/bitvec"
	"shbf/internal/counters"
	"shbf/internal/hashing"
	"shbf/internal/hashtable"
	"shbf/internal/memmodel"
)

// CountingAssociation is CShBF_A (paper Section 4.3): a dynamically
// updatable ShBF_A. It maintains the membership hash tables T1 and T2
// (off-chip, as in the construction phase of Section 4.1), an array C of
// counters, and the query-side bit array B, synchronized after every
// update. T1 and T2 are kept as one table whose value holds an
// element's S1 and S2 membership bits, so an update finds the element's
// region with a single probe and each element is stored once; snapshots
// still write T1's key list and then T2's.
//
// The paper describes inserts/deletes as "after querying T1 and T2 and
// determining whether o(e) = 0, o1(e), or o2(e), increment/decrement the
// corresponding k counters". When an update moves an element between
// regions — e.g. inserting into S2 an element already in S1 moves it
// from S1−S2 to S1∩S2 — the old region's encoding must be removed and
// the new one added; CountingAssociation completes the paper's sketch
// with exactly that re-encoding.
type CountingAssociation struct {
	counted                    // B, C and the update steps
	sets      *hashtable.Table // element → inS1|inS2
	n1, n2    int
	m         int
	k         int
	wbar      int
	halfRange int
	winMask   uint64 // precomputed w̄-bit window mask for the uncounted read
	fam       *hashing.Family
	seed      uint64
}

// Membership bits of a sets value.
const (
	inS1 = 1
	inS2 = 2
)

// NewCountingAssociation returns an empty updatable association filter.
func NewCountingAssociation(m, k int, opts ...Option) (*CountingAssociation, error) {
	cfg, err := buildConfig(KindCountingAssociation, opts)
	if err != nil {
		return nil, err
	}
	if m <= 0 {
		return nil, fmt.Errorf("core: m = %d must be positive", m)
	}
	if k < 1 {
		return nil, fmt.Errorf("core: k = %d must be ≥ 1", k)
	}
	if cfg.maxOffset < 3 || cfg.maxOffset > 64 {
		return nil, fmt.Errorf("core: max offset w̄ = %d out of range [3,64]", cfg.maxOffset)
	}
	total := m + cfg.maxOffset - 1
	a := &CountingAssociation{
		counted:   counted{bits: bitvec.New(total), counts: counters.New(total, cfg.counterWidth)},
		sets:      hashtable.New(cfg.seed + 1),
		m:         m,
		k:         k,
		wbar:      cfg.maxOffset,
		halfRange: (cfg.maxOffset - 1) / 2,
		winMask:   ^uint64(0) >> (64 - uint(cfg.maxOffset)),
		fam:       hashing.NewFamily(k+2, cfg.seed),
		seed:      cfg.seed,
	}
	a.bits.SetCounter(cfg.counter)
	return a, nil
}

// SetUpdateCounter attaches a memory-access counter to the off-chip
// counter array C.
func (a *CountingAssociation) SetUpdateCounter(mc *memmodel.Counter) {
	a.counts.SetCounter(mc)
}

// N1, N2 report the current distinct sizes of S1 and S2.
func (a *CountingAssociation) N1() int { return a.n1 }
func (a *CountingAssociation) N2() int { return a.n2 }

// InsertS1 adds e to S1 (no-op if already present), re-encoding e's
// region if it changed. ErrCounterSaturated is returned if a counter
// would overflow; the filter is left unchanged in that case.
func (a *CountingAssociation) InsertS1(e []byte) error {
	return a.InsertS1Digest(e, a.fam.Digest(e))
}

// InsertS1Digest is InsertS1 for a caller that already digested e
// (the sharded layer, which routed on the digest). d must be e's
// hashing.KeyDigest; the raw key is still needed for the membership
// table.
func (a *CountingAssociation) InsertS1Digest(e []byte, d hashing.Digest) error {
	return a.update(e, d, inS1, true)
}

// InsertS2 adds e to S2 (no-op if already present).
func (a *CountingAssociation) InsertS2(e []byte) error {
	return a.InsertS2Digest(e, a.fam.Digest(e))
}

// InsertS2Digest is InsertS2 for an already digested key.
func (a *CountingAssociation) InsertS2Digest(e []byte, d hashing.Digest) error {
	return a.update(e, d, inS2, true)
}

// DeleteS1 removes e from S1, returning ErrNotStored if absent.
func (a *CountingAssociation) DeleteS1(e []byte) error {
	return a.DeleteS1Digest(e, a.fam.Digest(e))
}

// DeleteS1Digest is DeleteS1 for an already digested key.
func (a *CountingAssociation) DeleteS1Digest(e []byte, d hashing.Digest) error {
	return a.update(e, d, inS1, false)
}

// DeleteS2 removes e from S2, returning ErrNotStored if absent.
func (a *CountingAssociation) DeleteS2(e []byte) error {
	return a.DeleteS2Digest(e, a.fam.Digest(e))
}

// DeleteS2Digest is DeleteS2 for an already digested key.
func (a *CountingAssociation) DeleteS2Digest(e []byte, d hashing.Digest) error {
	return a.update(e, d, inS2, false)
}

// update sets (insert) or clears e's membership bit with one table
// probe, then re-encodes e for its new region: increment the new
// offset's k counters (setting bits), then decrement the old offset's
// (clearing bits that reach zero). All positions derive from the
// single digest d and are computed once. A saturated counter fails the
// update before anything changes.
func (a *CountingAssociation) update(e []byte, d hashing.Digest, bit uint64, insert bool) error {
	slot := a.sets.Lookup(e, d)
	old := a.sets.Value(slot)
	next := old | bit
	switch {
	case insert && old&bit != 0:
		return nil // already a member
	case !insert && old&bit == 0:
		return ErrNotStored
	case !insert:
		next = old &^ bit
	}
	pos := a.positions(a.fam, d, a.k, a.m)
	to, from := regionOf(next), regionOf(old)
	var toOff int
	if to != RegionNone {
		if toOff = a.offsetFor(d, to); a.full(pos, toOff) {
			return ErrCounterSaturated
		}
	}
	if to != RegionNone {
		a.add(pos, toOff)
	}
	if from != RegionNone {
		a.remove(pos, a.offsetFor(d, from))
	}
	if next == 0 {
		a.sets.Remove(slot)
	} else {
		a.sets.Store(slot, e, next)
	}
	a.count(old, -1)
	a.count(next, 1)
	return nil
}

// count adds delta to the set sizes a sets value contributes to.
func (a *CountingAssociation) count(v uint64, delta int) {
	if v&inS1 != 0 {
		a.n1 += delta
	}
	if v&inS2 != 0 {
		a.n2 += delta
	}
}

// regionOf maps a sets value to e's atomic region.
func regionOf(v uint64) Region {
	switch v {
	case inS1 | inS2:
		return RegionBoth
	case inS1:
		return RegionS1Only
	case inS2:
		return RegionS2Only
	default:
		return RegionNone
	}
}

// offsetFor maps an atomic region to its encoding offset for the
// element digested as d.
func (a *CountingAssociation) offsetFor(d hashing.Digest, r Region) int {
	switch r {
	case RegionS1Only:
		return 0
	case RegionBoth:
		return a.offset1(d)
	default: // RegionS2Only
		return a.offset2(d)
	}
}

func (a *CountingAssociation) offset1(d hashing.Digest) int {
	return hashing.Reduce(a.fam.FromDigest(a.k, d), a.halfRange) + 1
}

func (a *CountingAssociation) offset2(d hashing.Digest) int {
	return a.offset1(d) + hashing.Reduce(a.fam.FromDigest(a.k+1, d), a.halfRange) + 1
}

// Query returns the candidate-region mask for e from the bit array B,
// with the same semantics as Association.Query.
func (a *CountingAssociation) Query(e []byte) Region {
	return a.QueryDigest(a.fam.Digest(e))
}

// QueryDigest answers Query for the element whose digest is d. Two
// loops, one semantics, as in Membership.ContainsDigest: the inlinable
// uncounted window read when no access counter is attached, the counted
// Window otherwise. Keep the loop bodies in lockstep.
func (a *CountingAssociation) QueryDigest(d hashing.Digest) Region {
	o1 := a.offset1(d)
	o2 := o1 + hashing.Reduce(a.fam.FromDigest(a.k+1, d), a.halfRange) + 1
	if a.bits.Counter() != nil {
		return a.queryDigestCounted(d, o1, o2)
	}
	fam, bits, m, winMask := a.fam, a.bits, a.m, a.winMask
	cand := RegionS1Only | RegionBoth | RegionS2Only
	for i, k := 0, a.k; i < k && cand != RegionNone; i++ {
		win := bits.WindowUncounted(fam.ModFromDigest(i, d, m), winMask)
		// Branchless pruning; see Association.Query.
		survived := Region(win&1) |
			Region(win>>uint(o1)&1)<<1 |
			Region(win>>uint(o2)&1)<<2
		cand &= survived
	}
	return cand
}

func (a *CountingAssociation) queryDigestCounted(d hashing.Digest, o1, o2 int) Region {
	cand := RegionS1Only | RegionBoth | RegionS2Only
	for i := 0; i < a.k && cand != RegionNone; i++ {
		win := a.bits.Window(a.fam.ModFromDigest(i, d, a.m), a.wbar)
		survived := Region(win&1) |
			Region(win>>uint(o1)&1)<<1 |
			Region(win>>uint(o2)&1)<<2
		cand &= survived
	}
	return cand
}
