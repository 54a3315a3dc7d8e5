package core

import (
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
	assocQuery                  // B and the probe, shared with ShBF_A
	counted                     // C and the update steps
	sets       *hashtable.Table // element → inS1|inS2
	n1, n2     int
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
	q, err := newAssocQuery(m, k, cfg)
	if err != nil {
		return nil, err
	}
	return &CountingAssociation{
		assocQuery: q,
		counted:    counted{counts: counters.New(q.bits.Len(), cfg.counterWidth)},
		sets:       hashtable.New(cfg.seed + 1),
	}, nil
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
		a.add(a.bits, pos, toOff)
	}
	if from != RegionNone {
		a.remove(a.bits, pos, a.offsetFor(d, from))
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
