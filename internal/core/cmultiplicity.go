package core

import (
	"shbf/internal/counters"
	"shbf/internal/hashing"
	"shbf/internal/hashtable"
	"shbf/internal/memmodel"
)

// CountingMultiplicity is CShBF_X (paper Section 5.3): an updatable
// ShBF_X. It maintains the query-side bit array B, a counter array C of
// the same length, and — in the default no-false-negative mode of
// Section 5.3.2 (Figure 5) — an off-chip hash table holding each
// element's exact count.
//
// An insert of e moves its encoding from multiplicity z to z+1: the k
// counters at h_i(e)%m + z−1 are decremented (bits cleared on zero) and
// the k counters at h_i(e)%m + z incremented (bits set). Deletes move
// z to z−1 symmetrically. "One element with multiple multiplicities is
// always inserted into the filter one time" (Section 5.3.1) — exactly k
// bits encode e no matter how large its count.
//
// With WithUnsafeUpdates the current multiplicity z is learned by
// querying B instead of the hash table (Section 5.3.1). A false
// positive on that query makes the update decrement counters that
// belong to other elements, which can clear their bits and introduce
// false negatives — the failure mode the paper warns about and the
// reason 5.3.2 exists. The mode is kept for the ablation experiment.
type CountingMultiplicity struct {
	multQuery                  // B and the probe, shared with ShBF_X
	counted                    // C and the update steps
	table     *hashtable.Table // nil in unsafe mode
}

// NewCountingMultiplicity returns an empty CShBF_X for counts in [1, c].
func NewCountingMultiplicity(m, k, c int, opts ...Option) (*CountingMultiplicity, error) {
	cfg, err := buildConfig(KindCountingMultiplicity, opts)
	if err != nil {
		return nil, err
	}
	q, err := newMultQuery(m, k, c, cfg)
	if err != nil {
		return nil, err
	}
	f := &CountingMultiplicity{
		multQuery: q,
		counted:   counted{counts: counters.New(q.bits.Len(), cfg.counterWidth)},
	}
	if !cfg.unsafeUpdate {
		f.table = hashtable.New(cfg.seed + 3)
	}
	return f, nil
}

// SetUpdateCounter attaches a memory-access counter to the off-chip
// structures (counter array and hash table), reproducing the paper's
// on-chip/off-chip accounting of Figure 5.
func (f *CountingMultiplicity) SetUpdateCounter(mc *memmodel.Counter) {
	f.counts.SetCounter(mc)
	if f.table != nil {
		f.table.SetCounter(mc)
	}
}

// Unsafe reports whether the filter runs in the Section 5.3.1 mode.
func (f *CountingMultiplicity) Unsafe() bool { return f.table == nil }

// Insert increments e's multiplicity. It returns ErrCountOverflow when
// the multiplicity would exceed c, and ErrCounterSaturated when a
// counter in C would overflow; in both cases the filter is unchanged.
func (f *CountingMultiplicity) Insert(e []byte) error {
	return f.InsertDigest(e, f.fam.Digest(e))
}

// InsertDigest is Insert for a caller that already digested e (the
// sharded layer). d must be e's hashing.KeyDigest; the raw key is
// still needed for the backing hash table, which is probed once.
func (f *CountingMultiplicity) InsertDigest(e []byte, d hashing.Digest) error {
	if f.table == nil {
		return f.move(d, f.CountDigest(d), 1)
	}
	slot := f.table.Lookup(e, d)
	z := int(f.table.Value(slot))
	if err := f.move(d, z, 1); err != nil {
		return err
	}
	f.table.Store(slot, e, uint64(z+1))
	return nil
}

// Delete decrements e's multiplicity, returning ErrNotStored if e's
// current encoding is not present.
func (f *CountingMultiplicity) Delete(e []byte) error {
	return f.DeleteDigest(e, f.fam.Digest(e))
}

// DeleteDigest is Delete for an already digested key.
func (f *CountingMultiplicity) DeleteDigest(e []byte, d hashing.Digest) error {
	if f.table == nil {
		return f.move(d, f.CountDigest(d), -1)
	}
	slot := f.table.Lookup(e, d)
	z := int(f.table.Value(slot))
	if err := f.move(d, z, -1); err != nil {
		return err
	}
	if z == 1 {
		f.table.Remove(slot)
	} else {
		f.table.Store(slot, e, uint64(z-1))
	}
	return nil
}

// move re-encodes the element digested as d from multiplicity z to
// z+step (step ±1), z being the multiplicity the update path sees:
// exact from the hash table in safe mode, queried from B in unsafe
// mode. It decrements the k counters of multiplicity z (clearing bits
// that reach zero), then increments those of z+step (setting bits);
// the positions are computed once. It fails with the filter unchanged
// on overflow, on deleting an absent element, and on a saturated
// destination counter. In unsafe mode a false-positive z decrements
// counters owned by other elements — the documented false-negative
// mechanism.
func (f *CountingMultiplicity) move(d hashing.Digest, z, step int) error {
	switch {
	case step > 0 && z+1 > f.c:
		return ErrCountOverflow
	case step < 0 && z == 0:
		return ErrNotStored
	}
	pos := f.positions(f.fam, d, f.k, f.m)
	to := z + step
	if to > 0 && f.full(pos, to-1) {
		return ErrCounterSaturated
	}
	if z > 0 {
		f.remove(f.bits, pos, z-1)
	}
	if to > 0 {
		f.add(f.bits, pos, to-1)
	}
	return nil
}

// ExactCount returns e's true multiplicity from the backing hash table.
// It panics in unsafe mode, which keeps no table — callers choosing
// 5.3.1 semantics explicitly gave up exact counts.
func (f *CountingMultiplicity) ExactCount(e []byte) int {
	if f.table == nil {
		panic("core: ExactCount unavailable with unsafe updates (Section 5.3.1 mode)")
	}
	v, _ := f.table.Get(e)
	return int(v)
}

// SizeBytes returns the combined footprint of B and C (the hash table is
// reported separately by design: the paper stores it off-chip).
func (f *CountingMultiplicity) SizeBytes() int {
	return f.bits.SizeBytes() + f.counts.SizeBytes()
}
