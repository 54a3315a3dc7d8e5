package window

import (
	"shbf/internal/core"
	"shbf/internal/hashing"
)

// Multiplicity is the sliding-window multiplicity filter: a generation
// ring of CShBF_X filters. Insert increments a key's count in the head
// generation; Count sums the key's count across every generation, so a
// flow's reported size is the number of in-window insertions — and,
// per generation, counts never underestimate (the paper's one-sided
// guarantee carries through the sum). Rotation retires the oldest
// tick's counts wholesale, which is how a streaming deployment keeps
// "packets in the last N minutes" instead of "packets ever". Not safe
// for concurrent use — see sharded.WindowMultiplicity.
type Multiplicity struct {
	ring[core.CountingMultiplicity, *core.CountingMultiplicity]
}

// NewMultiplicity builds the window from its Spec (Kind
// KindWindowMultiplicity; M, K, C, CounterWidth, UnsafeUpdates and
// Seed describe each CShBF_X generation, Generations the ring length,
// Tick the rotation period). C caps a key's count per generation, so
// the window-wide count is bounded by Generations × C.
func NewMultiplicity(spec core.Spec) (*Multiplicity, error) {
	r, err := newRing(spec, core.KindWindowMultiplicity, buildMultiplicity)
	if err != nil {
		return nil, err
	}
	return &Multiplicity{r}, nil
}

// buildMultiplicity builds one generation of the spec's geometry.
func buildMultiplicity(s core.Spec) (*core.CountingMultiplicity, error) {
	return core.NewCountingMultiplicity(s.M, s.K, s.C, s.Options()...)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing w's
// state with the decoded window.
func (w *Multiplicity) UnmarshalBinary(data []byte) error {
	return w.decode(data, core.KindWindowMultiplicity, buildMultiplicity)
}

// Insert increments e's count in the head generation. It returns
// ErrCountOverflow when the head-generation count would exceed c and
// ErrCounterSaturated when a counter would overflow; the window is
// unchanged on error.
func (w *Multiplicity) Insert(e []byte) error {
	return w.rot.Head().Insert(e)
}

// InsertDigest is Insert for a key whose one-pass digest d is already
// in hand (the key bytes are still needed for the head generation's
// backing table in the default no-false-negative mode).
func (w *Multiplicity) InsertDigest(e []byte, d hashing.Digest) error {
	return w.rot.Head().InsertDigest(e, d)
}

// Delete decrements e's count in the head generation — it undoes an
// in-tick insert. Counts that have rotated into older generations are
// immutable and expire with their generation; deleting a key absent
// from the head returns ErrNotStored.
func (w *Multiplicity) Delete(e []byte) error {
	return w.rot.Head().Delete(e)
}

// DeleteDigest is Delete for an already-digested key.
func (w *Multiplicity) DeleteDigest(e []byte, d hashing.Digest) error {
	return w.rot.Head().DeleteDigest(e, d)
}

// Count returns e's total in-window multiplicity: one digest pass,
// then the cached digest sums each generation's count. Never an
// underestimate (in the default update mode); 0 only for definite
// non-members of every generation.
func (w *Multiplicity) Count(e []byte) int {
	return w.CountDigest(hashing.KeyDigest(e))
}

// CountDigest answers Count for the element whose digest is d.
func (w *Multiplicity) CountDigest(d hashing.Digest) int {
	total := 0
	for _, g := range w.rot.gens {
		total += g.CountDigest(d)
	}
	return total
}

// CountGroup answers CountDigest into dst[j] for every batch index j
// in idxs, whose digest is ds[j]: the group read of one shard's ring
// in the sharded composition. sc is unused.
func (w *Multiplicity) CountGroup(dst []int, idxs []int32, ds []hashing.Digest, _ *core.ProbeScratch) {
	for _, j := range idxs {
		dst[j] = w.CountDigest(ds[j])
	}
}

// AddAll increments every key's count by one in the head generation,
// stopping at the first failed insert (earlier keys stay applied; the
// error reports the failing index).
func (w *Multiplicity) AddAll(keys [][]byte) error {
	return w.rot.Head().AddAll(keys)
}

// CountAll queries a whole batch: keys are digested once into the
// window's scratch, then each cached digest sums across the ring.
// Counts land in dst (resized to len(keys)); steady-state batches do
// not allocate.
func (w *Multiplicity) CountAll(dst []int, keys [][]byte) []int {
	dst = resizeSlice(dst, len(keys))
	for i, d := range w.digests(keys) {
		dst[i] = w.CountDigest(d)
	}
	return dst
}

// C returns the per-generation maximum multiplicity.
func (w *Multiplicity) C() int { return w.rot.Head().C() }

// N returns the total distinct elements held across generations (a key
// spanning rotations counts once per generation), or −1 when the
// generations run in the unsafe update mode, which tracks no exact
// set.
func (w *Multiplicity) N() int { return w.sum((*core.CountingMultiplicity).N) }

// Kind returns core.KindWindowMultiplicity.
func (w *Multiplicity) Kind() core.Kind { return core.KindWindowMultiplicity }
