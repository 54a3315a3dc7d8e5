package window

import (
	"time"

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
	rot      *Rotator[*core.CountingMultiplicity]
	dscratch []hashing.Digest
}

// NewMultiplicity builds the window from its Spec (Kind
// KindWindowMultiplicity; M, K, C, CounterWidth, UnsafeUpdates and
// Seed describe each CShBF_X generation, Generations the ring length,
// Tick the rotation period). C caps a key's count per generation, so
// the window-wide count is bounded by Generations × C.
func NewMultiplicity(spec core.Spec) (*Multiplicity, error) {
	if err := checkSpec(spec, core.KindWindowMultiplicity); err != nil {
		return nil, err
	}
	fresh := func() (*core.CountingMultiplicity, error) {
		return core.NewCountingMultiplicity(spec.M, spec.K, spec.C, spec.Options()...)
	}
	// CShBF_X (bits + counters + backing table) has no in-place Reset;
	// a retired generation is rebuilt from spec. One rebuild per tick
	// is cold-path work.
	recycle := func(*core.CountingMultiplicity) (*core.CountingMultiplicity, error) {
		return fresh()
	}
	rot, err := NewRotator(spec.Generations, spec.Tick, fresh, recycle)
	if err != nil {
		return nil, err
	}
	return &Multiplicity{rot: rot}, nil
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
	ds := digestAll(&w.dscratch, keys)
	for i, d := range ds {
		dst[i] = w.CountDigest(d)
	}
	return dst
}

// Rotate retires the oldest generation's counts and installs a fresh
// head generation. Rebuilding the generation can only fail on
// exhausted memory.
func (w *Multiplicity) Rotate() error { return w.rot.Rotate() }

// RotateIfDue rotates once when the spec's Tick has elapsed since the
// last due rotation, reporting whether it did. See Rotator.RotateIfDue.
func (w *Multiplicity) RotateIfDue(now time.Time) (bool, error) { return w.rot.RotateIfDue(now) }

// Window returns the rotation snapshot: ring length, epoch, tick, and
// per-generation occupancy newest to oldest.
func (w *Multiplicity) Window() Info {
	return w.rot.info(func(f *core.CountingMultiplicity) GenInfo {
		return GenInfo{N: f.N(), FillRatio: f.FillRatio()}
	})
}

// M returns the per-generation base array size in bits.
func (w *Multiplicity) M() int { return w.rot.Head().M() }

// K returns the bit positions per element.
func (w *Multiplicity) K() int { return w.rot.Head().K() }

// C returns the per-generation maximum multiplicity.
func (w *Multiplicity) C() int { return w.rot.Head().C() }

// Generations returns the ring length G.
func (w *Multiplicity) Generations() int { return w.rot.Generations() }

// Epoch returns the number of completed rotations.
func (w *Multiplicity) Epoch() uint64 { return w.rot.Epoch() }

// N returns the total distinct elements held across generations (a key
// spanning rotations counts once per generation), or −1 when the
// generations run in the unsafe update mode, which tracks no exact
// set.
func (w *Multiplicity) N() int {
	total := 0
	for _, g := range w.rot.gens {
		n := g.N()
		if n < 0 {
			return -1
		}
		total += n
	}
	return total
}

// SizeBytes returns the combined footprint of all generations.
func (w *Multiplicity) SizeBytes() int {
	b := 0
	for _, g := range w.rot.gens {
		b += g.SizeBytes()
	}
	return b
}

// FillRatio returns the mean query-array fill ratio across
// generations.
func (w *Multiplicity) FillRatio() float64 {
	s := 0.0
	for _, g := range w.rot.gens {
		s += g.FillRatio()
	}
	return s / float64(len(w.rot.gens))
}

// Kind returns core.KindWindowMultiplicity.
func (w *Multiplicity) Kind() core.Kind { return core.KindWindowMultiplicity }

// Spec returns the construction geometry; New(w.Spec()) builds an
// empty ring identical to w before any Insert.
func (w *Multiplicity) Spec() core.Spec {
	return windowSpec(w.rot.Head().Spec(), core.KindWindowMultiplicity,
		w.rot.Generations(), w.rot.Tick())
}

// Stats returns the aggregate occupancy snapshot (N sums generations,
// FillRatio is their mean).
func (w *Multiplicity) Stats() core.Stats {
	return core.Stats{
		Kind:      core.KindWindowMultiplicity,
		N:         w.N(),
		SizeBytes: w.SizeBytes(),
		FillRatio: w.FillRatio(),
	}
}
