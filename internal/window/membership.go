package window

import (
	"time"

	"shbf/internal/core"
	"shbf/internal/hashing"
)

// Membership is the sliding-window membership filter: a generation
// ring of ShBF_M filters sharing one Spec. Add writes the head
// generation; Contains ORs the probe across every generation, newest
// first, so an element answers true for the G−1..G ticks after its
// last insertion and then expires. False positives follow the window
// bound 1 − (1−f)^G (analytic.FPRWindow) where f is one generation's
// Equation-1 rate. Not safe for concurrent use — see
// sharded.Window for the lock-striped composition.
type Membership struct {
	rot      *Rotator[*core.Membership]
	dscratch []hashing.Digest
}

// NewMembership builds the window from its Spec (Kind
// KindWindowMembership; M, K, MaxOffset and Seed describe each
// generation, Generations the ring length, Tick the rotation period).
// Total memory is Generations × one ShBF_M of M bits.
func NewMembership(spec core.Spec) (*Membership, error) {
	if err := checkSpec(spec, core.KindWindowMembership); err != nil {
		return nil, err
	}
	fresh := func() (*core.Membership, error) {
		return core.NewMembership(spec.M, spec.K, spec.Options()...)
	}
	// ShBF_M clears in place, so rotation generates no garbage.
	recycle := func(f *core.Membership) (*core.Membership, error) {
		f.Reset()
		return f, nil
	}
	rot, err := NewRotator(spec.Generations, spec.Tick, fresh, recycle)
	if err != nil {
		return nil, err
	}
	return &Membership{rot: rot}, nil
}

// Add inserts e into the head generation: e stays answerable until the
// generation holding it is retired, G rotations later.
func (w *Membership) Add(e []byte) {
	w.rot.Head().Add(e)
}

// AddDigest inserts the element whose one-pass digest is d; batch and
// sharded paths that already digested the key call this.
func (w *Membership) AddDigest(d hashing.Digest) {
	w.rot.Head().AddDigest(d)
}

// AddGroup inserts the element of every batch index j in idxs, whose
// digest is ds[j], into the head generation through its group kernel
// (core.Membership.AddGroup); sc is the caller's scratch.
func (w *Membership) AddGroup(idxs []int32, ds []hashing.Digest, sc *core.ProbeScratch) {
	w.rot.Head().AddGroup(idxs, ds, sc)
}

// Contains reports whether e may have been added within the window:
// one digest pass, then the cached digest probes each generation
// until one answers true. No false negatives for in-window elements.
func (w *Membership) Contains(e []byte) bool {
	return w.ContainsDigest(hashing.KeyDigest(e))
}

// ContainsDigest answers Contains for the element whose digest is d.
// Generations are probed newest-first — streaming workloads re-see
// live keys, so the head answers most positives in one generation's
// cost.
func (w *Membership) ContainsDigest(d hashing.Digest) bool {
	for age := 0; age < len(w.rot.gens); age++ {
		if w.rot.gens[w.rot.index(age)].ContainsDigest(d) {
			return true
		}
	}
	return false
}

// ContainsGroup answers ContainsDigest into dst[j] for every batch
// index j in idxs, whose digest is ds[j]: the group read of one
// shard's ring in the sharded composition. sc is unused; each key
// probes the ring newest-first.
func (w *Membership) ContainsGroup(dst []bool, idxs []int32, ds []hashing.Digest, _ *core.ProbeScratch) {
	for _, j := range idxs {
		dst[j] = w.ContainsDigest(ds[j])
	}
}

// AddAll inserts a whole batch into the head generation through the
// core filter's pipelined digest-then-encode path. The error is always
// nil (the signature matches the shared batch interface).
func (w *Membership) AddAll(keys [][]byte) error {
	return w.rot.Head().AddAll(keys)
}

// ContainsAll queries a whole batch: phase one digests every key once
// into the window's scratch, phase two fans each cached digest out
// across the ring. Answers land in dst (resized to len(keys));
// steady-state batches do not allocate.
func (w *Membership) ContainsAll(dst []bool, keys [][]byte) []bool {
	dst = resizeSlice(dst, len(keys))
	ds := digestAll(&w.dscratch, keys)
	for i, d := range ds {
		dst[i] = w.ContainsDigest(d)
	}
	return dst
}

// Rotate retires the oldest generation and recycles it (cleared, in
// place) as the new head. The error is always nil for the membership
// window; the signature matches the shared Windowed surface.
func (w *Membership) Rotate() error { return w.rot.Rotate() }

// RotateIfDue rotates once when the spec's Tick has elapsed since the
// last due rotation, reporting whether it did. See Rotator.RotateIfDue.
func (w *Membership) RotateIfDue(now time.Time) (bool, error) { return w.rot.RotateIfDue(now) }

// Window returns the rotation snapshot: ring length, epoch, tick, and
// per-generation occupancy newest to oldest.
func (w *Membership) Window() Info {
	return w.rot.info(func(f *core.Membership) GenInfo {
		return GenInfo{N: f.N(), FillRatio: f.FillRatio()}
	})
}

// ForEachGeneration calls fn for every generation in the ring, newest
// first. All generations share the head's construction Spec (geometry
// and seed), which is what lets the frozen encoder collapse the ring
// by ORing their bit arrays.
func (w *Membership) ForEachGeneration(fn func(g *core.Membership)) {
	for age := 0; age < len(w.rot.gens); age++ {
		fn(w.rot.gens[w.rot.index(age)])
	}
}

// M returns the per-generation base array size in bits.
func (w *Membership) M() int { return w.rot.Head().M() }

// K returns the bit positions per element.
func (w *Membership) K() int { return w.rot.Head().K() }

// MaxOffset returns the per-generation w̄.
func (w *Membership) MaxOffset() int { return w.rot.Head().MaxOffset() }

// Generations returns the ring length G.
func (w *Membership) Generations() int { return w.rot.Generations() }

// Epoch returns the number of completed rotations.
func (w *Membership) Epoch() uint64 { return w.rot.Epoch() }

// N returns the total elements held across generations — an upper
// bound on the window's distinct cardinality, since a key re-added
// after a rotation is counted in each generation holding it.
func (w *Membership) N() int {
	n := 0
	for _, g := range w.rot.gens {
		n += g.N()
	}
	return n
}

// SizeBytes returns the combined footprint of all generations.
func (w *Membership) SizeBytes() int {
	b := 0
	for _, g := range w.rot.gens {
		b += g.SizeBytes()
	}
	return b
}

// FillRatio returns the mean fill ratio across generations.
func (w *Membership) FillRatio() float64 {
	s := 0.0
	for _, g := range w.rot.gens {
		s += g.FillRatio()
	}
	return s / float64(len(w.rot.gens))
}

// Kind returns core.KindWindowMembership.
func (w *Membership) Kind() core.Kind { return core.KindWindowMembership }

// Spec returns the construction geometry; New(w.Spec()) builds an
// empty ring identical to w before any Add.
func (w *Membership) Spec() core.Spec {
	return windowSpec(w.rot.Head().Spec(), core.KindWindowMembership,
		w.rot.Generations(), w.rot.Tick())
}

// Stats returns the aggregate occupancy snapshot (N sums generations,
// FillRatio is their mean).
func (w *Membership) Stats() core.Stats {
	return core.Stats{
		Kind:      core.KindWindowMembership,
		N:         w.N(),
		SizeBytes: w.SizeBytes(),
		FillRatio: w.FillRatio(),
	}
}
