package window

import (
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
	ring[core.Membership, *core.Membership]
}

// NewMembership builds the window from its Spec (Kind
// KindWindowMembership; M, K, MaxOffset and Seed describe each
// generation, Generations the ring length, Tick the rotation period).
// Total memory is Generations × one ShBF_M of M bits.
func NewMembership(spec core.Spec) (*Membership, error) {
	r, err := newRing(spec, core.KindWindowMembership, buildMembership)
	if err != nil {
		return nil, err
	}
	return &Membership{r}, nil
}

// buildMembership builds one generation of the spec's geometry.
func buildMembership(s core.Spec) (*core.Membership, error) {
	return core.NewMembership(s.M, s.K, s.Options()...)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing w's
// state (ring, head, epoch, tick) with the decoded window.
func (w *Membership) UnmarshalBinary(data []byte) error {
	return w.decode(data, core.KindWindowMembership, buildMembership)
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
	for i, d := range w.digests(keys) {
		dst[i] = w.ContainsDigest(d)
	}
	return dst
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

// MaxOffset returns the per-generation w̄.
func (w *Membership) MaxOffset() int { return w.rot.Head().MaxOffset() }

// N returns the total elements held across generations — an upper
// bound on the window's distinct cardinality, since a key re-added
// after a rotation is counted in each generation holding it.
func (w *Membership) N() int { return w.sum((*core.Membership).N) }

// Kind returns core.KindWindowMembership.
func (w *Membership) Kind() core.Kind { return core.KindWindowMembership }
