package window

import (
	"shbf/internal/core"
	"shbf/internal/hashing"
)

// Association is the sliding-window two-set association filter: a
// generation ring of CShBF_A filters. InsertS1/InsertS2 write the head
// generation; Query unions the candidate-region masks of every
// generation, so an element keeps its sound candidate set — never a
// wrong region — for as long as any generation remembers it, and a key
// seen in S1 during one tick and S2 during a later one reports both
// candidates, which is exactly the in-window truth. Not safe for
// concurrent use — see sharded.WindowAssociation.
type Association struct {
	ring[core.CountingAssociation, *core.CountingAssociation]
}

// NewAssociation builds the window from its Spec (Kind
// KindWindowAssociation; M, K, MaxOffset, CounterWidth and Seed
// describe each CShBF_A generation, Generations the ring length, Tick
// the rotation period).
func NewAssociation(spec core.Spec) (*Association, error) {
	r, err := newRing(spec, core.KindWindowAssociation, buildAssociation)
	if err != nil {
		return nil, err
	}
	return &Association{r}, nil
}

// buildAssociation builds one generation of the spec's geometry.
func buildAssociation(s core.Spec) (*core.CountingAssociation, error) {
	return core.NewCountingAssociation(s.M, s.K, s.Options()...)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing w's
// state with the decoded window.
func (w *Association) UnmarshalBinary(data []byte) error {
	return w.decode(data, core.KindWindowAssociation, buildAssociation)
}

// InsertS1 records e ∈ S1 in the head generation.
func (w *Association) InsertS1(e []byte) error { return w.rot.Head().InsertS1(e) }

// InsertS2 records e ∈ S2 in the head generation.
func (w *Association) InsertS2(e []byte) error { return w.rot.Head().InsertS2(e) }

// InsertS1Digest is InsertS1 for an already-digested key.
func (w *Association) InsertS1Digest(e []byte, d hashing.Digest) error {
	return w.rot.Head().InsertS1Digest(e, d)
}

// InsertS2Digest is InsertS2 for an already-digested key.
func (w *Association) InsertS2Digest(e []byte, d hashing.Digest) error {
	return w.rot.Head().InsertS2Digest(e, d)
}

// DeleteS1 removes e from S1 in the head generation — it undoes an
// in-tick insert; memberships that have rotated into older generations
// are immutable and expire with their generation. ErrNotStored if the
// head does not hold e in S1.
func (w *Association) DeleteS1(e []byte) error { return w.rot.Head().DeleteS1(e) }

// DeleteS2 removes e from S2 in the head generation; see DeleteS1.
func (w *Association) DeleteS2(e []byte) error { return w.rot.Head().DeleteS2(e) }

// DeleteS1Digest is DeleteS1 for an already-digested key.
func (w *Association) DeleteS1Digest(e []byte, d hashing.Digest) error {
	return w.rot.Head().DeleteS1Digest(e, d)
}

// DeleteS2Digest is DeleteS2 for an already-digested key.
func (w *Association) DeleteS2Digest(e []byte, d hashing.Digest) error {
	return w.rot.Head().DeleteS2Digest(e, d)
}

// Query returns the union of every generation's candidate-region mask
// for e: one digest pass, then the cached digest probes each
// generation. RegionNone means no generation holds e — a definite
// in-window non-member of both sets.
func (w *Association) Query(e []byte) core.Region {
	return w.QueryDigest(hashing.KeyDigest(e))
}

// QueryDigest answers Query for the element whose digest is d.
func (w *Association) QueryDigest(d hashing.Digest) core.Region {
	var r core.Region
	for _, g := range w.rot.gens {
		r |= g.QueryDigest(d)
	}
	return r
}

// QueryGroup answers QueryDigest into dst[j] for every batch index j
// in idxs, whose digest is ds[j]: the group read of one shard's ring
// in the sharded composition. sc is unused.
func (w *Association) QueryGroup(dst []core.Region, idxs []int32, ds []hashing.Digest, _ *core.ProbeScratch) {
	for _, j := range idxs {
		dst[j] = w.QueryDigest(ds[j])
	}
}

// QueryAll classifies a whole batch: keys are digested once into the
// window's scratch, then each cached digest unions across the ring.
// Masks land in dst (resized to len(keys)); steady-state batches do
// not allocate.
func (w *Association) QueryAll(dst []core.Region, keys [][]byte) []core.Region {
	dst = resizeSlice(dst, len(keys))
	for i, d := range w.digests(keys) {
		dst[i] = w.QueryDigest(d)
	}
	return dst
}

// MaxOffset returns the per-generation w̄.
func (w *Association) MaxOffset() int { return w.rot.Head().MaxOffset() }

// N1 returns the total S1 cardinality across generations (a key
// spanning rotations counts once per generation holding it).
func (w *Association) N1() int { return w.sum((*core.CountingAssociation).N1) }

// N2 returns the total S2 cardinality across generations.
func (w *Association) N2() int { return w.sum((*core.CountingAssociation).N2) }

// Kind returns core.KindWindowAssociation.
func (w *Association) Kind() core.Kind { return core.KindWindowAssociation }
