package sharded

import (
	"shbf/internal/core"
	"shbf/internal/hashing"
)

// Association is a concurrency-safe sharded CShBF_A: one logical
// two-set association filter whose bit budget is split across routed
// shards, each an independent updatable core.CountingAssociation.
// Because every element lives in exactly one shard, region semantics
// are unchanged — a query consults exactly the shard that encoded the
// element.
type Association struct {
	set set[*core.CountingAssociation]
}

// AssociationShardStat reports one association shard's occupancy.
type AssociationShardStat struct {
	// Bits is the shard filter's base array size m.
	Bits int
	// K is the bit positions per element.
	K int
	// MaxOffset is the shard filter's w̄.
	MaxOffset int
	// N1, N2 are the distinct set sizes routed to this shard.
	N1, N2 int
	// FillRatio is the fraction of set bits.
	FillRatio float64
}

// NewAssociation returns an updatable association filter with totalBits
// split across shardCount shards (rounded up to a power of two).
// Options are forwarded to each shard's constructor; shards receive
// distinct derived seeds.
func NewAssociation(totalBits, k, shardCount int, opts ...core.Option) (*Association, error) {
	if err := core.CheckOptions(core.KindShardedAssociation, opts...); err != nil {
		return nil, err
	}
	pow, perShard, err := roundPow2(totalBits, shardCount)
	if err != nil {
		return nil, err
	}
	base := core.ResolveSeed(opts...)
	s, err := newSet(pow, func(i int) (*core.CountingAssociation, error) {
		return core.NewCountingAssociation(perShard, k, append(opts, core.WithSeed(shardSeed(base, i)))...)
	})
	if err != nil {
		return nil, err
	}
	return &Association{set: s}, nil
}

// Shards returns the number of shards.
func (a *Association) Shards() int { return a.set.size() }

// update digests e once, routes on the digest, and runs op on e's
// shard under its write lock with the same digest.
func (a *Association) update(e []byte, op func(*core.CountingAssociation, []byte, hashing.Digest) error) error {
	d := hashing.KeyDigest(e)
	s := a.set.forDigest(d)
	s.mu.Lock()
	err := op(s.f, e, d)
	s.mu.Unlock()
	return err
}

// InsertS1 adds e to S1 (no-op if already present). Safe for concurrent
// use.
func (a *Association) InsertS1(e []byte) error {
	return a.update(e, (*core.CountingAssociation).InsertS1Digest)
}

// InsertS2 adds e to S2 (no-op if already present). Safe for concurrent
// use.
func (a *Association) InsertS2(e []byte) error {
	return a.update(e, (*core.CountingAssociation).InsertS2Digest)
}

// DeleteS1 removes e from S1; ErrNotStored if absent. Safe for
// concurrent use.
func (a *Association) DeleteS1(e []byte) error {
	return a.update(e, (*core.CountingAssociation).DeleteS1Digest)
}

// DeleteS2 removes e from S2; ErrNotStored if absent. Safe for
// concurrent use.
func (a *Association) DeleteS2(e []byte) error {
	return a.update(e, (*core.CountingAssociation).DeleteS2Digest)
}

// Query returns e's candidate-region mask with a single hash pass
// (digest → route → probe). Safe for concurrent use; readers do not
// block each other.
func (a *Association) Query(e []byte) core.Region {
	d := hashing.KeyDigest(e)
	s := a.set.forDigest(d)
	s.mu.RLock()
	r := s.f.QueryDigest(d)
	s.mu.RUnlock()
	return r
}

// QueryAll classifies a whole batch, grouping keys by shard so each
// shard's read lock is taken once per batch instead of once per key;
// each key is digested once for both routing and probing. Region masks
// are written into dst (resized to len(keys)) at the keys' original
// positions. Safe for concurrent use.
func (a *Association) QueryAll(dst []core.Region, keys [][]byte) []core.Region {
	return batchRead(&a.set, dst, keys, (*core.CountingAssociation).QueryGroup)
}

// Kind returns core.KindShardedAssociation.
func (a *Association) Kind() core.Kind { return core.KindShardedAssociation }

// Spec returns the construction geometry (see Filter.Spec for the base
// seed recovery).
func (a *Association) Spec() core.Spec {
	inner := a.set.shards[0].f.Spec()
	return core.Spec{
		Kind:         core.KindShardedAssociation,
		M:            inner.M * a.set.size(),
		K:            inner.K,
		MaxOffset:    inner.MaxOffset,
		CounterWidth: inner.CounterWidth,
		Shards:       a.set.size(),
		Seed:         inner.Seed - 1,
	}
}

// Stats returns the aggregate occupancy snapshot; N sums the two set
// sizes.
func (a *Association) Stats() core.Stats {
	return core.Stats{
		Kind:      core.KindShardedAssociation,
		N:         a.N1() + a.N2(),
		SizeBytes: a.SizeBytes(),
		FillRatio: a.FillRatio(),
		Shards:    a.set.size(),
	}
}

// N1 returns the total distinct size of S1 across shards.
func (a *Association) N1() int {
	return a.set.sumLocked((*core.CountingAssociation).N1)
}

// N2 returns the total distinct size of S2 across shards.
func (a *Association) N2() int {
	return a.set.sumLocked((*core.CountingAssociation).N2)
}

// SizeBytes returns the combined footprint of the shard bit and counter
// arrays.
func (a *Association) SizeBytes() int {
	return a.set.sumLocked((*core.CountingAssociation).SizeBytes)
}

// FillRatio returns the mean query-array fill ratio across shards.
func (a *Association) FillRatio() float64 {
	return a.set.meanLocked((*core.CountingAssociation).FillRatio)
}

// ShardStats returns a per-shard occupancy snapshot.
func (a *Association) ShardStats() []AssociationShardStat {
	out := make([]AssociationShardStat, a.set.size())
	for i := range a.set.shards {
		s := &a.set.shards[i]
		s.mu.RLock()
		out[i] = AssociationShardStat{
			Bits:      s.f.M(),
			K:         s.f.K(),
			MaxOffset: s.f.MaxOffset(),
			N1:        s.f.N1(),
			N2:        s.f.N2(),
			FillRatio: s.f.FillRatio(),
		}
		s.mu.RUnlock()
	}
	return out
}

// MarshalBinary implements encoding.BinaryMarshaler (see
// Filter.MarshalBinary for consistency semantics).
func (a *Association) MarshalBinary() ([]byte, error) {
	return appendSnapshot(nil, shardKindAssociation, &a.set)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing a's
// state with the decoded filter.
func (a *Association) UnmarshalBinary(data []byte) error {
	s, err := decodeSnapshot[core.CountingAssociation](data, shardKindAssociation)
	if err != nil {
		return err
	}
	a.set = s
	return nil
}
