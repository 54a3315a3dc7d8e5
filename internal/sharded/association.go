package sharded

import (
	"shbf/internal/core"
	"shbf/internal/hashing"
)

// assocShard is an association shard: CShBF_A or a ring of them.
type assocShard[T any] interface {
	shard[T]
	InsertS1Digest(e []byte, d hashing.Digest) error
	InsertS2Digest(e []byte, d hashing.Digest) error
	DeleteS1Digest(e []byte, d hashing.Digest) error
	DeleteS2Digest(e []byte, d hashing.Digest) error
	QueryDigest(d hashing.Digest) core.Region
	QueryGroup(dst []core.Region, idxs []int32, ds []hashing.Digest, sc *core.ProbeScratch)
	M() int
	K() int
	MaxOffset() int
	N1() int
	N2() int
}

// association is the sharded CShBF_A body of Association and
// WindowAssociation.
type association[T any, F assocShard[T]] struct {
	composition[T, F]
}

// Association is a concurrency-safe sharded CShBF_A: one logical
// two-set association filter whose bit budget is split across routed
// shards, each an independent updatable core.CountingAssociation.
// Because every element lives in exactly one shard, region semantics
// are unchanged — a query consults exactly the shard that encoded the
// element.
type Association struct {
	association[core.CountingAssociation, *core.CountingAssociation]
}

// AssociationShardStat reports one association shard's occupancy.
type AssociationShardStat struct {
	// Bits is the shard filter's base array size m.
	Bits int
	// K is the bit positions per element.
	K int
	// MaxOffset is the shard filter's w̄.
	MaxOffset int
	// N1, N2 are the distinct set sizes routed to this shard (summed
	// over the ring's generations for a window).
	N1, N2 int
	// FillRatio is the fraction of set bits (the generations' mean for
	// a window).
	FillRatio float64
}

// NewAssociation returns an updatable association filter with totalBits
// split across shardCount shards (rounded up to a power of two).
// Options are forwarded to each shard's constructor; shards receive
// distinct derived seeds.
func NewAssociation(totalBits, k, shardCount int, opts ...core.Option) (*Association, error) {
	s, err := newShards(totalBits, shardCount, opts, func(bits int, opts ...core.Option) (*core.CountingAssociation, error) {
		return core.NewCountingAssociation(bits, k, opts...)
	})
	if err != nil {
		return nil, err
	}
	a := new(Association)
	a.set = s
	return a, nil
}

// Kind returns core.KindShardedAssociation.
func (a *Association) Kind() core.Kind { return core.KindShardedAssociation }

// InsertS1 adds e to S1 (no-op if already present; into the ring's
// head generation, for a window). Safe for concurrent use.
func (c *association[T, F]) InsertS1(e []byte) error {
	return update(&c.set, e, F.InsertS1Digest)
}

// InsertS2 adds e to S2 (no-op if already present; into the ring's
// head generation, for a window). Safe for concurrent use.
func (c *association[T, F]) InsertS2(e []byte) error {
	return update(&c.set, e, F.InsertS2Digest)
}

// DeleteS1 removes e from S1; ErrNotStored if absent. For a window it
// removes e from the head generation, undoing an in-tick insert
// (rotated memberships expire instead). Safe for concurrent use.
func (c *association[T, F]) DeleteS1(e []byte) error {
	return update(&c.set, e, F.DeleteS1Digest)
}

// DeleteS2 removes e from S2; see DeleteS1. Safe for concurrent use.
func (c *association[T, F]) DeleteS2(e []byte) error {
	return update(&c.set, e, F.DeleteS2Digest)
}

// Query returns e's candidate-region mask (the union of the shard
// ring's masks, for a window) with a single hash pass: digest → route
// → probe. Safe for concurrent use; readers do not block each other.
func (c *association[T, F]) Query(e []byte) core.Region {
	return read(&c.set, e, F.QueryDigest)
}

// QueryAll classifies a whole batch, grouping keys by shard so each
// shard's read lock is taken once per batch instead of once per key;
// each key is digested once for both routing and probing. Region masks
// are written into dst (resized to len(keys)) at the keys' original
// positions. Safe for concurrent use.
func (c *association[T, F]) QueryAll(dst []core.Region, keys [][]byte) []core.Region {
	return batchRead(&c.set, dst, keys, F.QueryGroup)
}

// N1 returns the total distinct size of S1 across shards (and
// generations, for a window).
func (c *association[T, F]) N1() int { return c.set.sumLocked(F.N1) }

// N2 returns the total distinct size of S2 across shards (and
// generations, for a window).
func (c *association[T, F]) N2() int { return c.set.sumLocked(F.N2) }

// ShardStats returns a per-shard occupancy snapshot.
func (c *association[T, F]) ShardStats() []AssociationShardStat {
	return shardStats(&c.set, func(f F) AssociationShardStat {
		return AssociationShardStat{Bits: f.M(), K: f.K(), MaxOffset: f.MaxOffset(),
			N1: f.N1(), N2: f.N2(), FillRatio: f.FillRatio()}
	})
}
