package sharded

import (
	"shbf/internal/core"
	"shbf/internal/hashing"
)

// multShard is a multiplicity shard: CShBF_X or a ring of them.
type multShard[T any] interface {
	shard[T]
	InsertDigest(e []byte, d hashing.Digest) error
	DeleteDigest(e []byte, d hashing.Digest) error
	CountDigest(d hashing.Digest) int
	CountGroup(dst []int, idxs []int32, ds []hashing.Digest, sc *core.ProbeScratch)
	M() int
	K() int
	C() int
	N() int
}

// multiplicity is the sharded CShBF_X body of Multiplicity and
// WindowMultiplicity.
type multiplicity[T any, F multShard[T]] struct {
	composition[T, F]
}

// Multiplicity is a concurrency-safe sharded CShBF_X: one logical
// multi-set multiplicity filter whose bit budget is split across routed
// shards, each an independent updatable core.CountingMultiplicity.
// Counts keep the paper's one-sided guarantee — reported multiplicities
// never underestimate (in the default no-false-negative mode).
type Multiplicity struct {
	multiplicity[core.CountingMultiplicity, *core.CountingMultiplicity]
}

// MultiplicityShardStat reports one multiplicity shard's occupancy.
type MultiplicityShardStat struct {
	// Bits is the shard filter's base array size m.
	Bits int
	// K is the bit positions per element.
	K int
	// C is the maximum multiplicity.
	C int
	// N is the number of distinct elements routed to this shard (summed
	// over the ring's generations for a window; -1 in the unsafe update
	// mode, which tracks no exact set).
	N int
	// FillRatio is the fraction of set bits (the generations' mean for
	// a window).
	FillRatio float64
}

// NewMultiplicity returns an updatable multiplicity filter for counts
// in [1, c], with totalBits split across shardCount shards (rounded up
// to a power of two). Options are forwarded to each shard's
// constructor; shards receive distinct derived seeds.
func NewMultiplicity(totalBits, k, c, shardCount int, opts ...core.Option) (*Multiplicity, error) {
	s, err := newShards(totalBits, shardCount, opts, func(bits int, opts ...core.Option) (*core.CountingMultiplicity, error) {
		return core.NewCountingMultiplicity(bits, k, c, opts...)
	})
	if err != nil {
		return nil, err
	}
	f := new(Multiplicity)
	f.set = s
	return f, nil
}

// Kind returns core.KindShardedMultiplicity.
func (f *Multiplicity) Kind() core.Kind { return core.KindShardedMultiplicity }

// C returns the maximum multiplicity (per generation, for a window).
// It reads Spec, which holds shard 0's read lock: a ring answers from
// its head generation, which a rotation replaces.
func (c *multiplicity[T, F]) C() int { return c.Spec().C }

// Insert increments e's multiplicity (in the ring's head generation,
// for a window), digesting the key once for routing and encoding. It
// returns ErrCountOverflow when the multiplicity would exceed c and
// ErrCounterSaturated when a counter would overflow; in both cases the
// filter is unchanged. Safe for concurrent use.
func (c *multiplicity[T, F]) Insert(e []byte) error {
	return update(&c.set, e, F.InsertDigest)
}

// Delete decrements e's multiplicity; ErrNotStored if e is not stored.
// For a window it decrements the head generation's count, undoing an
// in-tick insert (rotated counts expire instead). Safe for concurrent
// use.
func (c *multiplicity[T, F]) Delete(e []byte) error {
	return update(&c.set, e, F.DeleteDigest)
}

// Count returns e's queried multiplicity (summed across the shard's
// ring, for a window; 0 for definite non-members; never an
// underestimate in the default mode) with a single hash pass. Safe for
// concurrent use; readers do not block each other.
func (c *multiplicity[T, F]) Count(e []byte) int {
	return read(&c.set, e, F.CountDigest)
}

// AddAll increments every key's multiplicity by one, grouping keys by
// shard so each shard's write lock is taken once per batch; each key
// is digested once for both routing and encoding. On the first failed
// insert the batch stops: keys already applied stay applied, and the
// error reports the failing key's batch index. Safe for concurrent
// use.
func (c *multiplicity[T, F]) AddAll(keys [][]byte) error {
	return batchInsert(&c.set, keys, F.InsertDigest)
}

// CountAll queries a whole batch, grouping keys by shard so each
// shard's read lock is taken once per batch instead of once per key;
// each key is digested once for both routing and probing. Counts are
// written into dst (resized to len(keys)) at the keys' original
// positions. Safe for concurrent use.
func (c *multiplicity[T, F]) CountAll(dst []int, keys [][]byte) []int {
	return batchRead(&c.set, dst, keys, F.CountGroup)
}

// N returns the total number of distinct stored elements across shards
// (and generations, for a window), or -1 when the shards run in the
// unsafe update mode (no exact set is tracked).
func (c *multiplicity[T, F]) N() int { return c.set.sumLocked(F.N) }

// ShardStats returns a per-shard occupancy snapshot.
func (c *multiplicity[T, F]) ShardStats() []MultiplicityShardStat {
	return shardStats(&c.set, func(f F) MultiplicityShardStat {
		return MultiplicityShardStat{Bits: f.M(), K: f.K(), C: f.C(), N: f.N(), FillRatio: f.FillRatio()}
	})
}
