package sharded

import (
	"shbf/internal/core"
	"shbf/internal/hashing"
)

// Multiplicity is a concurrency-safe sharded CShBF_X: one logical
// multi-set multiplicity filter whose bit budget is split across routed
// shards, each an independent updatable core.CountingMultiplicity.
// Counts keep the paper's one-sided guarantee — reported multiplicities
// never underestimate (in the default no-false-negative mode).
type Multiplicity struct {
	set set[*core.CountingMultiplicity]
}

// MultiplicityShardStat reports one multiplicity shard's occupancy.
type MultiplicityShardStat struct {
	// Bits is the shard filter's base array size m.
	Bits int
	// K is the bit positions per element.
	K int
	// C is the maximum multiplicity.
	C int
	// N is the number of distinct elements routed to this shard (-1 in
	// the unsafe update mode, which tracks no exact set).
	N int
	// FillRatio is the fraction of set bits.
	FillRatio float64
}

// NewMultiplicity returns an updatable multiplicity filter for counts
// in [1, c], with totalBits split across shardCount shards (rounded up
// to a power of two). Options are forwarded to each shard's
// constructor; shards receive distinct derived seeds.
func NewMultiplicity(totalBits, k, c, shardCount int, opts ...core.Option) (*Multiplicity, error) {
	if err := core.CheckOptions(core.KindShardedMultiplicity, opts...); err != nil {
		return nil, err
	}
	pow, perShard, err := roundPow2(totalBits, shardCount)
	if err != nil {
		return nil, err
	}
	base := core.ResolveSeed(opts...)
	s, err := newSet(pow, func(i int) (*core.CountingMultiplicity, error) {
		return core.NewCountingMultiplicity(perShard, k, c, append(opts, core.WithSeed(shardSeed(base, i)))...)
	})
	if err != nil {
		return nil, err
	}
	return &Multiplicity{set: s}, nil
}

// Shards returns the number of shards.
func (f *Multiplicity) Shards() int { return f.set.size() }

// C returns the maximum multiplicity.
func (f *Multiplicity) C() int { return f.set.shards[0].f.C() }

// Insert increments e's multiplicity, digesting the key once for
// routing and encoding. It returns ErrCountOverflow when the
// multiplicity would exceed c and ErrCounterSaturated when a counter
// would overflow; in both cases the filter is unchanged. Safe for
// concurrent use.
func (f *Multiplicity) Insert(e []byte) error {
	d := hashing.KeyDigest(e)
	s := f.set.forDigest(d)
	s.mu.Lock()
	err := s.f.InsertDigest(e, d)
	s.mu.Unlock()
	return err
}

// Delete decrements e's multiplicity; ErrNotStored if e is not stored.
// Safe for concurrent use.
func (f *Multiplicity) Delete(e []byte) error {
	d := hashing.KeyDigest(e)
	s := f.set.forDigest(d)
	s.mu.Lock()
	err := s.f.DeleteDigest(e, d)
	s.mu.Unlock()
	return err
}

// Count returns e's queried multiplicity (0 for definite non-members;
// never an underestimate in the default mode) with a single hash pass.
// Safe for concurrent use; readers do not block each other.
func (f *Multiplicity) Count(e []byte) int {
	d := hashing.KeyDigest(e)
	s := f.set.forDigest(d)
	s.mu.RLock()
	c := s.f.CountDigest(d)
	s.mu.RUnlock()
	return c
}

// AddAll increments every key's multiplicity by one, grouping keys by
// shard so each shard's write lock is taken once per batch; each key
// is digested once for both routing and encoding. On the first failed
// insert the batch stops: keys already applied stay applied, and the
// error reports the failing key's batch index. Safe for concurrent
// use.
func (f *Multiplicity) AddAll(keys [][]byte) error {
	return batchWrite(&f.set, keys, eachInsert((*core.CountingMultiplicity).InsertDigest))
}

// CountAll queries a whole batch, grouping keys by shard so each
// shard's read lock is taken once per batch instead of once per key;
// each key is digested once for both routing and probing. Counts are
// written into dst (resized to len(keys)) at the keys' original
// positions. Safe for concurrent use.
func (f *Multiplicity) CountAll(dst []int, keys [][]byte) []int {
	return batchRead(&f.set, dst, keys, (*core.CountingMultiplicity).CountGroup)
}

// Kind returns core.KindShardedMultiplicity.
func (f *Multiplicity) Kind() core.Kind { return core.KindShardedMultiplicity }

// Spec returns the construction geometry (see Filter.Spec for the base
// seed recovery).
func (f *Multiplicity) Spec() core.Spec {
	inner := f.set.shards[0].f.Spec()
	return core.Spec{
		Kind:          core.KindShardedMultiplicity,
		M:             inner.M * f.set.size(),
		K:             inner.K,
		C:             inner.C,
		CounterWidth:  inner.CounterWidth,
		UnsafeUpdates: inner.UnsafeUpdates,
		Shards:        f.set.size(),
		Seed:          inner.Seed - 1,
	}
}

// Stats returns the aggregate occupancy snapshot.
func (f *Multiplicity) Stats() core.Stats {
	return core.Stats{
		Kind:      core.KindShardedMultiplicity,
		N:         f.N(),
		SizeBytes: f.SizeBytes(),
		FillRatio: f.FillRatio(),
		Shards:    f.set.size(),
	}
}

// N returns the total number of distinct stored elements across shards,
// or -1 when the shards run in the unsafe update mode (no exact set is
// tracked).
func (f *Multiplicity) N() int {
	total := 0
	for i := range f.set.shards {
		s := &f.set.shards[i]
		s.mu.RLock()
		n := s.f.N()
		s.mu.RUnlock()
		if n < 0 {
			return -1
		}
		total += n
	}
	return total
}

// SizeBytes returns the combined footprint of the shard bit and counter
// arrays.
func (f *Multiplicity) SizeBytes() int {
	return f.set.sumLocked((*core.CountingMultiplicity).SizeBytes)
}

// FillRatio returns the mean query-array fill ratio across shards.
func (f *Multiplicity) FillRatio() float64 {
	return f.set.meanLocked((*core.CountingMultiplicity).FillRatio)
}

// ShardStats returns a per-shard occupancy snapshot.
func (f *Multiplicity) ShardStats() []MultiplicityShardStat {
	out := make([]MultiplicityShardStat, f.set.size())
	for i := range f.set.shards {
		s := &f.set.shards[i]
		s.mu.RLock()
		out[i] = MultiplicityShardStat{
			Bits:      s.f.M(),
			K:         s.f.K(),
			C:         s.f.C(),
			N:         s.f.N(),
			FillRatio: s.f.FillRatio(),
		}
		s.mu.RUnlock()
	}
	return out
}

// MarshalBinary implements encoding.BinaryMarshaler (see
// Filter.MarshalBinary for consistency semantics).
func (f *Multiplicity) MarshalBinary() ([]byte, error) {
	return appendSnapshot(nil, shardKindMultiplicity, &f.set)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing f's
// state with the decoded filter.
func (f *Multiplicity) UnmarshalBinary(data []byte) error {
	s, err := decodeSnapshot[core.CountingMultiplicity](data, shardKindMultiplicity)
	if err != nil {
		return err
	}
	f.set = s
	return nil
}
