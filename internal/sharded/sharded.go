// Package sharded provides thread-safe, lock-striped wrappers around
// the core ShBF filters for the paper's wire-speed deployment scenario:
// multiple receive queues (goroutines) querying one logical filter.
//
// Each wrapper splits its bit budget across 2^p independent shards and
// routes every element by its one-pass digest (hashing.KeyDigest):
// the routing index is a few bits of the digest's high lane, while the
// shard filters derive their probe positions from the same digest
// through per-shard avalanche mixers — one hash pass per key covers
// routing and probing together. Shards are guarded by
// cache-line-padded RWMutexes, so concurrent queries proceed in
// parallel and only same-shard writers contend. Because routing is by
// hash, per-shard occupancy concentrates around n/shards and accuracy
// matches a monolithic filter of the same total size (each shard is an
// independent filter at the same bits-per-element).
//
// Three query kinds are covered, mirroring the paper's three
// instantiations of the framework:
//
//   - [Filter] wraps ShBF_M for membership (Add/Contains).
//   - [Association] wraps CShBF_A for two-set association queries
//     (InsertS1/InsertS2/DeleteS1/DeleteS2/Query).
//   - [Multiplicity] wraps CShBF_X for multi-set multiplicity queries
//     (Insert/Delete/Count).
//
// All three serialize with MarshalBinary/UnmarshalBinary (per-shard
// blobs under a common header), which is what the shbfd daemon's
// snapshot persistence is built on, and report per-shard occupancy via
// ShardStats for the daemon's /v1/stats endpoint.
package sharded

import (
	"shbf/internal/core"
	"shbf/internal/hashing"
)

// Filter is a concurrency-safe sharded ShBF_M.
type Filter struct {
	set set[*core.Membership]
}

// ShardStat reports one membership shard's occupancy and geometry, as
// surfaced by the serving layer's stats endpoint.
type ShardStat struct {
	// Bits is the shard filter's base array size m.
	Bits int
	// K is the bit positions per element.
	K int
	// MaxOffset is the shard filter's w̄.
	MaxOffset int
	// N is the number of elements routed to this shard.
	N int
	// FillRatio is the fraction of set bits.
	FillRatio float64
}

// New returns a filter with totalBits split across shardCount shards
// (rounded up to a power of two, minimum 1) and k bit positions per
// element. Options are forwarded to each shard's constructor; shards
// receive distinct derived seeds.
func New(totalBits, k, shardCount int, opts ...core.Option) (*Filter, error) {
	if err := core.CheckOptions(core.KindShardedMembership, opts...); err != nil {
		return nil, err
	}
	pow, perShard, err := roundPow2(totalBits, shardCount)
	if err != nil {
		return nil, err
	}
	base := core.ResolveSeed(opts...)
	s, err := newSet(pow, func(i int) (*core.Membership, error) {
		return core.NewMembership(perShard, k, append(opts, core.WithSeed(shardSeed(base, i)))...)
	})
	if err != nil {
		return nil, err
	}
	return &Filter{set: s}, nil
}

// Shards returns the number of shards.
func (f *Filter) Shards() int { return f.set.size() }

// Add inserts e: the key is digested once, routed on one lane of the
// digest, and encoded from the same digest. Safe for concurrent use.
func (f *Filter) Add(e []byte) {
	d := hashing.KeyDigest(e)
	s := f.set.forDigest(d)
	s.mu.Lock()
	s.f.AddDigest(d)
	s.mu.Unlock()
}

// Contains reports whether e may be in the set with a single hash pass
// (digest → route → probe). Safe for concurrent use; readers of
// different shards (and of the same shard) do not block each other.
func (f *Filter) Contains(e []byte) bool {
	d := hashing.KeyDigest(e)
	s := f.set.forDigest(d)
	s.mu.RLock()
	ok := s.f.ContainsDigest(d)
	s.mu.RUnlock()
	return ok
}

// AddAll inserts a whole batch, grouping keys by shard so each shard's
// write lock is taken once per batch instead of once per key, and the
// shard's whole group is written by one call (core.Membership.AddGroup,
// which writes large groups in rounds); each key is digested once for
// both routing and encoding. Safe for concurrent use. The error is
// always nil (the signature matches the shared batch interface).
func (f *Filter) AddAll(keys [][]byte) error {
	return batchWrite(&f.set, keys, addGroup((*core.Membership).AddGroup))
}

// ContainsAll queries a whole batch, grouping keys by shard so each
// shard's read lock is taken once per batch instead of once per key;
// each key is digested once for both routing and probing. Answers are
// written into dst (resized to len(keys)) at the keys' original
// positions. Safe for concurrent use.
func (f *Filter) ContainsAll(dst []bool, keys [][]byte) []bool {
	return batchRead(&f.set, dst, keys, (*core.Membership).ContainsGroup)
}

// N returns the total number of elements added across shards.
func (f *Filter) N() int {
	return f.set.sumLocked((*core.Membership).N)
}

// SizeBytes returns the combined bit-array footprint.
func (f *Filter) SizeBytes() int {
	return f.set.sumLocked((*core.Membership).SizeBytes)
}

// FillRatio returns the mean fill ratio across shards.
func (f *Filter) FillRatio() float64 {
	return f.set.meanLocked((*core.Membership).FillRatio)
}

// Reset clears all shards.
func (f *Filter) Reset() {
	for i := range f.set.shards {
		s := &f.set.shards[i]
		s.mu.Lock()
		s.f.Reset()
		s.mu.Unlock()
	}
}

// ShardStats returns a per-shard occupancy snapshot.
func (f *Filter) ShardStats() []ShardStat {
	out := make([]ShardStat, f.set.size())
	for i := range f.set.shards {
		s := &f.set.shards[i]
		s.mu.RLock()
		out[i] = ShardStat{
			Bits:      s.f.M(),
			K:         s.f.K(),
			MaxOffset: s.f.MaxOffset(),
			N:         s.f.N(),
			FillRatio: s.f.FillRatio(),
		}
		s.mu.RUnlock()
	}
	return out
}

// ForEachShard calls fn for every shard filter in index order, each
// under its shard's read lock — the frozen encoder's per-shard bit
// export. fn must not retain the filter or call back into f.
func (f *Filter) ForEachShard(fn func(i int, m *core.Membership)) {
	for i := range f.set.shards {
		s := &f.set.shards[i]
		s.mu.RLock()
		fn(i, s.f)
		s.mu.RUnlock()
	}
}

// Kind returns core.KindShardedMembership.
func (f *Filter) Kind() core.Kind { return core.KindShardedMembership }

// Spec returns the construction geometry: total bits across shards,
// the per-shard k and w̄, and the caller's base seed (recovered from
// shard 0's derived seed, whose derivation adds exactly 1 for i = 0).
func (f *Filter) Spec() core.Spec {
	inner := f.set.shards[0].f.Spec()
	return core.Spec{
		Kind:      core.KindShardedMembership,
		M:         inner.M * f.set.size(),
		K:         inner.K,
		MaxOffset: inner.MaxOffset,
		Shards:    f.set.size(),
		Seed:      inner.Seed - 1,
	}
}

// Stats returns the aggregate occupancy snapshot.
func (f *Filter) Stats() core.Stats {
	return core.Stats{
		Kind:      core.KindShardedMembership,
		N:         f.N(),
		SizeBytes: f.SizeBytes(),
		FillRatio: f.FillRatio(),
		Shards:    f.set.size(),
	}
}

// MarshalBinary implements encoding.BinaryMarshaler. Shards are
// serialized one at a time under their read locks, so the snapshot is
// per-shard consistent; pause writers for a global point-in-time cut.
func (f *Filter) MarshalBinary() ([]byte, error) {
	return appendSnapshot(nil, shardKindMembership, &f.set)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing f's
// state (including shard count and geometry) with the decoded filter.
func (f *Filter) UnmarshalBinary(data []byte) error {
	s, err := decodeSnapshot[core.Membership](data, shardKindMembership)
	if err != nil {
		return err
	}
	f.set = s
	return nil
}
