// Package sharded provides thread-safe, lock-striped compositions of
// the ShBF filters for the paper's wire-speed deployment scenario:
// multiple receive queues (goroutines) querying one logical filter.
//
// Each composition splits its bit budget across 2^p independent shards
// and routes every element by its one-pass digest (hashing.KeyDigest):
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
// Three compositions mirror the paper's three instantiations of the
// framework, and each is written once, generic over its shard filter.
// Each is instantiated twice: over the core filter, and over the
// sliding-window generation ring of internal/window that rings it.
//
//   - Membership (ShBF_M; Add/Contains): [Filter] over core.Membership,
//     [Window] over window.Membership.
//   - Association (CShBF_A; InsertS1/InsertS2/DeleteS1/DeleteS2/Query):
//     [Association] over core.CountingAssociation, [WindowAssociation]
//     over window.Association.
//   - Multiplicity (CShBF_X; Insert/Delete/Count): [Multiplicity] over
//     core.CountingMultiplicity, [WindowMultiplicity] over
//     window.Multiplicity.
//
// The windowed instantiations add only whole-window rotation
// (window.go). All six serialize with MarshalBinary/UnmarshalBinary
// (per-shard blobs under a common header), which is what the shbfd
// daemon's snapshot persistence is built on, and report per-shard
// occupancy via ShardStats for the daemon's /v1/stats endpoint.
package sharded

import (
	"fmt"

	"shbf/internal/core"
	"shbf/internal/hashing"
)

// shard is what every composition needs of its shard filter F: a
// pointer to T, so decoding can allocate fresh shards, that reports
// its kind, geometry and occupancy and serializes itself. The core
// filters and the window rings both qualify.
type shard[T any] interface {
	*T
	Kind() core.Kind
	Spec() core.Spec
	Stats() core.Stats
	SizeBytes() int
	FillRatio() float64
	MarshalBinary() ([]byte, error)
	UnmarshalBinary(data []byte) error
}

// composition is the body every sharded filter shares, whatever it
// answers: the routed shard set and its kind, geometry, occupancy and
// snapshot surface. The three query bodies (membership, association,
// multiplicity) embed it and add their operations.
type composition[T any, F shard[T]] struct {
	set set[F]
}

// composed returns the kind of the sharded composition over F shards
// and its snapshot kind byte, fixed by the shard type (so a zero value
// answers too). The exported types answer Kind() with constants of
// their own rather than a promoted method, which would dereference a
// nil pointer that their Kind answers for.
func composed[F interface{ Kind() core.Kind }]() (core.Kind, byte) {
	var f F
	switch f.Kind() {
	case core.KindMembership:
		return core.KindShardedMembership, shardKindMembership
	case core.KindCountingAssociation:
		return core.KindShardedAssociation, shardKindAssociation
	case core.KindCountingMultiplicity:
		return core.KindShardedMultiplicity, shardKindMultiplicity
	case core.KindWindowMembership:
		return core.KindWindowShardedMembership, shardKindWindowMembership
	case core.KindWindowAssociation:
		return core.KindWindowShardedAssociation, shardKindWindowAssociation
	case core.KindWindowMultiplicity:
		return core.KindWindowShardedMultiplicity, shardKindWindowMultiplicity
	}
	panic(fmt.Sprintf("sharded: no composition over %s shards", f.Kind()))
}

// newShards validates the options against the composition's kind and
// builds totalBits split across shardCount shards (rounded up to a
// power of two, minimum 1), shard i by build with its share of the bits
// and the options plus its derived seed.
func newShards[T any, F shard[T]](totalBits, shardCount int, opts []core.Option, build func(bits int, opts ...core.Option) (F, error)) (set[F], error) {
	kind, _ := composed[F]()
	if err := core.CheckOptions(kind, opts...); err != nil {
		return set[F]{}, err
	}
	pow, perShard, err := roundPow2(totalBits, shardCount)
	if err != nil {
		return set[F]{}, err
	}
	base := core.ResolveSeed(opts...)
	s, err := newSet(pow, func(i int) (F, error) {
		return build(perShard, append(opts, core.WithSeed(shardSeed(base, i)))...)
	})
	s.counted = core.HasAccessCounter(opts...)
	return s, err
}

// Shards returns the number of shards.
func (c *composition[T, F]) Shards() int { return c.set.size() }

// Spec returns the construction geometry: shard 0's spec, read under
// its read lock (a ring's spec reads its head generation, which a
// rotation replaces), lifted to the whole filter — total bits across
// shards, the shard count, and the caller's base seed (recovered from
// shard 0's derived seed, whose derivation adds exactly 1 for i = 0).
func (c *composition[T, F]) Spec() core.Spec {
	sh := &c.set.shards[0]
	sh.mu.RLock()
	s := sh.f.Spec()
	sh.mu.RUnlock()
	s.Kind, _ = composed[F]()
	s.M *= c.set.size()
	s.Shards = c.set.size()
	s.Seed--
	return s
}

// Stats returns the aggregate occupancy snapshot: the shards' N
// summed (both sets' sizes for association; −1 when multiplicity
// shards run in the unsafe update mode), their footprints summed and
// their fill ratios averaged.
func (c *composition[T, F]) Stats() core.Stats {
	st := core.Stats{Shards: c.set.size()}
	st.Kind, _ = composed[F]()
	c.set.each(func(_ int, f F) {
		s := f.Stats()
		st.N = addCount(st.N, s.N)
		st.SizeBytes += s.SizeBytes
		st.FillRatio += s.FillRatio
	})
	st.FillRatio /= float64(st.Shards)
	return st
}

// SizeBytes returns the combined footprint of the shard filters' bit
// and counter arrays (every generation's, for the rings).
func (c *composition[T, F]) SizeBytes() int { return c.set.sumLocked(F.SizeBytes) }

// FillRatio returns the mean query-array fill ratio across shards.
func (c *composition[T, F]) FillRatio() float64 { return c.set.meanLocked(F.FillRatio) }

// MarshalBinary implements encoding.BinaryMarshaler: the shard-set
// snapshot container over the shard filters' own blobs. Shards are
// serialized one at a time under their read locks, so the snapshot is
// per-shard consistent; pause writers (and rotation) for a global
// point-in-time cut.
func (c *composition[T, F]) MarshalBinary() ([]byte, error) {
	_, snap := composed[F]()
	return appendSnapshot(nil, snap, &c.set)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing the
// filter's state (including shard count and geometry) with the decoded
// filter.
func (c *composition[T, F]) UnmarshalBinary(data []byte) error {
	_, snap := composed[F]()
	s, err := decodeSnapshot[T, F](data, snap)
	if err != nil {
		return err
	}
	c.set = s
	return nil
}

// read digests e once, routes on the digest, and answers op on e's
// shard under its read lock with the same digest.
func read[F, R any](s *set[F], e []byte, op func(F, hashing.Digest) R) R {
	d := hashing.KeyDigest(e)
	sh := s.forDigest(d)
	sh.mu.RLock()
	r := op(sh.f, d)
	sh.mu.RUnlock()
	return r
}

// update digests e once, routes on the digest, and runs op on e's
// shard under its write lock with the same digest.
func update[F any](s *set[F], e []byte, op func(F, []byte, hashing.Digest) error) error {
	d := hashing.KeyDigest(e)
	sh := s.forDigest(d)
	sh.mu.Lock()
	err := op(sh.f, e, d)
	sh.mu.Unlock()
	return err
}

// shardStats snapshots every shard with stat, each under its read
// lock.
func shardStats[F, S any](s *set[F], stat func(F) S) []S {
	out := make([]S, s.size())
	s.each(func(i int, f F) { out[i] = stat(f) })
	return out
}

// --- membership -----------------------------------------------------------

// memberShard is a membership shard: ShBF_M or a ring of them.
type memberShard[T any] interface {
	shard[T]
	AddDigest(d hashing.Digest)
	ContainsDigest(d hashing.Digest) bool
	AddGroup(idxs []int32, ds []hashing.Digest, sc *core.ProbeScratch)
	ContainsGroup(dst []bool, idxs []int32, ds []hashing.Digest, sc *core.ProbeScratch)
	M() int
	K() int
	MaxOffset() int
	N() int
}

// membership is the sharded ShBF_M body of Filter and Window.
type membership[T any, F memberShard[T]] struct {
	composition[T, F]
}

// Filter is a concurrency-safe sharded ShBF_M.
type Filter struct {
	membership[core.Membership, *core.Membership]
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
	// N is the number of elements routed to this shard (summed over the
	// ring's generations for a window).
	N int
	// FillRatio is the fraction of set bits (the generations' mean for
	// a window).
	FillRatio float64
}

// New returns a filter with totalBits split across shardCount shards
// (rounded up to a power of two, minimum 1) and k bit positions per
// element. Options are forwarded to each shard's constructor; shards
// receive distinct derived seeds.
func New(totalBits, k, shardCount int, opts ...core.Option) (*Filter, error) {
	s, err := newShards(totalBits, shardCount, opts, func(bits int, opts ...core.Option) (*core.Membership, error) {
		return core.NewMembership(bits, k, opts...)
	})
	if err != nil {
		return nil, err
	}
	f := new(Filter)
	f.set = s
	return f, nil
}

// Kind returns core.KindShardedMembership.
func (f *Filter) Kind() core.Kind { return core.KindShardedMembership }

// Add inserts e: the key is digested once, routed on one lane of the
// digest, and encoded (into the ring's head generation, for a window)
// from the same digest. Safe for concurrent use.
func (c *membership[T, F]) Add(e []byte) {
	d := hashing.KeyDigest(e)
	s := c.set.forDigest(d)
	s.mu.Lock()
	s.f.AddDigest(d)
	s.mu.Unlock()
}

// Contains reports whether e may be in the set (added within the
// window, for a window) with a single hash pass: digest → route →
// probe, across the shard's ring newest-first for a window. Safe for
// concurrent use; readers of different shards (and of the same shard)
// do not block each other.
func (c *membership[T, F]) Contains(e []byte) bool {
	return read(&c.set, e, F.ContainsDigest)
}

// AddAll inserts a whole batch, grouping keys by shard so each shard's
// write lock is taken once per batch instead of once per key, and the
// shard's whole group is written by one call (core.Membership.AddGroup,
// which writes large groups in rounds, into the ring's head generation
// for a window); each key is digested once for both routing and
// encoding. A batch of two core.RoundsChunk keys or more writes
// disjoint shard ranges on several goroutines (batchAdd). Safe for
// concurrent use. The error is always nil (the signature matches the
// shared batch interface).
func (c *membership[T, F]) AddAll(keys [][]byte) error {
	batchAdd(&c.set, keys)
	return nil
}

// ContainsAll queries a whole batch, grouping keys by shard so each
// shard's read lock is taken once per batch instead of once per key,
// and the shard's whole group is answered by one call (the core
// filter's round kernel, or the ring's per-key fan-out); each key is
// digested once for both routing and probing. Answers are written into
// dst (resized to len(keys)) at the keys' original positions. Safe for
// concurrent use.
func (c *membership[T, F]) ContainsAll(dst []bool, keys [][]byte) []bool {
	return batchRead(&c.set, dst, keys, F.ContainsGroup)
}

// N returns the total number of elements added across shards (and
// generations: an upper bound on distinct in-window keys for a window;
// see window.Membership.N).
func (c *membership[T, F]) N() int { return c.set.sumLocked(F.N) }

// ShardStats returns a per-shard occupancy snapshot.
func (c *membership[T, F]) ShardStats() []ShardStat {
	return shardStats(&c.set, func(f F) ShardStat {
		return ShardStat{Bits: f.M(), K: f.K(), MaxOffset: f.MaxOffset(), N: f.N(), FillRatio: f.FillRatio()}
	})
}

// ForEachShard calls fn for every shard in index order, each under its
// shard's read lock — the frozen encoder's per-shard bit export. fn
// receives the shard's *core.Membership (Filter) or *window.Membership
// ring (Window); it must not retain it or call back into the filter.
// For a window, hold rotation off (or accept a per-shard-consistent
// cut) for a global point-in-time view.
func (c *membership[T, F]) ForEachShard(fn func(i int, f F)) { c.set.each(fn) }

// Reset clears all shards.
func (f *Filter) Reset() {
	for i := range f.set.shards {
		s := &f.set.shards[i]
		s.mu.Lock()
		s.f.Reset()
		s.mu.Unlock()
	}
}
