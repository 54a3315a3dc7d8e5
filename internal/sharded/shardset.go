package sharded

import (
	"encoding"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"

	"shbf/internal/core"
	"shbf/internal/hashing"
)

// This file holds the scaffolding shared by every sharded composition:
// the routed, lock-striped shard set, its batch paths, and the
// snapshot wire format.
//
// A set[F] owns 2^p shards, each a shard filter F behind its own
// cache-line-padded RWMutex. Routing rides the one-pass digest
// pipeline: every operation computes the key's hashing.KeyDigest once,
// routes on the digest's high lane (Digest.Shard), and hands the same
// digest to the shard filter's *Digest methods for probing — so the
// shard layer adds zero hash passes on top of the filter's single one.
// Routing cannot skew against bit positions: the shard index is a few
// raw lane bits while every probe position goes through a full
// per-function avalanche mix of both lanes. The digest seed is the
// tree-wide hashing.DigestSeed constant, so a snapshot taken by one
// process routes identically when loaded by another. The set knows
// nothing of what its shards answer: the compositions (sharded.go)
// hand it their shard filters' methods.

// shardSeed derives the i-th shard's filter seed from the caller's
// base seed (core.ResolveSeed of the forwarded options). Each shard
// must hash differently or all shards would share false-positive
// patterns, and the base must contribute or varying the user seed
// would be a silent no-op.
func shardSeed(base uint64, i int) uint64 {
	return base + uint64(i)*0x9e3779b97f4a7c15 + 1
}

// ShardSeed exposes the shard-seed derivation to read-only consumers
// (the frozen encoder) that must reconstruct per-shard hash families
// from a filter's reported base seed.
func ShardSeed(base uint64, i int) uint64 { return shardSeed(base, i) }

// maxShards bounds construction the same way decodeSnapshot bounds
// decoding, and keeps roundPow2's doubling loop far from overflow.
const maxShards = 1 << 20

// entry is one lock-striped shard. The padding spaces entries a cache
// line apart so a writer bouncing one shard's lock does not invalidate
// its neighbours' lines.
type entry[F any] struct {
	mu sync.RWMutex
	f  F
	_  [40]byte
}

// set is the routed shard collection. counted records that the shards
// share an access counter, which is not safe for concurrent use, so
// batch adds must not fan out.
type set[F any] struct {
	shards  []entry[F]
	mask    uint64
	counted bool
}

// roundPow2 rounds shardCount up to the next power of two, validating
// the count and the resulting per-shard bit budget.
func roundPow2(totalBits, shardCount int) (pow, perShard int, err error) {
	if shardCount < 1 {
		return 0, 0, fmt.Errorf("sharded: shard count %d must be ≥ 1", shardCount)
	}
	if shardCount > maxShards {
		return 0, 0, fmt.Errorf("sharded: shard count %d exceeds maximum %d", shardCount, maxShards)
	}
	pow = 1
	for pow < shardCount {
		pow *= 2
	}
	perShard = totalBits / pow
	if perShard < 64 {
		return 0, 0, fmt.Errorf("sharded: %d bits across %d shards leaves %d bits/shard (< 64)", totalBits, pow, perShard)
	}
	return pow, perShard, nil
}

// newSet builds a set of pow shards, constructing each filter with
// build(i).
func newSet[F any](pow int, build func(i int) (F, error)) (set[F], error) {
	s := set[F]{
		shards: make([]entry[F], pow),
		mask:   uint64(pow - 1),
	}
	for i := range s.shards {
		f, err := build(i)
		if err != nil {
			return set[F]{}, fmt.Errorf("sharded: building shard %d: %w", i, err)
		}
		s.shards[i].f = f
	}
	return s, nil
}

// forDigest routes an already-digested element to its shard.
func (s *set[F]) forDigest(d hashing.Digest) *entry[F] {
	return &s.shards[d.Shard(s.mask)]
}

// size returns the number of shards.
func (s *set[F]) size() int { return len(s.shards) }

// batchPlan is a batch of keys grouped by destination shard: the key
// indices routed to shard i are order[starts[i]:starts[i+1]]. Batch
// operations walk the plan shard by shard, taking each shard lock once
// per batch instead of once per key (ReadAll, for shards nothing
// writes, takes none). Each key is digested exactly once while
// grouping; the plan retains the digests so the per-shard loops probe
// with them instead of re-hashing — one pass per key for the whole
// batch operation, routing included. The plan also carries the round
// kernels' scratch (core.ProbeScratch): it belongs to this one batch,
// so concurrent readers of one shard never share it, and a fanned-out
// add gives every worker but the calling goroutine one of its own
// (more). Plans are pooled so the steady-state batch path does not
// allocate.
type batchPlan struct {
	shardOf []uint32
	digests []hashing.Digest
	starts  []int
	next    []int
	order   []int32
	probe   core.ProbeScratch
	more    []core.ProbeScratch
}

var planPool = sync.Pool{New: func() any { return new(batchPlan) }}

// keysFor returns the indices of the batch's keys routed to shard i.
func (p *batchPlan) keysFor(i int) []int32 {
	return p.order[p.starts[i]:p.starts[i+1]]
}

// release returns the plan's buffers to the pool; callers must not
// touch the plan afterwards.
func (p *batchPlan) release() { planPool.Put(p) }

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// groupProbe answers one shard group of a batch read: it sets dst[j]
// for every batch index j in idxs, whose digest is ds[j], and may use
// sc as scratch. The shard filters' group reads (ContainsGroup,
// QueryGroup, CountGroup) have this shape: the core kinds' round
// kernels, and the rings' per-key loops.
type groupProbe[F, R any] func(f F, dst []R, idxs []int32, ds []hashing.Digest, sc *core.ProbeScratch)

// batchRead answers every key, visiting each occupied shard once under
// its read lock and handing probe that shard's whole group. Answers
// land in dst (resized to len(keys)) at the keys' original positions.
func batchRead[F, R any](s *set[F], dst []R, keys [][]byte, probe groupProbe[F, R]) []R {
	if cap(dst) < len(keys) {
		dst = make([]R, len(keys))
	}
	dst = dst[:len(keys)]
	p := group(keys, len(s.shards))
	defer p.release()
	for i := range s.shards {
		idxs := p.keysFor(i)
		if len(idxs) == 0 {
			continue
		}
		sh := &s.shards[i]
		sh.mu.RLock()
		probe(sh.f, dst, idxs, p.digests, &p.probe)
		sh.mu.RUnlock()
	}
	return dst
}

// ReadAll is batchRead over shards that nothing writes, such as a
// frozen container's sections: the same grouping, and no locks. The
// shard count must be a power of two.
func ReadAll[F, R any](shards []F, dst []R, keys [][]byte, probe func(F, []R, []int32, []hashing.Digest, *core.ProbeScratch)) []R {
	if cap(dst) < len(keys) {
		dst = make([]R, len(keys))
	}
	dst = dst[:len(keys)]
	p := group(keys, len(shards))
	defer p.release()
	for i, f := range shards {
		if idxs := p.keysFor(i); len(idxs) > 0 {
			probe(f, dst, idxs, p.digests, &p.probe)
		}
	}
	return dst
}

// groupAdder is a shard filter with an infallible group insert: it
// writes every batch index j in idxs, whose digest is ds[j], and may
// use sc as scratch. The membership kinds' AddGroup has this shape.
type groupAdder interface {
	AddGroup(idxs []int32, ds []hashing.Digest, sc *core.ProbeScratch)
}

// batchAdd inserts every key, visiting each occupied shard once under
// its write lock and handing AddGroup that shard's whole group. Groups
// cannot fail and no two share a shard, so a large batch writes them on
// addWorkers goroutines at once (fanOut); any other batch walks the
// shards in index order on the calling goroutine.
func batchAdd[F groupAdder](s *set[F], keys [][]byte) {
	p := group(keys, len(s.shards))
	defer p.release()
	if n := s.addWorkers(len(keys)); n > 1 {
		fanOut(s, p, n)
		return
	}
	addShards(s, p, 0, len(s.shards), &p.probe)
}

// addWorkers returns how many goroutines write a batch of n keys: one
// per core.RoundsChunk keys, at most one per shard and one per P, and
// one whenever the shards share an access counter.
func (s *set[F]) addWorkers(n int) int {
	w := min(n/core.RoundsChunk, len(s.shards))
	if w < 2 || s.counted {
		return 1
	}
	return min(w, runtime.GOMAXPROCS(0))
}

// fanOut writes a grouped batch on n goroutines: worker w writes shards
// [w·S/n, (w+1)·S/n) of the S shards, each under its own write lock,
// with its own scratch. The calling goroutine is worker 0, and fanOut
// returns when every worker is done. It is kept apart from batchAdd so
// that what its goroutines capture escapes here alone, and a batch that
// does not fan out allocates nothing.
func fanOut[F groupAdder](s *set[F], p *batchPlan, n int) {
	if len(p.more) < n-1 {
		p.more = make([]core.ProbeScratch, n-1)
	}
	shards := len(s.shards)
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for w := 1; w < n; w++ {
		go func() {
			defer wg.Done()
			addShards(s, p, w*shards/n, (w+1)*shards/n, &p.more[w-1])
		}()
	}
	addShards(s, p, 0, shards/n, &p.probe)
	wg.Wait()
}

// addShards writes the plan's groups for shards [lo, hi), each under
// its write lock.
func addShards[F groupAdder](s *set[F], p *batchPlan, lo, hi int, sc *core.ProbeScratch) {
	for i := lo; i < hi; i++ {
		idxs := p.keysFor(i)
		if len(idxs) == 0 {
			continue
		}
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.f.AddGroup(idxs, p.digests, sc)
		sh.mu.Unlock()
	}
}

// batchInsert applies a per-key update to every key, for the counting
// kinds: each occupied shard is visited once under its write lock, in
// index order, and its keys are applied in batch order. The first
// failure stops the batch, keys already applied stay applied, and the
// error reports the failing key's batch index. It never fans out, so
// which keys a refused batch applied follows from that order alone.
func batchInsert[F any](s *set[F], keys [][]byte, insert func(F, []byte, hashing.Digest) error) error {
	p := group(keys, len(s.shards))
	defer p.release()
	for i := range s.shards {
		idxs := p.keysFor(i)
		if len(idxs) == 0 {
			continue
		}
		sh := &s.shards[i]
		sh.mu.Lock()
		var err error
		for _, j := range idxs {
			if err = insert(sh.f, keys[j], p.digests[j]); err != nil {
				err = fmt.Errorf("sharded: key %d: %w", j, err)
				break
			}
		}
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// group builds the plan for keys routed over a power-of-two number of
// shards with a counting sort over shard indices (stable, so each shard
// sees its keys in batch order), digesting each key exactly once along
// the way. Release the plan when done.
func group(keys [][]byte, shards int) *batchPlan {
	p := planPool.Get().(*batchPlan)
	if cap(p.shardOf) < len(keys) {
		p.shardOf = make([]uint32, len(keys))
		p.digests = make([]hashing.Digest, len(keys))
		p.order = make([]int32, len(keys))
	}
	p.shardOf, p.digests, p.order = p.shardOf[:len(keys)], p.digests[:len(keys)], p.order[:len(keys)]
	p.starts = growInts(p.starts, shards+1)
	p.next = growInts(p.next, shards)
	clear(p.starts)
	mask := uint64(shards - 1)
	for i, e := range keys {
		d := hashing.KeyDigest(e)
		sh := uint32(d.Shard(mask))
		p.shardOf[i] = sh
		p.digests[i] = d
		p.starts[sh+1]++
	}
	for i := 1; i < len(p.starts); i++ {
		p.starts[i] += p.starts[i-1]
	}
	copy(p.next, p.starts)
	for i, sh := range p.shardOf {
		p.order[p.next[sh]] = int32(i)
		p.next[sh]++
	}
	return p
}

// each calls fn for every shard in index order, each under its shard's
// read lock.
func (s *set[F]) each(fn func(i int, f F)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		fn(i, sh.f)
		sh.mu.RUnlock()
	}
}

// sumLocked accumulates get across all shards (see addCount), each
// read under its shard's read lock.
func (s *set[F]) sumLocked(get func(F) int) int {
	total := 0
	s.each(func(_ int, f F) { total = addCount(total, get(f)) })
	return total
}

// meanLocked averages get across all shards, each read under its
// shard's read lock.
func (s *set[F]) meanLocked(get func(F) float64) float64 {
	sum := 0.0
	s.each(func(_ int, f F) { sum += get(f) })
	return sum / float64(len(s.shards))
}

// addCount adds a shard's count to a running total. A negative count
// is the unsafe update mode's no-exact-set sentinel and makes the
// total −1.
func addCount(total, n int) int {
	if total < 0 || n < 0 {
		return -1
	}
	return total + n
}

// --- snapshot wire format ------------------------------------------------
//
// 4-byte magic "ShBS", a version byte, a kind byte, the shard count as
// a uvarint, then one length-prefixed core-filter blob per shard (each
// blob is the shard filter's own MarshalBinary output, which embeds its
// full geometry and seed). Routing is derived from the compile-time
// hashing.DigestSeed, so the header needs no routing state: kind +
// shard blobs reconstruct the filter bit-for-bit.

const (
	snapVersion = 1

	shardKindMembership byte = iota + 1
	shardKindAssociation
	shardKindMultiplicity
	shardKindWindowMembership
	shardKindWindowAssociation
	shardKindWindowMultiplicity
)

// appendSnapshot serializes the set: header, then each shard under its
// read lock. Shards are locked one at a time, so the snapshot is
// per-shard consistent but not a global point-in-time cut; for a
// globally consistent image, pause writers first.
func appendSnapshot[F encoding.BinaryMarshaler](buf []byte, kind byte, s *set[F]) ([]byte, error) {
	buf = append(buf, 'S', 'h', 'B', 'S', snapVersion, kind)
	buf = binary.AppendUvarint(buf, uint64(len(s.shards)))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		blob, err := sh.f.MarshalBinary()
		sh.mu.RUnlock()
		if err != nil {
			return nil, fmt.Errorf("sharded: marshaling shard %d: %w", i, err)
		}
		buf = binary.AppendUvarint(buf, uint64(len(blob)))
		buf = append(buf, blob...)
	}
	return buf, nil
}

// checkShardSpecs verifies a decoded shard set's filters agree: every
// shard must report shard 0's spec up to the shard-seed derivation
// (seed_i = shardSeed(base, i) for the base recovered from shard 0).
// decodeSnapshot validates each shard blob independently, so without
// this cross-shard check a corrupt or spliced snapshot could assemble
// shards of divergent geometry — wrong routing for the classic kinds,
// and out-of-range ring aggregation for the window kinds.
func checkShardSpecs[F interface{ Spec() core.Spec }](s *set[F]) error {
	spec0 := s.shards[0].f.Spec()
	base := spec0.Seed - 1 // shardSeed(base, 0) = base + 1
	for i := range s.shards {
		want := spec0
		want.Seed = shardSeed(base, i)
		if spec := s.shards[i].f.Spec(); spec != want {
			return fmt.Errorf("sharded: shard %d spec %+v diverges from shard 0's %+v", i, spec, want)
		}
	}
	return nil
}

// decodeSnapshot parses a snapshot produced by appendSnapshot,
// decoding each shard into a fresh zero F (whose UnmarshalBinary
// replaces its state) and then cross-checking the shards against each
// other (checkShardSpecs).
func decodeSnapshot[F any, PF shard[F]](data []byte, kind byte) (set[PF], error) {
	if len(data) < 6 {
		return set[PF]{}, fmt.Errorf("sharded: truncated snapshot header")
	}
	if string(data[:4]) != "ShBS" {
		return set[PF]{}, fmt.Errorf("sharded: bad snapshot magic %q", data[:4])
	}
	if data[4] != snapVersion {
		return set[PF]{}, fmt.Errorf("sharded: unsupported snapshot version %d", data[4])
	}
	if data[5] != kind {
		return set[PF]{}, fmt.Errorf("sharded: wrong filter kind %d (want %d)", data[5], kind)
	}
	buf := data[6:]
	count, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return set[PF]{}, fmt.Errorf("sharded: truncated shard count")
	}
	buf = buf[sz:]
	if count == 0 || count > maxShards || count&(count-1) != 0 {
		return set[PF]{}, fmt.Errorf("sharded: implausible shard count %d", count)
	}
	// Every shard takes at least its length byte: refuse a count the
	// bytes cannot carry before allocating its entries.
	if count > uint64(len(buf)) {
		return set[PF]{}, fmt.Errorf("sharded: %d shards declared in %d bytes", count, len(buf))
	}
	s := set[PF]{
		shards: make([]entry[PF], count),
		mask:   count - 1,
	}
	for i := range s.shards {
		n, sz := binary.Uvarint(buf)
		if sz <= 0 {
			return set[PF]{}, fmt.Errorf("sharded: truncated length of shard %d", i)
		}
		buf = buf[sz:]
		if uint64(len(buf)) < n {
			return set[PF]{}, fmt.Errorf("sharded: shard %d blob truncated", i)
		}
		f := PF(new(F))
		if err := f.UnmarshalBinary(buf[:n]); err != nil {
			return set[PF]{}, fmt.Errorf("sharded: decoding shard %d: %w", i, err)
		}
		s.shards[i].f = f
		buf = buf[n:]
	}
	if len(buf) != 0 {
		return set[PF]{}, fmt.Errorf("sharded: %d trailing bytes", len(buf))
	}
	if err := checkShardSpecs(&s); err != nil {
		return set[PF]{}, err
	}
	return s, nil
}
