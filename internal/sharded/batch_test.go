package sharded

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"shbf/internal/core"
	"shbf/internal/hashing"
	"shbf/internal/memmodel"
)

// agreeSet is one filter of each batch-read kind, all built alike.
type agreeSet struct {
	member *Filter
	assoc  *Association
	mult   *Multiplicity
}

func newAgreeSet(t *testing.T, bits, shards int, opts ...core.Option) *agreeSet {
	t.Helper()
	f, err := New(bits, 8, shards, opts...)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAssociation(bits, 8, shards, opts...)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMultiplicity(bits, 8, 57, shards, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return &agreeSet{member: f, assoc: a, mult: m}
}

// nonMember is the i-th key no test stores.
func nonMember(i int) []byte { return benchKey(1<<40 + uint64(i)) }

// store adds keys [lo, hi): all to the membership filter in one batch;
// key i to S1, S2 or both by i mod 3 and to the multiset i mod 4 + 1
// times. With tolerant set, inserts refused for a saturated counter are
// skipped.
func (s *agreeSet) store(t *testing.T, lo, hi int, tolerant bool) {
	t.Helper()
	ok := func(err error) {
		t.Helper()
		if err != nil && !(tolerant && errors.Is(err, core.ErrCounterSaturated)) {
			t.Fatal(err)
		}
	}
	keys := make([][]byte, 0, hi-lo)
	for i := lo; i < hi; i++ {
		keys = append(keys, benchKey(uint64(i)))
	}
	ok(s.member.AddAll(keys))
	for j, e := range keys {
		i := lo + j
		if i%3 != 1 {
			ok(s.assoc.InsertS1(e))
		}
		if i%3 != 0 {
			ok(s.assoc.InsertS2(e))
		}
		for range i%4 + 1 {
			ok(s.mult.Insert(e))
		}
	}
}

// probes returns n keys alternating stored keys (below stored) and
// non-members.
func probes(n, stored int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		if i%2 == 0 && stored > 0 {
			keys[i] = benchKey(uint64(i / 2 % stored))
		} else {
			keys[i] = nonMember(i)
		}
	}
	return keys
}

// agree checks every batch answer against the per-key read. With an
// access counter attached (mc non-nil) it also checks that each batch
// read charged exactly the reads of its per-key loop.
func (s *agreeSet) agree(t *testing.T, keys [][]byte, mc *memmodel.Counter) {
	t.Helper()
	reads := func(run func()) uint64 {
		mc.Reset()
		run()
		return mc.Reads()
	}
	var (
		in      []bool
		regions []core.Region
		counts  []int
	)
	batch := [3]uint64{
		reads(func() { in = s.member.ContainsAll(nil, keys) }),
		reads(func() { regions = s.assoc.QueryAll(nil, keys) }),
		reads(func() { counts = s.mult.CountAll(nil, keys) }),
	}
	if len(in) != len(keys) || len(regions) != len(keys) || len(counts) != len(keys) {
		t.Fatalf("answer lengths %d, %d, %d for %d keys", len(in), len(regions), len(counts), len(keys))
	}
	scalar := [3]uint64{
		reads(func() {
			for i, e := range keys {
				if want := s.member.Contains(e); in[i] != want {
					t.Fatalf("key %d: ContainsAll %v, Contains %v", i, in[i], want)
				}
			}
		}),
		reads(func() {
			for i, e := range keys {
				if want := s.assoc.Query(e); regions[i] != want {
					t.Fatalf("key %d: QueryAll %v, Query %v", i, regions[i], want)
				}
			}
		}),
		reads(func() {
			for i, e := range keys {
				if want := s.mult.Count(e); counts[i] != want {
					t.Fatalf("key %d: CountAll %d, Count %d", i, counts[i], want)
				}
			}
		}),
	}
	if batch != scalar {
		t.Fatalf("batch reads charged %v accesses, per-key reads %v", batch, scalar)
	}
}

// saturate stores keys until every probe survives every round of every
// kind: every membership pair passes, and no association or
// multiplicity candidate mask empties.
func (s *agreeSet) saturate(t *testing.T, keys [][]byte) {
	t.Helper()
	for next := 0; next < 1<<16; next += 1024 {
		s.store(t, next, next+1024, true)
		full := true
		for _, e := range keys {
			if !s.member.Contains(e) || s.assoc.Query(e) == core.RegionNone || s.mult.Count(e) == 0 {
				full = false
				break
			}
		}
		if full {
			return
		}
	}
	t.Fatal("filters did not saturate")
}

// TestBenchPathsAgree pins the batch reads (ContainsAll, QueryAll,
// CountAll), whose core kinds run the round kernels, to the per-key
// reads at the kernels' edges: batch sizes around the round cutoff, a
// single group larger than one chunk, a dense filter where keys leave
// at every round, an empty one where every key leaves in the first
// round, a saturated one where every key survives every round, and the
// large-batch workload's fill probed with half non-members. With an
// access counter attached, the round kernels must bill exactly the
// reads of the per-key loop, for groups far above the cutoff too.
func TestBenchPathsAgree(t *testing.T) {
	const maxProbe = 4096
	sizes := []int{0, 1, core.RoundsCutoff - 1, core.RoundsCutoff, maxProbe}
	cases := []struct {
		name   string
		bits   int
		shards int
		// stored is the number of keys stored; -1 saturates.
		stored  int
		counted bool
	}{
		// 32 bits per member, the large-batch membership fill.
		{"large-batch fill", 1 << 20, benchShards, 1 << 15, false},
		// One group of 4096 keys spans four chunks.
		{"one shard", 1 << 20, 1, 1 << 15, false},
		// 8 bits per member: non-members leave at every round.
		{"dense", 1 << 16, benchShards, 1 << 13, false},
		{"empty", 1 << 20, benchShards, 0, false},
		{"saturated", 64 * benchShards, benchShards, -1, false},
		{"counted", 1 << 20, 1, 1 << 15, true},
	}
	if maxProbe <= core.RoundsChunk {
		t.Fatalf("largest batch %d does not exceed the chunk bound %d", maxProbe, core.RoundsChunk)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var mc *memmodel.Counter
			opts := []core.Option{core.WithSeed(1)}
			if c.counted {
				mc = new(memmodel.Counter)
				opts = append(opts, core.WithAccessCounter(mc))
			}
			s := newAgreeSet(t, c.bits, c.shards, opts...)
			stored := c.stored
			switch {
			case stored < 0:
				stored = 0
				s.saturate(t, probes(maxProbe, 0))
			case stored > 0:
				s.store(t, 0, stored, false)
				if n := s.member.N(); n != stored {
					t.Fatalf("N = %d after batch add, want %d", n, stored)
				}
			}
			for _, n := range sizes {
				t.Run(fmt.Sprint(n), func(t *testing.T) {
					s.agree(t, probes(n, stored), mc)
				})
			}
		})
	}
}

// TestConcurrentBatchReads runs batch readers of all three kinds on
// shared shards while a writer stores fresh keys. Each group holds far
// more keys than the round cutoff, so every reader runs the round
// kernels inside a shard's read lock at the same time as others; any
// scratch shared between them would race. Preloaded members must stay
// present, association answers must contain the true region, and
// counts must never fall below the preload.
func TestConcurrentBatchReads(t *testing.T) {
	const (
		readers = 8
		preload = 2048
		batch   = 1024
		iters   = 20
		shards  = 4
	)
	if batch/shards < 4*core.RoundsCutoff {
		t.Fatalf("groups of ~%d keys would not run the round kernels", batch/shards)
	}
	s := newAgreeSet(t, 1<<18, shards, core.WithSeed(3))
	s.store(t, 0, preload, false)
	region := func(i int) core.Region {
		switch i % 3 {
		case 0:
			return core.RegionS1Only
		case 1:
			return core.RegionS2Only
		}
		return core.RegionBoth
	}

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		fresh := make([][]byte, 64)
		for n := 0; n < 1<<14; n += len(fresh) {
			select {
			case <-stop:
				return
			default:
			}
			for i := range fresh {
				fresh[i] = nonMember(1<<20 + n + i)
			}
			if err := s.member.AddAll(fresh); err != nil {
				t.Error(err)
				return
			}
			for _, e := range fresh {
				if err := s.assoc.InsertS1(e); err != nil {
					t.Error(err)
					return
				}
			}
			if err := s.mult.AddAll(fresh); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys := make([][]byte, batch)
			var (
				in      []bool
				regions []core.Region
				counts  []int
			)
			for it := range iters {
				first := (r*iters + it) * 97 % preload
				for i := range keys {
					keys[i] = benchKey(uint64((first + i) % preload))
				}
				in = s.member.ContainsAll(in, keys)
				regions = s.assoc.QueryAll(regions, keys)
				counts = s.mult.CountAll(counts, keys)
				for i := range keys {
					k := (first + i) % preload
					if !in[i] {
						t.Errorf("reader %d: member %d absent", r, k)
						return
					}
					if regions[i]&region(k) == 0 {
						t.Errorf("reader %d: key %d answered %v, true region %v", r, k, regions[i], region(k))
						return
					}
					if counts[i] < k%4+1 {
						t.Errorf("reader %d: key %d counted %d, stored %d", r, k, counts[i], k%4+1)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-writerDone
}

// atLeastTwoProcs raises GOMAXPROCS to at least 2 for the test's
// duration, so that batch adds of 2·core.RoundsChunk keys or more fan
// out whatever the host's core count.
func atLeastTwoProcs(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// batchWriter is the surface TestBatchWritesAgree compares: a batch
// write, the filter's bytes and its element count.
type batchWriter interface {
	AddAll(keys [][]byte) error
	MarshalBinary() ([]byte, error)
	N() int
}

// writeKind is one batch-write kind: build returns an empty filter of
// the given geometry, and one applies a single key through the per-key
// Add or Insert.
type writeKind struct {
	name  string
	build func(bits, shards int, opts []core.Option) (batchWriter, error)
	one   func(f batchWriter, e []byte) error
	// counted reports whether build honours core.WithAccessCounter.
	counted bool
	// workers returns how many goroutines AddAll writes n keys on; nil
	// for the kinds whose batches never fan out.
	workers func(f batchWriter, n int) int
}

var writeKinds = []writeKind{
	{
		name: "Filter",
		build: func(bits, shards int, opts []core.Option) (batchWriter, error) {
			return New(bits, 8, shards, opts...)
		},
		one:     func(f batchWriter, e []byte) error { f.(*Filter).Add(e); return nil },
		counted: true,
		workers: func(f batchWriter, n int) int { return f.(*Filter).set.addWorkers(n) },
	},
	{
		name: "Window",
		build: func(bits, shards int, _ []core.Option) (batchWriter, error) {
			return NewWindow(core.Spec{Kind: core.KindWindowShardedMembership,
				M: bits, K: 8, Shards: shards, Generations: 3, Seed: 1})
		},
		one:     func(f batchWriter, e []byte) error { f.(*Window).Add(e); return nil },
		workers: func(f batchWriter, n int) int { return f.(*Window).set.addWorkers(n) },
	},
	{
		name: "Multiplicity",
		build: func(bits, shards int, opts []core.Option) (batchWriter, error) {
			return NewMultiplicity(bits, 8, 57, shards, opts...)
		},
		one:     func(f batchWriter, e []byte) error { return f.(*Multiplicity).Insert(e) },
		counted: true,
	},
}

// perKeyWrite is a batch write spelled out one key at a time, in the
// order the batch path promises: shard by shard in index order, each
// shard's keys in batch order, stopping at the first failure with the
// failing key's batch index.
func perKeyWrite(keys [][]byte, shards int, one func([]byte) error) error {
	mask := uint64(shards - 1)
	for s := uint64(0); s <= mask; s++ {
		for j, e := range keys {
			if hashing.KeyDigest(e).Shard(mask) != s {
				continue
			}
			if err := one(e); err != nil {
				return fmt.Errorf("sharded: key %d: %w", j, err)
			}
		}
	}
	return nil
}

// hotKey is the key the overflow case repeats in every batch.
var hotKey = benchKey(1 << 50)

// TestBatchWritesAgree pins each batch write (Filter.AddAll and
// Window.AddAll, whose groups run the membership write kernel, and
// Multiplicity.AddAll, which applies per key) to the per-key loop on a
// twin filter: after every batch both filters marshal to identical
// bytes, report equal N() and return the same error. Batches of each
// size in turn land on the same pair, so later batches write into an
// already filled array. The cases cover the kernel's edges: sizes
// around the round cutoff, a one-shard group spanning several chunks,
// keys repeated within a batch, a dense array where different keys'
// pairs share words, an access counter (the batch must charge exactly
// the per-key loop's accesses), and a multiplicity batch that overflows
// midway (same error text, same keys applied). The test runs at
// GOMAXPROCS ≥ 2, so the membership kinds' 4096-key batches over
// several shards fan out (batchAdd) while the per-key twin writes on
// one goroutine; with an access counter attached, or over one shard,
// they must not fan out.
func TestBatchWritesAgree(t *testing.T) {
	atLeastTwoProcs(t)
	sizes := []int{0, 1, core.RoundsCutoff - 1, core.RoundsCutoff, 4096}
	cases := []struct {
		name    string
		bits    int
		shards  int
		counted bool
		// key returns the i-th key of the batch holding keys [lo, lo+n).
		key func(lo, n, i int) []byte
	}{
		{"distinct", 1 << 20, benchShards, false, nil},
		// One group of 4096 keys spans four chunks.
		{"one shard", 1 << 20, 1, false, nil},
		{"repeated keys", 1 << 20, benchShards, false, func(lo, n, i int) []byte {
			return benchKey(uint64(lo + i%(n/4+1)))
		}},
		// 1024 bits per shard: different keys' pairs share words.
		{"dense", 1 << 14, benchShards, false, nil},
		{"counted", 1 << 20, 1, true, nil},
		// Every third key is the same key: its multiplicity passes
		// c = 57 midway through the last batch.
		{"overflow", 1 << 20, benchShards, false, func(lo, _, i int) []byte {
			if i%3 == 0 {
				return hotKey
			}
			return benchKey(uint64(lo + i))
		}},
		// The shards share one counter, so no batch may fan out.
		{"counted shards", 1 << 20, benchShards, true, nil},
	}
	if sizes[len(sizes)-1] <= core.RoundsChunk {
		t.Fatalf("largest batch %d does not exceed the chunk bound %d", sizes[len(sizes)-1], core.RoundsChunk)
	}
	for _, kind := range writeKinds {
		for _, c := range cases {
			if c.counted && !kind.counted {
				continue
			}
			t.Run(kind.name+"/"+c.name, func(t *testing.T) {
				var mcs [2]memmodel.Counter
				var fs [2]batchWriter
				for i := range fs {
					opts := []core.Option{core.WithSeed(1)}
					if c.counted {
						opts = append(opts, core.WithAccessCounter(&mcs[i]))
					}
					f, err := kind.build(c.bits, c.shards, opts)
					if err != nil {
						t.Fatal(err)
					}
					fs[i] = f
				}
				batch, twin := fs[0], fs[1]
				if kind.workers != nil {
					n := sizes[len(sizes)-1]
					got, fan := kind.workers(batch, n), c.shards > 1 && !c.counted
					if fan != (got > 1) {
						t.Fatalf("%d keys over %d shards (counted %v) fan out over %d workers", n, c.shards, c.counted, got)
					}
				}
				lo, failed := 0, false
				for _, n := range sizes {
					keys := make([][]byte, n)
					for i := range keys {
						if c.key != nil {
							keys[i] = c.key(lo, n, i)
						} else {
							keys[i] = benchKey(uint64(lo + i))
						}
					}
					lo += n
					errBatch := batch.AddAll(keys)
					errTwin := perKeyWrite(keys, c.shards, func(e []byte) error { return kind.one(twin, e) })
					if fmt.Sprint(errBatch) != fmt.Sprint(errTwin) {
						t.Fatalf("%d keys: AddAll error %v, per-key loop %v", n, errBatch, errTwin)
					}
					failed = failed || errBatch != nil
					got, err := batch.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					want, err := twin.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%d keys: AddAll and the per-key loop leave different bytes", n)
					}
					if batch.N() != twin.N() {
						t.Fatalf("%d keys: N() = %d after AddAll, %d after the per-key loop", n, batch.N(), twin.N())
					}
					if mcs[0] != mcs[1] {
						t.Fatalf("%d keys: AddAll charged %v, the per-key loop %v", n, &mcs[0], &mcs[1])
					}
				}
				if overflow := c.name == "overflow" && kind.name == "Multiplicity"; failed != overflow {
					t.Fatalf("some batch failed: %v, want %v", failed, overflow)
				}
			})
		}
	}
}

// TestConcurrentBatchWrites runs batch writers on shared shards while
// batch readers probe. Each writer's groups hold 256 keys or more, far
// above the round cutoff, so writers run the write kernel under a
// shard's write lock while others wait on it or read; any scratch
// shared between them would race. Half the writers write batches of
// 2·core.RoundsChunk keys at GOMAXPROCS ≥ 2, so each of their batches
// fans out over two goroutines, each writing its own shards. Preloaded
// members must stay present throughout, and afterwards every written
// key must be present and N() must count every write.
func TestConcurrentBatchWrites(t *testing.T) {
	atLeastTwoProcs(t)
	const (
		writers = 4
		readers = 4
		preload = 2048
		batch   = 1024
		iters   = 8
		shards  = 4
	)
	// batchOf is writer w's batch size.
	batchOf := func(w int) int { return []int{batch, 2 * core.RoundsChunk}[w%2] }
	if batch/shards < 4*core.RoundsCutoff {
		t.Fatalf("groups of ~%d keys would not run the write kernel", batch/shards)
	}
	f, err := New(1<<20, 8, shards, core.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if n := f.set.addWorkers(batchOf(1)); n < 2 {
		t.Fatalf("a %d-key batch writes on %d goroutine(s), want a fan-out", batchOf(1), n)
	}
	// writerKey is writer w's i-th key; the ranges are disjoint from
	// each other and from the preload.
	writerKey := func(w, i int) []byte { return nonMember(1<<24*(w+1) + i) }
	if err := f.AddAll(benchKeys(preload)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := range readers {
		rg.Add(1)
		go func() {
			defer rg.Done()
			keys := make([][]byte, batch)
			var in []bool
			for it := 0; ; it++ {
				select {
				case <-stop:
					return
				default:
				}
				first := (r*31 + it*97) % preload
				for i := range keys {
					keys[i] = benchKey(uint64((first + i) % preload))
				}
				in = f.ContainsAll(in, keys)
				for i, ok := range in {
					if !ok {
						t.Errorf("reader %d: member %d absent", r, (first+i)%preload)
						return
					}
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys := make([][]byte, batchOf(w))
			for it := range iters {
				for i := range keys {
					keys[i] = writerKey(w, it*len(keys)+i)
				}
				if err := f.AddAll(keys); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()

	want := preload
	for w := range writers {
		want += iters * batchOf(w)
	}
	if n := f.N(); n != want {
		t.Fatalf("N() = %d, want %d", n, want)
	}
	for w := range writers {
		keys := make([][]byte, iters*batchOf(w))
		for i := range keys {
			keys[i] = writerKey(w, i)
		}
		for i, ok := range f.ContainsAll(nil, keys) {
			if !ok {
				t.Fatalf("writer %d's key %d absent", w, i)
			}
		}
	}
}
