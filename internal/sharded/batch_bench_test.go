package sharded

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"

	"shbf/internal/core"
)

// The Batch* benchmarks demonstrate the point of the batch-first
// paths: grouping a request batch by shard takes each shard lock once
// per batch instead of once per key. Run the pairs side by side:
//
//	go test -bench=Batch -benchtime=2s ./internal/sharded/
//
// The *Loop variants are the per-key baselines the serving layer used
// before the batch API existed.

const (
	benchBatch  = 1024
	benchShards = 16
)

func benchKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = benchKey(uint64(i))
	}
	return keys
}

// benchKey is the i-th 13-byte benchmark key.
func benchKey(i uint64) []byte {
	k := make([]byte, 13)
	binary.LittleEndian.PutUint64(k, i*0x9e3779b97f4a7c15)
	return k
}

func benchFilter(b *testing.B) (*Filter, [][]byte) {
	b.Helper()
	f, err := New(1<<22, 8, benchShards, core.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(benchBatch)
	if err := f.AddAll(keys); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	return f, keys
}

func BenchmarkBatchContainsAll(b *testing.B) {
	f, keys := benchFilter(b)
	dst := make([]bool, len(keys))
	for i := 0; i < b.N; i++ {
		dst = f.ContainsAll(dst, keys)
	}
}

func BenchmarkBatchContainsLoop(b *testing.B) {
	f, keys := benchFilter(b)
	dst := make([]bool, len(keys))
	for i := 0; i < b.N; i++ {
		for j, e := range keys {
			dst[j] = f.Contains(e)
		}
	}
}

// The parallel variants model the daemon: many goroutines each serving
// whole request batches against one logical filter. Lock amortization
// matters most here, where per-key locking also buys cross-core
// contention per key.
func BenchmarkBatchContainsAllParallel(b *testing.B) {
	f, keys := benchFilter(b)
	b.RunParallel(func(pb *testing.PB) {
		dst := make([]bool, len(keys))
		for pb.Next() {
			dst = f.ContainsAll(dst, keys)
		}
	})
}

func BenchmarkBatchContainsLoopParallel(b *testing.B) {
	f, keys := benchFilter(b)
	b.RunParallel(func(pb *testing.PB) {
		dst := make([]bool, len(keys))
		for pb.Next() {
			for j, e := range keys {
				dst[j] = f.Contains(e)
			}
		}
	})
}

func BenchmarkBatchAddAll(b *testing.B) {
	f, keys := benchFilter(b)
	for i := 0; i < b.N; i++ {
		if err := f.AddAll(keys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatchAddLoop(b *testing.B) {
	f, keys := benchFilter(b)
	for i := 0; i < b.N; i++ {
		for _, e := range keys {
			f.Add(e)
		}
	}
}

func BenchmarkBatchCountAll(b *testing.B) {
	f, err := NewMultiplicity(1<<22, 4, 57, benchShards, core.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(benchBatch)
	if err := f.AddAll(keys); err != nil {
		b.Fatal(err)
	}
	dst := make([]int, len(keys))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = f.CountAll(dst, keys)
	}
}

func BenchmarkBatchCountLoop(b *testing.B) {
	f, err := NewMultiplicity(1<<22, 4, 57, benchShards, core.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(benchBatch)
	if err := f.AddAll(keys); err != nil {
		b.Fatal(err)
	}
	dst := make([]int, len(keys))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, e := range keys {
			dst[j] = f.Count(e)
		}
	}
}

// The BatchProbeCold benchmarks measure the batch probe where the
// round kernels pay off: arrays far larger than the cache, probed with
// large batches that never repeat back to back, so nearly every window
// load misses. They use the large-batch workload's geometry — 16
// shards, k = 8, a 256 Mibit membership filter holding 8Mi members
// and 64 Mibit association and multiplicity filters holding 256Ki keys
// each (c = 57) — and cycle through coldBatches distinct 4096-key
// batches. Contains probes are half members, half never-added keys;
// Query and Count probe stored keys, as the workload does. Run with
//
//	go test -run '^$' -bench BatchProbeCold -cpu 1 ./internal/sharded/
//
// and read ns/key. The preload (a few seconds, ~150 MiB) is built once
// per process and shared by the three.

const (
	coldBatch   = 4096
	coldBatches = 64
	coldMembers = 8 << 20
	coldStored  = 1 << 18
)

type coldFixture struct {
	member   *Filter
	assoc    *Association
	mult     *Multiplicity
	contains [][][]byte // half members, half non-members
	stored   [][][]byte // association and multiplicity keys
}

var (
	coldOnce sync.Once
	cold     coldFixture
	coldErr  error
)

func coldSetup(b *testing.B) *coldFixture {
	b.Helper()
	coldOnce.Do(func() {
		coldErr = cold.build()
		// Collect the preload's garbage now, not in the first timed loop.
		runtime.GC()
	})
	if coldErr != nil {
		b.Fatal(coldErr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	return &cold
}

func (c *coldFixture) build() error {
	var err error
	if c.member, err = New(256<<20, 8, benchShards, core.WithSeed(1)); err != nil {
		return err
	}
	if c.assoc, err = NewAssociation(64<<20, 8, benchShards, core.WithSeed(1)); err != nil {
		return err
	}
	if c.mult, err = NewMultiplicity(64<<20, 8, 57, benchShards, core.WithSeed(1)); err != nil {
		return err
	}
	batch := make([][]byte, coldBatch)
	for base := uint64(0); base < coldMembers; base += coldBatch {
		for i := range batch {
			batch[i] = benchKey(base + uint64(i))
		}
		if err := c.member.AddAll(batch); err != nil {
			return err
		}
	}
	// Stored keys come from their own index range; key i goes to S1,
	// S2 or both by i mod 3 and is counted i mod 4 + 1 times.
	const storedBase = 1 << 40
	for i := uint64(0); i < coldStored; i++ {
		e := benchKey(storedBase + i)
		if i%3 != 1 {
			if err := c.assoc.InsertS1(e); err != nil {
				return err
			}
		}
		if i%3 != 0 {
			if err := c.assoc.InsertS2(e); err != nil {
				return err
			}
		}
		for range i%4 + 1 {
			if err := c.mult.Insert(e); err != nil {
				return err
			}
		}
	}
	rng := rand.New(rand.NewPCG(7, 7))
	c.contains = make([][][]byte, coldBatches)
	c.stored = make([][][]byte, coldBatches)
	for n := range coldBatches {
		c.contains[n] = make([][]byte, coldBatch)
		c.stored[n] = make([][]byte, coldBatch)
		for i := range coldBatch {
			if i%2 == 0 {
				c.contains[n][i] = benchKey(rng.Uint64N(coldMembers))
			} else {
				c.contains[n][i] = benchKey(coldMembers + rng.Uint64N(1<<39))
			}
			c.stored[n][i] = benchKey(storedBase + rng.Uint64N(coldStored))
		}
	}
	return nil
}

// reportPerKey reports the time per key of a benchmark whose every
// operation handles n keys.
func reportPerKey(b *testing.B, n int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/key")
}

func BenchmarkBatchProbeColdContains(b *testing.B) {
	c := coldSetup(b)
	dst := make([]bool, coldBatch)
	for i := 0; i < b.N; i++ {
		dst = c.member.ContainsAll(dst, c.contains[i%coldBatches])
	}
	reportPerKey(b, coldBatch)
}

func BenchmarkBatchProbeColdQuery(b *testing.B) {
	c := coldSetup(b)
	dst := make([]core.Region, coldBatch)
	for i := 0; i < b.N; i++ {
		dst = c.assoc.QueryAll(dst, c.stored[i%coldBatches])
	}
	reportPerKey(b, coldBatch)
}

func BenchmarkBatchProbeColdCount(b *testing.B) {
	c := coldSetup(b)
	dst := make([]int, coldBatch)
	for i := 0; i < b.N; i++ {
		dst = c.mult.CountAll(dst, c.stored[i%coldBatches])
	}
	reportPerKey(b, coldBatch)
}

// BenchmarkBatchAddCold measures the batch add where the write kernel
// pays off: the large-batch workload's membership geometry (256 Mibit
// across 16 shards, k = 8), far larger than the cache, written with
// distinct batches in turn, so nearly every pair's word misses. Each
// batch size (large-batch sends 4096 keys) cycles through
// coldBatches·coldBatch keys, and one untimed pass over them writes
// ~128 pairs into every 4 KiB page, so the timed loop pays no
// first-touch page faults. It builds its own filter, so the
// BatchProbeCold fixture's fill does not drift. At -cpu 1 every batch
// is written on the calling goroutine; at -cpu 2 or more a batch of
// 2·core.RoundsChunk keys or more fans out over disjoint shard ranges
// (batchAdd), so run both:
//
//	go test -run '^$' -bench BatchAddCold -cpu 1,2 ./internal/sharded/
//
// and read ns/key.
func BenchmarkBatchAddCold(b *testing.B) {
	for _, n := range []int{1024, 2048, coldBatch} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) { benchAddCold(b, n) })
	}
}

func benchAddCold(b *testing.B, n int) {
	f, err := New(256<<20, 8, benchShards, core.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	batches := make([][][]byte, coldBatches*coldBatch/n)
	for j := range batches {
		batches[j] = make([][]byte, n)
		for i := range batches[j] {
			batches[j][i] = benchKey(uint64(j*n + i))
		}
	}
	for _, keys := range batches {
		if err := f.AddAll(keys); err != nil {
			b.Fatal(err)
		}
	}
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.AddAll(batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
	}
	reportPerKey(b, n)
}
