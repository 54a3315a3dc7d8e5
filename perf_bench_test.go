package shbf_test

// perf_bench_test.go is the hot-path suite behind the paper's speed
// claims: k/2+1 hash computations per key, and Figure 9's query speed.
// It times Add, Contains, AddAll and ContainsAll on 13-byte flow-ID
// keys at k ∈ {4, 8, 16} in three modes:
//
//   - scalar: ShBF_M at serving scale (m = 2·perfN·k over perfN keys);
//   - sharded: the lock-striped wrapper at the same scale;
//   - paper: ShBF_M at Figure 9(b)'s operating point (m = 4128·k over
//     the first 1,000 keys), an L1-resident array where hashing, not
//     memory, sets the cost. The serving-scale modes share a memory
//     floor between any two hashing schemes, so their gaps are lower
//     bounds.
//
// Run
//
//	go test -bench Perf -benchmem -run '^$' .
//
// To compare two commits, build each side's test binary (go test -c)
// and alternate them; host load moves both sides. Every `go test`
// holds the same 36 cases to zero allocations
// (TestPerfHotPathsAllocateNothing, perf_alloc_test.go).

import (
	"fmt"
	"testing"

	"shbf"
	"shbf/internal/flowkeys"
)

const (
	perfN      = 1 << 16
	perfBatch  = 1024
	perfShards = 16
	perfPaperN = 1000
)

var (
	perfModes = []string{"scalar", "sharded", "paper"}
	perfKs    = []int{4, 8, 16}
)

// perfSet is the common Set surface of the scalar and sharded filters.
type perfSet interface {
	Add(e []byte)
	Contains(e []byte) bool
	AddAll(keys [][]byte) error
	ContainsAll(dst []bool, keys [][]byte) []bool
}

// perfFilter builds mode's filter at k and returns it with its key
// pool (perfN keys, or perfPaperN in paper mode), all of them added
// when fill is set.
func perfFilter(tb testing.TB, mode string, k int, fill bool) (perfSet, [][]byte) {
	tb.Helper()
	keys := flowkeys.Keys(perfN)
	m := 2 * perfN * k
	var (
		f   perfSet
		err error
	)
	switch mode {
	case "sharded":
		f, err = shbf.NewShardedMembership(m, k, perfShards, shbf.WithSeed(1))
	case "paper":
		keys = keys[:perfPaperN]
		f, err = shbf.NewMembership(4128*k, k, shbf.WithSeed(1))
	default:
		f, err = shbf.NewMembership(m, k, shbf.WithSeed(1))
	}
	if err != nil {
		tb.Fatal(err)
	}
	if fill {
		if err := f.AddAll(keys); err != nil {
			tb.Fatal(err)
		}
	}
	return f, keys
}

// perfBatchOf is the batch the batch ops take from a key pool: its
// first perfBatch keys, or the whole paper-mode pool.
func perfBatchOf(keys [][]byte) [][]byte { return keys[:min(perfBatch, len(keys))] }

// perfCases runs body as one sub-benchmark per mode and k, on a filter
// from perfFilter.
func perfCases(b *testing.B, fill bool, body func(b *testing.B, f perfSet, keys [][]byte)) {
	for _, mode := range perfModes {
		for _, k := range perfKs {
			b.Run(fmt.Sprintf("%s/k=%d", mode, k), func(b *testing.B) {
				f, keys := perfFilter(b, mode, k, fill)
				b.ReportAllocs()
				b.ResetTimer()
				body(b, f, keys)
			})
		}
	}
}

func BenchmarkPerfAdd(b *testing.B) {
	perfCases(b, false, func(b *testing.B, f perfSet, keys [][]byte) {
		for i, j := 0, 0; i < b.N; i++ {
			f.Add(keys[j])
			if j++; j == len(keys) {
				j = 0
			}
		}
	})
}

func BenchmarkPerfContains(b *testing.B) {
	perfCases(b, true, func(b *testing.B, f perfSet, keys [][]byte) {
		for i, j := 0, 0; i < b.N; i++ {
			f.Contains(keys[j])
			if j++; j == len(keys) {
				j = 0
			}
		}
	})
}

func BenchmarkPerfAddAll(b *testing.B) {
	perfCases(b, false, func(b *testing.B, f perfSet, keys [][]byte) {
		batch := perfBatchOf(keys)
		for i := 0; i < b.N; i++ {
			if err := f.AddAll(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkPerfContainsAll(b *testing.B) {
	perfCases(b, true, func(b *testing.B, f perfSet, keys [][]byte) {
		batch := perfBatchOf(keys)
		dst := make([]bool, len(batch))
		for i := 0; i < b.N; i++ {
			dst = f.ContainsAll(dst, batch)
		}
	})
}
