//go:build !race

// (The race detector makes sync.Pool drop items on purpose, and the
// sharded batch reads plan their groups in a pooled plan, so allocs/op
// is meaningless under -race.)

package shbf_test

import (
	"fmt"
	"testing"
)

// TestPerfHotPathsAllocateNothing holds every case of the Perf
// benchmarks (perf_bench_test.go) to zero allocations per operation:
// Add, Contains, AddAll and ContainsAll in every mode and at every k,
// on the filters and keys the benchmarks time.
func TestPerfHotPathsAllocateNothing(t *testing.T) {
	for _, mode := range perfModes {
		for _, k := range perfKs {
			add, keys := perfFilter(t, mode, k, false)
			full, _ := perfFilter(t, mode, k, true)
			batch := perfBatchOf(keys)
			dst := make([]bool, len(batch))
			i := 0
			for _, op := range []struct {
				name string
				run  func()
			}{
				{"Add", func() { add.Add(keys[i%len(keys)]); i++ }},
				{"Contains", func() { full.Contains(keys[i%len(keys)]); i++ }},
				{"AddAll", func() {
					if err := add.AddAll(batch); err != nil {
						t.Fatal(err)
					}
				}},
				{"ContainsAll", func() { dst = full.ContainsAll(dst, batch) }},
			} {
				name := fmt.Sprintf("%s/%s/k=%d", op.name, mode, k)
				if avg := testing.AllocsPerRun(100, op.run); avg != 0 {
					t.Errorf("%s: %.2f allocs/op, want 0", name, avg)
				}
			}
		}
	}
}
