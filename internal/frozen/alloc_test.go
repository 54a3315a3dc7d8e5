//go:build !race

// (The race detector makes sync.Pool drop items on purpose, and
// ContainsAll groups its batch in a pooled plan, so allocs/op is
// meaningless under -race.)

package frozen

import (
	"runtime"
	"testing"

	"shbf/internal/core"
	"shbf/internal/flowkeys"
	"shbf/internal/sharded"
)

// TestFrozenZeroAlloc is the zero-allocation guard on the frozen query
// path: Contains and ContainsAll (with a reused dst) must not allocate.
func TestFrozenZeroAlloc(t *testing.T) {
	keys := flowkeys.Keys(4096)
	live, err := sharded.New(1<<18, 8, 4, core.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := live.AddAll(keys[:2048]); err != nil {
		t.Fatal(err)
	}
	blob, err := Append(nil, live)
	if err != nil {
		t.Fatal(err)
	}
	fz, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	probe := keys[1]
	if allocs := testing.AllocsPerRun(100, func() {
		fz.Contains(probe)
	}); allocs != 0 {
		t.Fatalf("frozen Contains allocates %.1f/op, want 0", allocs)
	}
	dst := make([]bool, 0, len(keys))
	if allocs := testing.AllocsPerRun(100, func() {
		dst = fz.ContainsAll(dst[:0], keys)
	}); allocs != 0 {
		t.Fatalf("frozen ContainsAll allocates %.1f/op, want 0", allocs)
	}
}

// TestFrozenOpenAllocs pins what Open costs: at most 5 allocations
// for a 1-shard container and 50 for a 16-shard one (the handle, the
// view slice, and each shard's view and hash family), and for aligned
// input far fewer bytes than the container holds, because no section
// is copied. The same container at an odd offset is copied once.
func TestFrozenOpenAllocs(t *testing.T) {
	for _, tc := range []struct {
		shards    int
		maxAllocs float64
	}{{1, 5}, {16, 50}} {
		blob := openContainer(t, tc.shards)
		if allocs := testing.AllocsPerRun(100, func() { _, _ = Open(blob) }); allocs > tc.maxAllocs {
			t.Errorf("%d shards: Open allocates %.0f times, want at most %.0f", tc.shards, allocs, tc.maxAllocs)
		}
		if got := openBytes(t, blob); got > uint64(len(blob)/64) {
			t.Errorf("%d shards: an aligned open of %d bytes allocates %d bytes, so it copied", tc.shards, len(blob), got)
		}
		odd := append(make([]byte, 1, len(blob)+1), blob...)[1:]
		if got := openBytes(t, odd); got < uint64(len(blob)-headerSize) {
			t.Errorf("%d shards: an unaligned open allocates %d bytes, less than the %d-byte sections", tc.shards, got, len(blob)-headerSize)
		}
	}
}

// openBytes returns the bytes allocated per Open of data.
func openBytes(t *testing.T, data []byte) uint64 {
	t.Helper()
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Open(data); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}
