package sharded

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shbf/internal/core"
)

func windowSpec(g, shards int) core.Spec {
	return core.Spec{Kind: core.KindWindowShardedMembership, M: 1 << 18, K: 8,
		Shards: shards, Generations: g, Seed: 11}
}

func windowKeys(prefix string, n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("%s-%07d", prefix, i))
	}
	return keys
}

// TestWindowExpiry: the sharded composition keeps the ring contract —
// keys live G−1..G rotations, then expire, across every shard.
func TestWindowExpiry(t *testing.T) {
	const g = 3
	w, err := NewWindow(windowSpec(g, 8))
	if err != nil {
		t.Fatal(err)
	}
	keys := windowKeys("flow", 2000)
	if err := w.AddAll(keys); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < g-1; r++ {
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	dst := w.ContainsAll(nil, keys)
	for i := range keys {
		if !dst[i] {
			t.Fatalf("key %d lost before its generation was retired", i)
		}
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	dst = w.ContainsAll(dst, keys)
	hits := 0
	for i := range keys {
		if dst[i] {
			hits++
		}
	}
	// Only hash-collision false positives may remain.
	if hits > len(keys)/100 {
		t.Fatalf("%d of %d keys still answer true after %d rotations", hits, len(keys), g)
	}
	if got := w.Window().Epoch; got != g {
		t.Fatalf("epoch %d after %d rotations", got, g)
	}
}

// TestWindowBatchEqualsScalar across shard routing and rotations.
func TestWindowBatchEqualsScalar(t *testing.T) {
	w, err := NewWindow(windowSpec(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	var probes [][]byte
	for tick := 0; tick < 5; tick++ {
		batch := windowKeys(fmt.Sprintf("t%d", tick), 400)
		if err := w.AddAll(batch); err != nil {
			t.Fatal(err)
		}
		probes = append(probes, batch[:100]...)
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	probes = append(probes, windowKeys("never", 400)...)
	dst := w.ContainsAll(nil, probes)
	for i, e := range probes {
		if dst[i] != w.Contains(e) {
			t.Fatalf("key %d: batch %v scalar %v", i, dst[i], w.Contains(e))
		}
	}
}

// TestWindowConcurrentQueriesDuringRotation drives queries, writes and
// rotations from many goroutines; the race detector (CI's -race job)
// checks the striped locking. The visibility invariant — just-written
// keys answer true — can only be asserted for iterations no rotation
// overlapped (a stalled worker's keys may legitimately expire if G
// rotations slip between its write and its read), so each iteration
// brackets itself with the window epoch and asserts only when the
// epoch held still.
func TestWindowConcurrentQueriesDuringRotation(t *testing.T) {
	w, err := NewWindow(windowSpec(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	checked := make([]atomic.Int64, workers)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			keys := windowKeys(fmt.Sprintf("w%d", wk), 64)
			dst := make([]bool, len(keys))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				e0 := w.Window().Epoch
				if err := w.AddAll(keys); err != nil {
					t.Error(err)
					return
				}
				dst = w.ContainsAll(dst, keys)
				if w.Window().Epoch != e0 {
					continue // a rotation overlapped; visibility not guaranteed
				}
				checked[wk].Add(1)
				for j := range dst {
					if !dst[j] {
						t.Errorf("worker %d iteration %d: fresh key %d invisible with no rotation in flight", wk, i, j)
						return
					}
				}
			}
		}(wk)
	}
	for r := 0; r < 50; r++ {
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	// Rotations are done; let every worker complete at least one
	// rotation-free iteration so the visibility assertion has teeth.
	deadline := time.Now().Add(10 * time.Second)
	for wk := range checked {
		for checked[wk].Load() == 0 {
			if time.Now().After(deadline) {
				t.Errorf("worker %d never got a rotation-free iteration to assert on", wk)
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()
}

// TestWindowMarshalRoundTrip: the shard-set snapshot of ShBW rings
// restores contents, head positions and epochs.
func TestWindowMarshalRoundTrip(t *testing.T) {
	spec := windowSpec(3, 4)
	spec.Tick = 30 * time.Second
	w, err := NewWindow(spec)
	if err != nil {
		t.Fatal(err)
	}
	old := windowKeys("old", 500)
	live := windowKeys("live", 500)
	if err := w.AddAll(old); err != nil {
		t.Fatal(err)
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := w.AddAll(live); err != nil {
		t.Fatal(err)
	}
	blob, err := w.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Window
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if back.Spec() != w.Spec() {
		t.Fatalf("spec changed: %+v vs %+v", back.Spec(), w.Spec())
	}
	if got := back.Window().Epoch; got != 1 {
		t.Fatalf("restored epoch %d, want 1", got)
	}
	for _, e := range live {
		if !back.Contains(e) {
			t.Fatalf("live key %q lost across round trip", e)
		}
	}
	// Two more rotations must retire old (3 total) but keep live alive
	// for one of them — the restored head position decides which.
	for i := 0; i < 2; i++ {
		if err := back.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	liveHits, oldHits := 0, 0
	for i := range live {
		if back.Contains(live[i]) {
			liveHits++
		}
		if back.Contains(old[i]) {
			oldHits++
		}
	}
	if liveHits != len(live) {
		t.Fatalf("live generation expired too early: %d/%d", liveHits, len(live))
	}
	if oldHits > len(old)/50 {
		t.Fatalf("old generation survived %d rotations: %d/%d hits", 3, oldHits, len(old))
	}
}

// TestWindowMultiplicitySharded: counts route, sum, and expire.
func TestWindowMultiplicitySharded(t *testing.T) {
	spec := core.Spec{Kind: core.KindWindowShardedMultiplicity, M: 1 << 19, K: 4, C: 57,
		Shards: 4, Generations: 2, Seed: 3, CounterWidth: 8}
	w, err := NewWindowMultiplicity(spec)
	if err != nil {
		t.Fatal(err)
	}
	keys := windowKeys("cnt", 300)
	for round := 0; round < 3; round++ {
		if err := w.AddAll(keys); err != nil {
			t.Fatal(err)
		}
	}
	dst := w.CountAll(nil, keys)
	for i := range keys {
		if dst[i] < 3 {
			t.Fatalf("key %d count %d underestimates 3", i, dst[i])
		}
		if dst[i] != w.Count(keys[i]) {
			t.Fatalf("key %d batch/scalar mismatch", i)
		}
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if got := w.Count(keys[i]); got != 0 {
			t.Fatalf("key %d count %d after full expiry", i, got)
		}
	}
}

// TestWindowAssociationSharded: region answers union across ring and
// shards, and round-trip through the snapshot.
func TestWindowAssociationSharded(t *testing.T) {
	spec := core.Spec{Kind: core.KindWindowShardedAssociation, M: 1 << 18, K: 4,
		Shards: 4, Generations: 3, Seed: 3}
	w, err := NewWindowAssociation(spec)
	if err != nil {
		t.Fatal(err)
	}
	keys := windowKeys("as", 400)
	for _, e := range keys[:200] {
		if err := w.InsertS1(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	for _, e := range keys[100:300] {
		if err := w.InsertS2(e); err != nil {
			t.Fatal(err)
		}
	}
	dst := w.QueryAll(nil, keys)
	for i, e := range keys {
		if dst[i] != w.Query(e) {
			t.Fatalf("key %d batch/scalar mismatch", i)
		}
	}
	// A key inserted into S1 one tick and S2 the next must keep both
	// candidates.
	r := w.Query(keys[150])
	if !r.Contains(core.RegionS1Only) || !r.Contains(core.RegionS2Only) {
		t.Fatalf("straddling key answers %s", r)
	}
	blob, err := w.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back WindowAssociation
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	for _, e := range keys {
		if back.Query(e) != w.Query(e) {
			t.Fatal("answers changed across round trip")
		}
	}
}

// TestWindowRotateIfDueLockstep: the wall-clock policy lives at the
// window level, so one due tick advances every shard exactly once.
func TestWindowRotateIfDueLockstep(t *testing.T) {
	spec := windowSpec(3, 4)
	spec.Tick = time.Minute
	w, err := NewWindow(spec)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1700000000, 0)
	if due, _ := w.RotateIfDue(base); due {
		t.Fatal("first call must arm, not rotate")
	}
	due, err := w.RotateIfDue(base.Add(90 * time.Second))
	if err != nil || !due {
		t.Fatalf("due=%v err=%v after a full tick", due, err)
	}
	in := w.Window()
	if in.Epoch != 1 {
		t.Fatalf("epoch %d, want 1 (lockstep)", in.Epoch)
	}
	if in.Tick != time.Minute {
		t.Fatalf("tick %s", in.Tick)
	}
}

// TestSnapshotRejectsSplicedShards: decodeSnapshot validates shards
// against each other, so a crafted container mixing shards from rings
// of different geometry (which would otherwise panic the Window()
// aggregation) or from a different base seed (which would corrupt
// routing) is rejected, not assembled.
func TestSnapshotRejectsSplicedShards(t *testing.T) {
	shardBlobs := func(spec core.Spec) [][]byte {
		t.Helper()
		w, err := NewWindow(spec)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := w.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		// Parse the ShBS container: 6-byte header, shard count, then
		// length-prefixed blobs.
		buf := snap[6:]
		count, sz := binary.Uvarint(buf)
		buf = buf[sz:]
		blobs := make([][]byte, count)
		for i := range blobs {
			n, sz := binary.Uvarint(buf)
			buf = buf[sz:]
			blobs[i] = buf[:n]
			buf = buf[n:]
		}
		return blobs
	}
	splice := func(a, b []byte) []byte {
		out := []byte{'S', 'h', 'B', 'S', snapVersion, shardKindWindowMembership}
		out = binary.AppendUvarint(out, 2)
		for _, blob := range [][]byte{a, b} {
			out = binary.AppendUvarint(out, uint64(len(blob)))
			out = append(out, blob...)
		}
		return out
	}

	specG2 := windowSpec(2, 2)
	g2 := shardBlobs(specG2)
	specG3 := windowSpec(3, 2)
	g3 := shardBlobs(specG3)
	otherSeed := specG2
	otherSeed.Seed = 99
	seed99 := shardBlobs(otherSeed)

	var w Window
	if err := w.UnmarshalBinary(splice(g2[0], g3[1])); err == nil {
		t.Fatal("accepted a snapshot splicing G=2 and G=3 shards")
	}
	if err := w.UnmarshalBinary(splice(g2[0], seed99[1])); err == nil {
		t.Fatal("accepted a snapshot splicing shards from different base seeds")
	}
	// Sanity: unspliced containers of the same shards still decode.
	if err := w.UnmarshalBinary(splice(g2[0], g2[1])); err != nil {
		t.Fatalf("legitimate container rejected: %v", err)
	}
}

// TestWindowSpecBesideRotate: Spec runs while rotations replace every
// shard's head generation — a metrics scrape reads it that way — so it
// must read shard 0 under the shard lock. Meaningful under -race.
func TestWindowSpecBesideRotate(t *testing.T) {
	mem, err := NewWindow(windowSpec(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	mult, err := NewWindowMultiplicity(core.Spec{Kind: core.KindWindowShardedMultiplicity,
		M: 1 << 18, K: 4, C: 57, Shards: 4, Generations: 3, Seed: 3, CounterWidth: 8})
	if err != nil {
		t.Fatal(err)
	}
	assoc, err := NewWindowAssociation(core.Spec{Kind: core.KindWindowShardedAssociation,
		M: 1 << 18, K: 4, Shards: 4, Generations: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []interface {
		Spec() core.Spec
		Rotate() error
	}{mem, mult, assoc} {
		want := f.Spec()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := f.Rotate(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		for i := 0; i < 100; i++ {
			if got := f.Spec(); got != want {
				t.Errorf("%s: Spec changed across rotations: %+v, want %+v", want.Kind, got, want)
				break
			}
		}
		wg.Wait()
	}
}

// TestWindowMultiplicityCBesideRotate: C reads the ring's head
// generation, which rotations replace, so like Spec it must read shard
// 0 under the shard lock. Meaningful under -race.
func TestWindowMultiplicityCBesideRotate(t *testing.T) {
	f, err := NewWindowMultiplicity(core.Spec{Kind: core.KindWindowShardedMultiplicity,
		M: 1 << 14, K: 4, C: 57, Shards: 2, Generations: 3, Seed: 3, CounterWidth: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := f.Rotate(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		if got := f.C(); got != 57 {
			t.Errorf("C() = %d during rotations, want 57", got)
			break
		}
	}
	wg.Wait()
}
