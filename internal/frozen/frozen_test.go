package frozen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	"shbf/internal/core"
	"shbf/internal/flowkeys"
	"shbf/internal/sharded"
	"shbf/internal/window"
)

// probeCount is the equivalence sweep size: the frozen and live query
// paths must agree bit-for-bit over a million keys (half members, half
// not).
const probeCount = 1 << 20

// equivalenceKeys returns members (inserted) and probes (a
// half-member, half-foreign mix of probeCount keys) from one
// deterministic pool.
func equivalenceKeys(nMembers int) (members, probes [][]byte) {
	pool := flowkeys.Keys(nMembers + probeCount)
	members = pool[:nMembers]
	probes = append([][]byte{}, pool[nMembers:]...)
	for i := 0; i < len(probes); i += 2 {
		probes[i] = members[i%nMembers]
	}
	return members, probes
}

func TestFrozenEquivalenceCore(t *testing.T) {
	members, probes := equivalenceKeys(1 << 16)
	live, err := core.NewMembership(1<<19, 8, core.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range members {
		live.Add(k)
	}
	blob, err := Append(nil, live)
	if err != nil {
		t.Fatal(err)
	}
	fz, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	if fz.N() != live.N() || fz.M() != live.M() || fz.K() != live.K() ||
		fz.MaxOffset() != live.MaxOffset() || fz.Shards() != 1 ||
		fz.SourceKind() != core.KindMembership {
		t.Fatalf("frozen geometry diverges: %+v vs live m=%d k=%d", fz, live.M(), live.K())
	}
	for i, p := range probes {
		if got, want := fz.Contains(p), live.Contains(p); got != want {
			t.Fatalf("probe %d: frozen=%v live=%v", i, got, want)
		}
	}
	// Batch path agrees with the scalar path.
	dst := fz.ContainsAll(nil, probes[:4096])
	want := live.ContainsAll(nil, probes[:4096])
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("batch probe %d: frozen=%v live=%v", i, dst[i], want[i])
		}
	}
}

func TestFrozenEquivalenceSharded(t *testing.T) {
	members, probes := equivalenceKeys(1 << 16)
	live, err := sharded.New(1<<20, 8, 8, core.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := live.AddAll(members); err != nil {
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
	if fz.Shards() != live.Shards() || fz.N() != live.N() ||
		fz.SourceKind() != core.KindShardedMembership || fz.Seed() != live.Spec().Seed {
		t.Fatalf("frozen geometry diverges from live sharded filter")
	}
	liveAns := live.ContainsAll(nil, probes)
	frozAns := fz.ContainsAll(nil, probes)
	for i := range probes {
		if frozAns[i] != liveAns[i] {
			t.Fatalf("probe %d: frozen=%v live=%v", i, frozAns[i], liveAns[i])
		}
	}
}

func TestFrozenEquivalenceCounting(t *testing.T) {
	live, err := core.NewCountingMembership(1<<14, 8, core.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	keys := flowkeys.Keys(4096)
	for _, k := range keys[:2048] {
		if err := live.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := Append(nil, live)
	if err != nil {
		t.Fatal(err)
	}
	fz, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	if fz.SourceKind() != core.KindCountingMembership {
		t.Fatalf("source kind = %v", fz.SourceKind())
	}
	for i, k := range keys {
		if got, want := fz.Contains(k), live.Contains(k); got != want {
			t.Fatalf("probe %d: frozen=%v live=%v", i, got, want)
		}
	}
}

// TestFrozenEquivalenceWindow pins the union-collapse semantics: a
// single-generation ring freezes bit-identically; a multi-generation
// ring's frozen form answers a superset (never a false negative for
// any in-window key).
func TestFrozenEquivalenceWindow(t *testing.T) {
	keys := flowkeys.Keys(3 << 12)
	spec := core.Spec{Kind: core.KindWindowMembership, M: 1 << 16, K: 8, Seed: 11,
		MaxOffset: core.DefaultMaxOffset, Generations: 3}
	live, err := window.NewMembership(spec)
	if err != nil {
		t.Fatal(err)
	}
	for gen := 0; gen < 3; gen++ {
		for _, k := range keys[gen<<12 : (gen+1)<<12] {
			live.Add(k)
		}
		if gen < 2 {
			if err := live.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	blob, err := Append(nil, live)
	if err != nil {
		t.Fatal(err)
	}
	fz, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	if fz.SourceKind() != core.KindWindowMembership || fz.N() != live.N() {
		t.Fatalf("frozen window header diverges: kind=%v n=%d want n=%d", fz.SourceKind(), fz.N(), live.N())
	}
	for i, k := range keys {
		if live.Contains(k) && !fz.Contains(k) {
			t.Fatalf("key %d: live window answers true, frozen union answers false", i)
		}
	}

	// A ring whose keys all live in one generation (no rotation yet)
	// is bit-identical to its frozen form: the union of one occupied
	// generation and empty ones is that generation.
	spec.Generations = 2
	one, err := window.NewMembership(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[:1<<12] {
		one.Add(k)
	}
	oneBlob, err := Append(nil, one)
	if err != nil {
		t.Fatal(err)
	}
	oneFz, err := Open(oneBlob)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if got, want := oneFz.Contains(k), one.Contains(k); got != want {
			t.Fatalf("single-gen probe %d: frozen=%v live=%v", i, got, want)
		}
	}
}

func TestFrozenEquivalenceShardedWindow(t *testing.T) {
	keys := flowkeys.Keys(1 << 13)
	spec := core.Spec{Kind: core.KindWindowShardedMembership, M: 1 << 18, K: 8, Seed: 13,
		MaxOffset: core.DefaultMaxOffset, Generations: 2, Shards: 4}
	live, err := sharded.NewWindow(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.AddAll(keys[:1<<12]); err != nil {
		t.Fatal(err)
	}
	if err := live.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := live.AddAll(keys[1<<12:]); err != nil {
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
	if fz.Shards() != live.Shards() || fz.SourceKind() != core.KindWindowShardedMembership {
		t.Fatalf("frozen sharded-window header diverges")
	}
	liveAns := live.ContainsAll(nil, keys)
	for i, k := range keys {
		if liveAns[i] && !fz.Contains(k) {
			t.Fatalf("key %d: live answers true, frozen union answers false", i)
		}
	}
}

func TestFreezeUnsupportedKind(t *testing.T) {
	mult, err := core.NewMultiplicity(1<<12, 8, 57)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Append(nil, mult); err == nil {
		t.Fatal("freezing a multiplicity filter should fail")
	}
}

// TestFrozenOpenUnaligned opens containers copied to an odd offset,
// which Open copies once, as it copies every container on a big-endian
// host. They must answer exactly as the aligned open and the live
// source do, for scalar and batch probes.
func TestFrozenOpenUnaligned(t *testing.T) {
	members, probes := equivalenceKeys(1 << 14)
	probes = probes[:1<<16]
	one, err := core.NewMembership(1<<17, 8, core.WithSeed(17))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range members {
		one.Add(k)
	}
	many, err := sharded.New(1<<18, 8, 4, core.WithSeed(18))
	if err != nil {
		t.Fatal(err)
	}
	if err := many.AddAll(members); err != nil {
		t.Fatal(err)
	}
	for _, live := range []interface {
		Contains([]byte) bool
		ContainsAll([]bool, [][]byte) []bool
	}{one, many} {
		blob, err := Append(nil, live)
		if err != nil {
			t.Fatal(err)
		}
		aligned, err := Open(blob)
		if err != nil {
			t.Fatal(err)
		}
		unaligned, err := Open(append(make([]byte, 1, len(blob)+1), blob...)[1:])
		if err != nil {
			t.Fatal(err)
		}
		want := live.ContainsAll(nil, probes)
		for name, fz := range map[string]*Filter{"aligned": aligned, "unaligned": unaligned} {
			got := fz.ContainsAll(nil, probes)
			for i, p := range probes {
				if got[i] != want[i] || fz.Contains(p) != want[i] {
					t.Fatalf("%d shards, %s open, probe %d: batch %v, scalar %v, live %v",
						fz.Shards(), name, i, got[i], fz.Contains(p), want[i])
				}
			}
		}
	}
}

// TestFrozenConcurrentReaders runs Contains and ContainsAll from
// several goroutines on one Filter, each answer checked against the
// live source. Under -race, checkptr also checks the conversion that
// views the aligned sections in place.
func TestFrozenConcurrentReaders(t *testing.T) {
	members, probes := equivalenceKeys(1 << 14)
	probes = probes[:1<<14]
	live, err := sharded.New(1<<18, 8, 4, core.WithSeed(19))
	if err != nil {
		t.Fatal(err)
	}
	if err := live.AddAll(members); err != nil {
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
	want := live.ContainsAll(nil, probes)
	const readers, batch = 8, 4096
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var dst []bool
			for r := 0; r < 8; r++ {
				lo := (g*1024 + r*512) % (len(probes) - batch)
				dst = fz.ContainsAll(dst[:0], probes[lo:lo+batch])
				for i, got := range dst {
					if got != want[lo+i] || fz.Contains(probes[lo+i]) != want[lo+i] {
						errs <- fmt.Errorf("reader %d, probe %d: frozen %v, live %v", g, lo+i, got, want[lo+i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFrozenGoldenBytes pins the ShBZ container layout byte for byte
// (like the Sum128 golden vectors): a frozen file written today must
// open forever. Any failure here is a format break — bump the version
// instead of changing the layout.
func TestFrozenGoldenBytes(t *testing.T) {
	live, err := core.NewMembership(128, 4, core.WithSeed(1), core.WithMaxOffset(57))
	if err != nil {
		t.Fatal(err)
	}
	live.Add([]byte("alpha"))
	live.Add([]byte("beta"))
	blob, err := Append(nil, live)
	if err != nil {
		t.Fatal(err)
	}
	got := hex.EncodeToString(blob)
	if got != goldenShBZ {
		t.Fatalf("ShBZ bytes changed:\n got %s\nwant %s", got, goldenShBZ)
	}
	// And the pinned bytes still open and answer.
	want, err := hex.DecodeString(goldenShBZ)
	if err != nil {
		t.Fatal(err)
	}
	fz, err := Open(want)
	if err != nil {
		t.Fatalf("pinned golden container no longer opens: %v", err)
	}
	if !fz.Contains([]byte("alpha")) || !fz.Contains([]byte("beta")) {
		t.Fatal("pinned golden container lost its members")
	}
}

// TestFrozenAppendGolden pins the sha256 of Append's output for each
// of the five sources: a rotated ring whose oldest generation was
// recycled, a sharded window rotated three times, and a counting
// filter with deletions among them. The hashes were recorded before
// Append's five source cases became one walk. Each container is also
// appended after a prefix, which must stay intact.
func TestFrozenAppendGolden(t *testing.T) {
	want := map[string]string{
		"membership":                "73fe6a383178f13c72d1b04d94d414a9433fa8e105831414ee6c2ac71bc306c8",
		"counting-membership":       "e34fca714c918f973fbbb1daee9423b2e6419552804a84ffb46ffe9d0dc23ed1",
		"sharded-membership":        "245d8e5be76ca558043fe18a03a15dd6731ca5aae7399aca6a4d1d53cc7be314",
		"window-membership":         "b8ff1f88e68963f5800fe6d575681cfb10494f57704f981617388e8bd0c75532",
		"sharded-window-membership": "d8f6b8371f0e83beb3edf1886ab64d2dbe473fb03245f6303cd7fdf52c7b93e3",
	}
	for _, src := range goldenSources(t) {
		blob, err := Append(nil, src.f)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != want[src.name] {
			t.Errorf("%s: container sha256 %s, want %s", src.name, got, want[src.name])
		}
		prefixed, err := Append([]byte("prefix"), src.f)
		if err != nil {
			t.Fatal(err)
		}
		if string(prefixed[:6]) != "prefix" || !bytes.Equal(prefixed[6:], blob) {
			t.Errorf("%s: appending after a prefix changed the prefix or the container", src.name)
		}
	}
}

// goldenSource is one named freezable source.
type goldenSource struct {
	name string
	f    any
}

// goldenSources builds one deterministic source of each freezable
// kind.
func goldenSources(t *testing.T) []goldenSource {
	t.Helper()
	keys := flowkeys.Keys(1 << 13)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	m, err := core.NewMembership(1<<14, 8, core.WithSeed(21))
	must(err)
	for _, k := range keys[:1024] {
		m.Add(k)
	}
	cm, err := core.NewCountingMembership(1<<14, 8, core.WithSeed(22))
	must(err)
	for _, k := range keys[:1024] {
		must(cm.Insert(k))
	}
	for _, k := range keys[:256] {
		must(cm.Delete(k))
	}
	sh, err := sharded.New(1<<16, 8, 8, core.WithSeed(23))
	must(err)
	must(sh.AddAll(keys[:2048]))
	w, err := window.NewMembership(core.Spec{Kind: core.KindWindowMembership, M: 1 << 14, K: 8, Seed: 24,
		MaxOffset: core.DefaultMaxOffset, Generations: 3})
	must(err)
	for r := 0; r < 4; r++ {
		for _, k := range keys[r*512 : (r+1)*512] {
			w.Add(k)
		}
		must(w.Rotate())
	}
	for _, k := range keys[2048:2560] {
		w.Add(k)
	}
	sw, err := sharded.NewWindow(core.Spec{Kind: core.KindWindowShardedMembership, M: 1 << 16, K: 8, Seed: 25,
		MaxOffset: core.DefaultMaxOffset, Generations: 2, Shards: 4})
	must(err)
	for r := 0; r < 3; r++ {
		must(sw.AddAll(keys[r*1024 : (r+1)*1024]))
		must(sw.Rotate())
	}
	must(sw.AddAll(keys[3072:4096]))
	return []goldenSource{
		{"membership", m}, {"counting-membership", cm}, {"sharded-membership", sh},
		{"window-membership", w}, {"sharded-window-membership", sw},
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	live, err := core.NewMembership(1<<12, 8, core.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	live.Add([]byte("key"))
	blob, err := Append(nil, live)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(blob); err != nil {
		t.Fatalf("valid container rejected: %v", err)
	}
	// Trailing bytes are allowed (open-at-offset in a larger region).
	if _, err := Open(append(append([]byte{}, blob...), 0xFF, 0xFF)); err != nil {
		t.Fatalf("container with trailing bytes rejected: %v", err)
	}
	cases := map[string]func([]byte) []byte{
		"empty":            func(b []byte) []byte { return nil },
		"short header":     func(b []byte) []byte { return b[:32] },
		"bad magic":        func(b []byte) []byte { b[0] = 'X'; return b },
		"bad version":      func(b []byte) []byte { b[4] = 99; return b },
		"reserved nonzero": func(b []byte) []byte { b[6] = 1; return b },
		"zero shards":      func(b []byte) []byte { b[8], b[9], b[10], b[11] = 0, 0, 0, 0; return b },
		"odd k":            func(b []byte) []byte { b[12] = 7; return b },
		"zero m": func(b []byte) []byte {
			for i := 16; i < 24; i++ {
				b[i] = 0
			}
			return b
		},
		"wild wbar":      func(b []byte) []byte { b[24] = 200; return b },
		"truncated body": func(b []byte) []byte { return b[:len(b)-8] },
		"lying total":    func(b []byte) []byte { b[56] ^= 0xFF; return b },
	}
	for name, corrupt := range cases {
		if _, err := Open(corrupt(append([]byte{}, blob...))); err == nil {
			t.Errorf("%s: corrupted container opened without error", name)
		}
	}
}

func TestStackRoundTrip(t *testing.T) {
	keys := flowkeys.Keys(1 << 12)
	var b StackBuilder
	lives := make([]*core.Membership, 8)
	for i := range lives {
		f, err := core.NewMembership(1<<12, 8, core.WithSeed(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys[i<<9 : (i+1)<<9] {
			f.Add(k)
		}
		lives[i] = f
		if err := b.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	// AddFrozen round-trips pre-frozen bytes too.
	extra, err := Append(nil, lives[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddFrozen(extra); err != nil {
		t.Fatal(err)
	}
	file := b.Finish()
	st, err := OpenStack(file)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 9 {
		t.Fatalf("stack has %d filters, want 9", st.Len())
	}
	for i, live := range lives {
		fz, err := st.At(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if got, want := fz.Contains(k), live.Contains(k); got != want {
				t.Fatalf("stack filter %d: frozen=%v live=%v", i, got, want)
			}
		}
	}
	if _, err := st.At(9); err == nil {
		t.Fatal("out-of-range At should fail")
	}
	if _, err := st.At(-1); err == nil {
		t.Fatal("negative At should fail")
	}
	// A duplicate container answers like its source.
	dup, err := st.At(8)
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Contains(keys[0]) {
		t.Fatal("AddFrozen entry lost its members")
	}
}

func TestStackRejectsCorruption(t *testing.T) {
	var b StackBuilder
	f, err := core.NewMembership(1<<10, 4, core.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	f.Add([]byte("k"))
	if err := b.Add(f); err != nil {
		t.Fatal(err)
	}
	file := b.Finish()
	if _, err := OpenStack(file); err != nil {
		t.Fatalf("valid stack rejected: %v", err)
	}
	cases := map[string]func([]byte) []byte{
		"empty":           func(d []byte) []byte { return nil },
		"short":           func(d []byte) []byte { return d[:16] },
		"bad magic":       func(d []byte) []byte { d[len(d)-1] = 'X'; return d },
		"bad version":     func(d []byte) []byte { d[len(d)-8] = 9; return d },
		"lying total":     func(d []byte) []byte { d[len(d)-16] ^= 0xFF; return d },
		"truncated front": func(d []byte) []byte { return d[64:] },
		"wild index off":  func(d []byte) []byte { d[len(d)-32] ^= 0xFF; return d },
	}
	for name, corrupt := range cases {
		if _, err := OpenStack(corrupt(append([]byte{}, file...))); err == nil {
			t.Errorf("%s: corrupted stack opened without error", name)
		}
	}
}

// TestAppendFrozenRejectsGarbage pins builder-side validation.
func TestAppendFrozenRejectsGarbage(t *testing.T) {
	var b StackBuilder
	if err := b.AddFrozen([]byte("not a container")); err == nil {
		t.Fatal("AddFrozen accepted garbage")
	}
	if b.Len() != 0 {
		t.Fatal("failed AddFrozen left an entry behind")
	}
}

// BenchmarkFrozenContainsAll drives the frozen batch probe (the CI
// "-bench Frozen" smoke); the gated live-vs-frozen comparison is the
// root package's TestGateFrozenVsLive (-tags perfgate).
func BenchmarkFrozenContainsAll(b *testing.B) {
	keys := flowkeys.Keys(4096)
	live, err := core.NewMembership(1<<18, 8, core.WithSeed(3))
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range keys[:2048] {
		live.Add(k)
	}
	blob, err := Append(nil, live)
	if err != nil {
		b.Fatal(err)
	}
	fz, err := Open(blob)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]bool, 0, len(keys))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = fz.ContainsAll(dst[:0], keys)
	}
	_ = dst
}

// BenchmarkFrozenOpen measures Open of a 16 Mibit (2 MiB) container
// at 1 and 16 shards. B/op far below the container's size shows that
// an aligned open copies no section.
func BenchmarkFrozenOpen(b *testing.B) {
	for _, shards := range []int{1, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			blob := openContainer(b, shards)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Open(blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// openContainer freezes an empty 16 Mibit sharded filter of the given
// shard count: Open's cost does not depend on what the bits hold.
func openContainer(tb testing.TB, shards int) []byte {
	tb.Helper()
	live, err := sharded.New(1<<24, 8, shards, core.WithSeed(3))
	if err != nil {
		tb.Fatal(err)
	}
	blob, err := Append(nil, live)
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// BenchmarkFrozenStackOpen measures cold-open cost per stacked filter.
func BenchmarkFrozenStackOpen(b *testing.B) {
	var sb StackBuilder
	for i := 0; i < 64; i++ {
		f, err := core.NewMembership(1<<12, 8, core.WithSeed(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if err := sb.Add(f); err != nil {
			b.Fatal(err)
		}
	}
	file := sb.Finish()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := OpenStack(file)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < st.Len(); j++ {
			if _, err := st.At(j); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// goldenShBZ pins the exact container bytes for a tiny deterministic
// filter (m=128, k=4, w̄=57, seed=1, elements "alpha" then "beta"):
// the 64-byte header followed by one 8-word section, 128 bytes total.
const goldenShBZ = "5368425a01010000010000000400000080000000000000003900000000000000" +
	"0100000000000000020000000000000008000000000000008000000000000000" +
	"0000001000000000400050100000005004000000000000000000000000000000" +
	"0000000000000000000000000000000000000000000000000000000000000000"
