package hashtable

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"shbf/internal/hashing"
)

func TestNodeIs24Bytes(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != 24 {
		t.Fatalf("node is %d bytes, want 24", got)
	}
}

func TestSixteenByteKeysStayInline(t *testing.T) {
	tab := New(1)
	for n := 0; n <= inlineKey; n++ {
		tab.Put(bytes.Repeat([]byte{byte(n)}, n), uint64(n))
	}
	if len(tab.arena) != 0 || tab.arenaLive != 0 {
		t.Fatalf("keys of 0–16 bytes took %d arena chunks, %d live bytes", len(tab.arena), tab.arenaLive)
	}
	tab.Put(make([]byte, inlineKey+1), 1)
	if tab.arenaLive != inlineKey+1 {
		t.Fatalf("a 17-byte key left arenaLive at %d", tab.arenaLive)
	}
	for n := 0; n <= inlineKey; n++ {
		if v, ok := tab.Get(bytes.Repeat([]byte{byte(n)}, n)); !ok || v != uint64(n) {
			t.Fatalf("%d-byte key: (%d,%v)", n, v, ok)
		}
	}
}

// wideValues straddle the inline cap: the largest inline value, the
// cap itself, the first value past it and values needing every width.
var wideValues = []uint64{0, 1, spilled - 1, spilled, spilled + 1, 255, 1 << 32, math.MaxUint64}

func TestWideValuesRoundTrip(t *testing.T) {
	tab := New(2)
	ref := map[string]uint64{}
	for i, v := range wideValues {
		short := []byte{byte(i)}
		long := bytes.Repeat([]byte{byte(i)}, 40)
		s := tab.Lookup(short, hashing.KeyDigest(short))
		tab.Store(s, short, v)
		tab.Put(long, v)
		ref[string(short)], ref[string(long)] = v, v
		if got := tab.Value(tab.Lookup(short, hashing.KeyDigest(short))); got != v {
			t.Fatalf("Value = %d after Store of %d", got, v)
		}
	}
	checkModel(t, tab, ref)
	enc := tab.AppendBinary(nil)
	if !bytes.Equal(enc, modelEncoding(ref)) {
		t.Fatal("AppendBinary differs from the model's encoding")
	}
	back := New(3)
	if rest, err := back.DecodeInto(enc); err != nil || len(rest) != 0 {
		t.Fatalf("DecodeInto: %v, %d bytes left", err, len(rest))
	}
	checkModel(t, back, ref)
}

func TestValueSpillFollowsOverwriteRemoveAndReuse(t *testing.T) {
	tab := New(4)
	key := []byte("k")
	for _, v := range []uint64{3, spilled, 5, math.MaxUint64, spilled + 1, spilled - 1, 200} {
		tab.Put(key, v)
		if got, _ := tab.Get(key); got != v {
			t.Fatalf("Get = %d after Put of %d", got, v)
		}
		want := 0
		if v >= spilled {
			want = 1
		}
		if len(tab.spill) != want {
			t.Fatalf("value %d: %d spill entries, want %d", v, len(tab.spill), want)
		}
	}
	if v := tab.Add(key, 1000); v != 1200 || len(tab.spill) != 1 {
		t.Fatalf("Add past the cap = %d with %d spill entries", v, len(tab.spill))
	}
	if v, _ := tab.Sub(key, 1190); v != 10 || len(tab.spill) != 0 {
		t.Fatalf("Sub below the cap = %d with %d spill entries", v, len(tab.spill))
	}
	tab.Put(key, 1<<40)
	if !tab.Delete(key) || len(tab.spill) != 0 {
		t.Fatalf("Delete left %d spill entries", len(tab.spill))
	}
	// The freed node is reused first; it must not carry the old value.
	other := []byte("other")
	tab.Put(other, 7)
	if tab.used != 2 {
		t.Fatalf("used = %d: the freed node was not reused", tab.used)
	}
	if v, _ := tab.Get(other); v != 7 || len(tab.spill) != 0 {
		t.Fatalf("reused node reads %d with %d spill entries", v, len(tab.spill))
	}
	tab.Put(other, spilled)
	if v, ok := tab.Sub(other, spilled); !ok || v != 0 || len(tab.spill) != 0 || tab.Contains(other) {
		t.Fatalf("Sub of a spilled value to zero: (%d,%v), %d spill entries", v, ok, len(tab.spill))
	}
}

// TestGrowthPast20BucketBits grows a table past 2^20 buckets, where a
// node's stored hash bits no longer name its bucket, and checks it
// against a model indexed by key number. Without deletes every chain
// must list its nodes newest first and every node must sit in the
// bucket of its key's full bucket hash: the layout the table had when
// nodes stored 27 hash bits.
func TestGrowthPast20BucketBits(t *testing.T) {
	if testing.Short() {
		t.Skip("inserts 1.1M keys")
	}
	const n = 1<<20 + 1<<17
	key := func(i int) []byte {
		var k [13]byte
		binary.LittleEndian.PutUint64(k[:], uint64(i)*0x9e3779b97f4a7c15)
		k[12] = byte(i)
		return k[:]
	}
	val := func(i int) uint64 { // one key in 64 spills
		if i%64 == 63 {
			return uint64(i) << 8
		}
		return uint64(i % spilled)
	}
	tab := New(8)
	for i := range n {
		tab.Put(key(i), val(i))
	}
	if len(tab.buckets) != 1<<21 {
		t.Fatalf("%d buckets for %d keys, want 2^21", len(tab.buckets), n)
	}
	mask := uint32(len(tab.buckets) - 1)
	for b, head := range tab.buckets {
		prev := ^uint32(0)
		for i := head; i != 0; i = tab.at(i).next {
			if i >= prev {
				t.Fatalf("bucket %d: node %d follows node %d", b, i, prev)
			}
			if got := tab.bucketHash(hashing.KeyDigest(tab.keyOf(i))) & mask; got != uint32(b) {
				t.Fatalf("node %d sits in bucket %d, its hash names %d", i, b, got)
			}
			prev = i
		}
	}

	// The model: present[i] and val(i), changed alongside the table.
	present := make([]bool, n)
	for i := range present {
		present[i] = true
	}
	for i := 0; i < n; i += 3 {
		tab.Delete(key(i))
		present[i] = false
	}
	spills := 0
	for i := range n {
		if present[i] && val(i) >= spilled {
			spills++
		}
	}
	if tab.Len() != n-(n+2)/3 || len(tab.spill) != spills {
		t.Fatalf("Len %d, %d spill entries; model has %d keys, %d spilled", tab.Len(), len(tab.spill), n-(n+2)/3, spills)
	}
	for i := range n {
		if v, ok := tab.Get(key(i)); ok != present[i] || (ok && v != val(i)) {
			t.Fatalf("key %d: (%d,%v), model has (%d,%v)", i, v, ok, val(i), present[i])
		}
	}
}

// TestBytesPerKey holds the live heap of a table of 100k 13-byte keys,
// the daemon's flow-key size, to 32 bytes per key: the 24-byte node and
// 4–8 bytes of bucket heads.
func TestBytesPerKey(t *testing.T) {
	const n = 100_000
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	tab := New(9)
	var k [13]byte
	for i := range n {
		binary.LittleEndian.PutUint64(k[:], uint64(i)*0x9e3779b97f4a7c15)
		tab.Put(k[:], uint64(i%64))
	}
	perKey := float64(heap()-before) / n
	runtime.KeepAlive(tab)
	if perKey > 32 {
		t.Fatalf("%.1f live heap bytes per stored 13-byte key, want ≤ 32", perKey)
	}
	t.Logf("%.1f B per key", perKey)
}
