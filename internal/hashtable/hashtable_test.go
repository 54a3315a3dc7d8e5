package hashtable

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"shbf/internal/memmodel"
)

func TestPutGetDelete(t *testing.T) {
	tab := New(1)
	if tab.Len() != 0 {
		t.Fatal("fresh table not empty")
	}
	tab.Put([]byte("a"), 1)
	tab.Put([]byte("b"), 2)
	tab.Put([]byte("a"), 3) // overwrite
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
	if v, ok := tab.Get([]byte("a")); !ok || v != 3 {
		t.Fatalf("Get(a) = (%d,%v), want (3,true)", v, ok)
	}
	if !tab.Contains([]byte("b")) {
		t.Fatal("Contains(b) = false")
	}
	if tab.Contains([]byte("c")) {
		t.Fatal("Contains(c) = true")
	}
	if !tab.Delete([]byte("a")) {
		t.Fatal("Delete(a) = false")
	}
	if tab.Delete([]byte("a")) {
		t.Fatal("second Delete(a) = true")
	}
	if tab.Len() != 1 {
		t.Fatalf("Len after delete = %d, want 1", tab.Len())
	}
}

func TestGrowthKeepsAllKeys(t *testing.T) {
	tab := New(7)
	const n = 10000
	for i := 0; i < n; i++ {
		tab.Put([]byte(fmt.Sprintf("key-%d", i)), uint64(i))
	}
	if tab.Len() != n {
		t.Fatalf("Len = %d, want %d", tab.Len(), n)
	}
	for i := 0; i < n; i++ {
		v, ok := tab.Get([]byte(fmt.Sprintf("key-%d", i)))
		if !ok || v != uint64(i) {
			t.Fatalf("Get(key-%d) = (%d,%v)", i, v, ok)
		}
	}
	// With doubling at load factor 1 the chains stay short.
	if got := tab.MaxChainLength(); got > 16 {
		t.Fatalf("MaxChainLength = %d, suspiciously long", got)
	}
}

func TestAddSub(t *testing.T) {
	tab := New(2)
	if got := tab.Add([]byte("x"), 3); got != 3 {
		t.Fatalf("Add new = %d, want 3", got)
	}
	if got := tab.Add([]byte("x"), 2); got != 5 {
		t.Fatalf("Add existing = %d, want 5", got)
	}
	if v, ok := tab.Sub([]byte("x"), 1); !ok || v != 4 {
		t.Fatalf("Sub = (%d,%v), want (4,true)", v, ok)
	}
	if v, ok := tab.Sub([]byte("x"), 10); !ok || v != 0 {
		t.Fatalf("Sub to zero = (%d,%v), want (0,true)", v, ok)
	}
	if tab.Contains([]byte("x")) {
		t.Fatal("key survives Sub to zero")
	}
	if _, ok := tab.Sub([]byte("missing"), 1); ok {
		t.Fatal("Sub of missing key reported ok")
	}
}

func TestRange(t *testing.T) {
	tab := New(3)
	want := map[string]uint64{"a": 1, "b": 2, "c": 3}
	for k, v := range want {
		tab.Put([]byte(k), v)
	}
	got := map[string]uint64{}
	tab.Range(func(k []byte, v uint64) bool {
		got[string(k)] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("Range saw %s=%d, want %d", k, got[k], v)
		}
	}
	// Early termination.
	visits := 0
	tab.Range(func([]byte, uint64) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Fatalf("Range after false visited %d keys, want 1", visits)
	}
}

func TestMirrorsMapProperty(t *testing.T) {
	// Property: a random op sequence leaves the table equal to a Go map.
	type op struct {
		Key uint8
		Val uint16
		Del bool
	}
	f := func(ops []op) bool {
		tab := New(11)
		ref := map[string]uint64{}
		for _, o := range ops {
			k := []byte{o.Key}
			if o.Del {
				delete(ref, string(k))
				tab.Delete(k)
			} else {
				ref[string(k)] = uint64(o.Val)
				tab.Put(k, uint64(o.Val))
			}
		}
		if tab.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := tab.Get([]byte(k))
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAccessAccounting(t *testing.T) {
	var c memmodel.Counter
	tab := New(5)
	tab.SetCounter(&c)
	tab.Put([]byte("k"), 1)
	if c.Writes() == 0 {
		t.Fatal("Put charged no writes")
	}
	c.Reset()
	tab.Get([]byte("k"))
	if c.Reads() == 0 {
		t.Fatal("Get charged no reads")
	}
}

func TestBinaryKeys(t *testing.T) {
	// 13-byte flow IDs with embedded zeros must work as keys.
	tab := New(9)
	rng := rand.New(rand.NewSource(1))
	keys := make([][]byte, 100)
	for i := range keys {
		keys[i] = make([]byte, 13)
		rng.Read(keys[i])
		keys[i][5] = 0 // force embedded NUL
		tab.Put(keys[i], uint64(i))
	}
	for i, k := range keys {
		if v, ok := tab.Get(k); !ok || v != uint64(i) {
			t.Fatalf("binary key %d lost: (%d,%v)", i, v, ok)
		}
	}
}

func BenchmarkPut(b *testing.B) {
	tab := New(1)
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%d", i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab.Put(keys[i&1023], uint64(i))
	}
}

func BenchmarkGet(b *testing.B) {
	tab := New(1)
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%d", i))
		tab.Put(keys[i], uint64(i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab.Get(keys[i&1023])
	}
}

func TestFreeListReuse(t *testing.T) {
	tab := New(4)
	for i := 0; i < 3000; i++ {
		tab.Put([]byte(fmt.Sprintf("key-%d", i)), 1)
	}
	used := tab.used
	for i := 0; i < 1000; i++ {
		tab.Delete([]byte(fmt.Sprintf("key-%d", i)))
	}
	for i := 0; i < 1000; i++ {
		tab.Put([]byte(fmt.Sprintf("new-%d", i)), 2)
	}
	if tab.used != used {
		t.Fatalf("node slots %d → %d: deleted nodes were not reused", used, tab.used)
	}
	if tab.Len() != 3000 {
		t.Fatalf("Len = %d, want 3000", tab.Len())
	}
}

func TestArenaCompaction(t *testing.T) {
	tab := New(6)
	long := func(i int) []byte { return []byte(fmt.Sprintf("%0200d", i)) }
	for i := 0; i < 2000; i++ {
		tab.Put(long(i), uint64(i))
	}
	arenaBytes := func() (n int) {
		for _, c := range tab.arena {
			n += cap(c)
		}
		return n
	}
	before := arenaBytes()
	for i := 0; i < 1900; i++ {
		tab.Delete(long(i))
	}
	if after := arenaBytes(); after > before/4 {
		t.Fatalf("arena holds %d bytes after deleting 95%% of %d: not compacted", after, before)
	}
	if tab.arenaLive != 100*200 {
		t.Fatalf("arenaLive = %d, want %d", tab.arenaLive, 100*200)
	}
	for i := 1900; i < 2000; i++ {
		if v, ok := tab.Get(long(i)); !ok || v != uint64(i) {
			t.Fatalf("long key %d after compaction: (%d,%v)", i, v, ok)
		}
	}
}
