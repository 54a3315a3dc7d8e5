package bitvec

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestVectorRoundTrip(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 1000, 4096} {
		v := New(n)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < n/3+1; i++ {
			v.Set(rng.Intn(n))
		}
		buf := v.AppendBinary(nil)
		got, rest, err := DecodeVector(buf)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(rest) != 0 {
			t.Fatalf("n=%d: %d leftover bytes", n, len(rest))
		}
		if !v.Equal(got) {
			t.Fatalf("n=%d: decoded vector differs", n)
		}
		// Decoded vector must still support windowed reads near the end
		// (guard word reconstructed).
		if n >= 57 {
			_ = got.WindowUncounted(n-57, 1<<57-1)
		}
	}
}

func TestVectorRoundTripProperty(t *testing.T) {
	f := func(idx []uint16, extra uint8) bool {
		n := 300 + int(extra)
		v := New(n)
		for _, i := range idx {
			v.Set(int(i) % n)
		}
		got, rest, err := DecodeVector(v.AppendBinary(nil))
		return err == nil && len(rest) == 0 && v.Equal(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestVectorAppendsAfterPrefix(t *testing.T) {
	v := New(100)
	v.Set(42)
	buf := append([]byte("prefix"), v.AppendBinary(nil)...)
	got, rest, err := DecodeVector(buf[6:])
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode after prefix: %v, %d rest", err, len(rest))
	}
	if !got.Peek(42) {
		t.Fatal("bit lost")
	}
}

func TestDecodeVectorRejectsCorrupt(t *testing.T) {
	v := New(130)
	v.Set(0)
	v.Set(129)
	buf := v.AppendBinary(nil)

	cases := map[string][]byte{
		"empty":     {},
		"truncated": buf[:len(buf)-1],
		"zero bits": {0x00},
	}
	for name, c := range cases {
		if _, _, err := DecodeVector(c); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// Non-zero bits beyond the logical length must be rejected.
	bad := append([]byte{}, buf...)
	bad[len(bad)-1] |= 0x80 // bit 191 of a 130-bit vector
	if _, _, err := DecodeVector(bad); err == nil {
		t.Error("accepted tail garbage beyond logical length")
	}
}

// TestWordsOf checks both paths from bytes to words: on a
// little-endian host, 8-byte-aligned bytes are viewed in place, and
// bytes at an odd offset are decoded into a copy. Either way the words
// are the bytes' little-endian reading, a trailing partial word
// dropped.
func TestWordsOf(t *testing.T) {
	buf := make([]byte, 8*10)
	rand.New(rand.NewSource(1)).Read(buf)
	aligned := int(-uintptr(unsafe.Pointer(&buf[0])) % 8)
	for _, off := range []int{aligned, aligned + 1} {
		b := buf[off : off+8*8+3]
		w := WordsOf(b)
		if len(w) != 8 {
			t.Fatalf("offset %d: %d words from %d bytes, want 8", off, len(w), len(b))
		}
		for i := range w {
			if want := binary.LittleEndian.Uint64(b[8*i:]); w[i] != want {
				t.Fatalf("offset %d: word %d = %#x, want %#x", off, i, w[i], want)
			}
		}
		aliased := unsafe.Pointer(&w[0]) == unsafe.Pointer(&b[0])
		if want := littleEndian && off == aligned; aliased != want {
			t.Errorf("offset %d: words alias the bytes: %v, want %v", off, aliased, want)
		}
	}
	if w := WordsOf(nil); len(w) != 0 {
		t.Fatalf("WordsOf(nil) has %d words", len(w))
	}
}

// TestBorrow checks that a vector over borrowed words reads exactly as
// the vector that owns them, and that words too short for the bits and
// the guard word are refused.
func TestBorrow(t *testing.T) {
	v := New(1000)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		v.Set(rng.Intn(1000))
	}
	b, err := Borrow(append(v.Words(), 0, 0), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != v.Len() || b.OnesCount() != v.OnesCount() || b.Counter() != nil {
		t.Fatalf("borrowed vector reports len %d, %d ones; owner %d, %d", b.Len(), b.OnesCount(), v.Len(), v.OnesCount())
	}
	for pos := 0; pos+57 <= 1000; pos++ {
		if got, want := b.WindowUncounted(pos, 1<<57-1), v.WindowUncounted(pos, 1<<57-1); got != want {
			t.Fatalf("window at %d: borrowed %#x, owner %#x", pos, got, want)
		}
	}
	if _, err := Borrow(v.Words()[:len(v.Words())-1], 1000); err == nil {
		t.Fatal("Borrow accepted words without room for the guard word")
	}
	if _, err := Borrow(v.Words(), 0); err == nil {
		t.Fatal("Borrow accepted a 0-bit vector")
	}
}
