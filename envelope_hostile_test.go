package shbf_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"shbf"
)

// hostileEnvelope frames payload as a ShBE envelope of kind.
func hostileEnvelope(kind shbf.Kind, payload []byte) []byte {
	env := append([]byte("ShBE"), 1, byte(kind))
	env = binary.AppendUvarint(env, uint64(len(payload)))
	return append(env, payload...)
}

// hostileBlob appends the given uvarints to a prefix: a filter header
// followed by the sizes it declares.
func hostileBlob(prefix string, vals ...uint64) []byte {
	buf := []byte(prefix)
	for _, v := range vals {
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

// TestDecodeRefusesHostileHeadersBeforeAllocating feeds Decode
// envelopes of a few dozen bytes whose headers declare large arrays
// (at most 2^27 bits each) that the bytes do not carry. Each must be
// refused with less than 1 MiB allocated: a merge over HTTP or ShBP,
// and a single ShBU envelope datagram, reach this decoder from outside.
func TestDecodeRefusesHostileHeadersBeforeAllocating(t *testing.T) {
	const m = 1 << 27
	// The core blob headers: "ShBF", format version 1, the kind tag.
	const (
		membership           = "ShBF\x01\x01"
		countingMembership   = "ShBF\x01\x02"
		association          = "ShBF\x01\x04"
		countingMultiplicity = "ShBF\x01\x07"
		scm                  = "ShBF\x01\x08"
	)
	// A 120-bit vector (m = 64 at w̄ = 57) with its two zero words.
	smallBits := append(binary.AppendUvarint(nil, 64+56), make([]byte, 16)...)
	for _, tc := range []struct {
		name string
		env  []byte
	}{
		// m, k, w̄, seed, n, then the vector's bit length with no words.
		{"membership without words", hostileEnvelope(shbf.KindMembership,
			hostileBlob(membership, m, 8, 57, 1, 0, m+56))},
		// The vector decodes, but covers 64 of the header's 2^27 bits.
		{"membership with a short array", hostileEnvelope(shbf.KindMembership,
			append(hostileBlob(membership, m, 8, 57, 1, 0), smallBits...))},
		// m, k, w̄, seed, n1, n2, n∩, then no vector at all.
		{"association without an array", hostileEnvelope(shbf.KindAssociation,
			hostileBlob(association, m, 4, 57, 1, 0, 0, 0))},
		// A small valid B, then C declaring 2^21 64-bit counters (count,
		// width, overflow tally) with no words.
		{"counting membership without counter words", hostileEnvelope(shbf.KindCountingMembership,
			append(append(hostileBlob(countingMembership, 64, 8, 57, 1, 0), smallBits...),
				hostileBlob("", 1<<21, 64, 0)...))},
		// m, k, c, seed, safe mode, then nothing.
		{"counting multiplicity without arrays", hostileEnvelope(shbf.KindCountingMultiplicity,
			hostileBlob(countingMultiplicity, m, 3, 9, 1, 0))},
		// d, r, counter width, seed: one row of 2^22 32-bit counters.
		{"SCM sketch without rows", hostileEnvelope(shbf.KindSCMSketch,
			hostileBlob(scm, 2, 1<<22, 32, 1))},
		// "ShBS", snapshot version 1, the membership tag, then 2^20 shards
		// and no blobs.
		{"sharded without shards", hostileEnvelope(shbf.KindShardedMembership,
			hostileBlob("ShBS\x01\x02", 1<<20))},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := shbf.Decode(tc.env)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: %d-byte envelope accepted", tc.name, len(tc.env))
			continue
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: refusing a %d-byte envelope allocated %.1f MiB (%v)",
				tc.name, len(tc.env), float64(alloc)/(1<<20), err)
		}
	}
}

// TestLoadAllocatesOnlyForBytesThatArrive feeds Load a 10-byte stream
// whose envelope declares a 2^27-byte payload: it must be refused as
// truncated with less than 1 MiB allocated. A valid envelope whose
// payload spans several buffer doublings still loads byte for byte.
func TestLoadAllocatesOnlyForBytesThatArrive(t *testing.T) {
	short := hostileEnvelope(shbf.KindMembership, nil)[:6]
	short = binary.AppendUvarint(short, 1<<27)
	if len(short) != 10 {
		t.Fatalf("stream is %d bytes, want 10", len(short))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := shbf.Load(bytes.NewReader(short))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("Load of a truncated stream: %v", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("refusing a 10-byte stream allocated %.1f MiB", float64(alloc)/(1<<20))
	}

	f, err := shbf.New(shbf.Spec{Kind: shbf.KindMembership, M: 1 << 22, K: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	set := f.(shbf.Set)
	for i := range 10_000 {
		set.Add([]byte(fmt.Sprintf("key-%d", i)))
	}
	var dump bytes.Buffer
	if err := shbf.Dump(&dump, f); err != nil {
		t.Fatal(err)
	}
	want := dump.Bytes()
	got, err := shbf.Load(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := shbf.Dump(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Fatalf("a %d-byte envelope did not load back byte for byte", len(want))
	}
	if _, err := shbf.Load(bytes.NewReader(want[:len(want)-1])); err == nil {
		t.Fatal("an envelope one byte short loaded")
	}
}
