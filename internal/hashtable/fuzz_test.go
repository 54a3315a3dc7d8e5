package hashtable

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"shbf/internal/hashing"
)

// fuzzKey derives key id's bytes: 0–300 bytes with embedded zeros.
// Keys 2j and 2j+1 share content and differ only by a trailing zero
// byte, so inline and arena keys that agree on every stored byte but
// their length are both exercised. Ids from bulkBase up draw long keys
// half the time, enough for bulk deletes to trigger arena compaction.
func fuzzKey(id uint32) []byte {
	state := uint64(id >> 1)
	h := hashing.SplitMix64(&state)
	n := int(h % 17)
	switch {
	case h>>8&3 == 0, id >= bulkBase && h>>10&1 == 0:
		n = 17 + int(h>>16%284)
	}
	key := make([]byte, n, n+1)
	for j := range key {
		if j%5 != 3 {
			key[j] = byte(hashing.SplitMix64(&state))
		}
	}
	if id&1 == 1 {
		key = append(key, 0)
	}
	return key
}

const bulkBase = 1 << 16

// modelEncoding is the AppendBinary format computed from the model.
func modelEncoding(ref map[string]uint64) []byte {
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	buf := binary.AppendUvarint(nil, uint64(len(keys)))
	for _, k := range keys {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.AppendUvarint(buf, ref[k])
	}
	return buf
}

// checkModel compares every stored entry with the model, and the spill
// map with the model's values of spilled or more.
func checkModel(t *testing.T, tab *Table, ref map[string]uint64) {
	t.Helper()
	if tab.Len() != len(ref) {
		t.Fatalf("Len = %d, model has %d", tab.Len(), len(ref))
	}
	spills := 0
	for _, v := range ref {
		if v >= spilled {
			spills++
		}
	}
	if len(tab.spill) != spills {
		t.Fatalf("%d spill entries, model has %d values of %d or more", len(tab.spill), spills, spilled)
	}
	seen := 0
	tab.Range(func(k []byte, v uint64) bool {
		if want, ok := ref[string(k)]; !ok || want != v {
			t.Fatalf("Range saw %x=%d, model has (%d,%v)", k, v, want, ok)
		}
		seen++
		return true
	})
	if seen != len(ref) {
		t.Fatalf("Range visited %d entries, model has %d", seen, len(ref))
	}
	for k, want := range ref {
		if v, ok := tab.Get([]byte(k)); !ok || v != want {
			t.Fatalf("Get(%x) = (%d,%v), model has %d", k, v, ok, want)
		}
	}
}

// FuzzTable runs a random sequence of Put/Add/Sub/Delete, single-probe
// Lookup/Store/Remove and bulk insert/delete operations against a Go
// map, checking the whole table after every operation and, at the end,
// both serializations against the model.
func FuzzTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 7, 0, 1, 1, 3, 1, 0, 3, 1, 0})
	// Bulk inserts past several doublings, then bulk deletes past the
	// arena compaction threshold, then reinserts onto the free list.
	f.Add([]byte{6, 0, 255, 6, 1, 255, 7, 0, 255, 0, 9, 4, 4, 9, 5, 6, 0, 40, 7, 1, 200})
	f.Add([]byte{4, 3, 1, 4, 3, 0, 1, 3, 200, 2, 3, 100, 2, 3, 200, 5, 3, 0, 4, 4, 1})
	// Values above the inline cap: put, overwrite below and above it,
	// add past it, subtract under it, store and remove through a slot,
	// delete, then reuse the freed nodes.
	f.Add([]byte{0, 1, 200, 0, 1, 5, 0, 1, 255, 1, 2, 100, 1, 2, 100, 2, 2, 150, 4, 3, 254, 4, 3, 1, 0, 4, 127, 3, 4, 0, 0, 5, 126, 1, 5, 1, 5, 5, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		tab := New(5)
		ref := map[string]uint64{}
		if len(ops) > 3*64 {
			ops = ops[:3*64]
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			op, a, b := ops[0]%8, uint32(ops[1]), uint64(ops[2])
			key := fuzzKey(a)
			switch op {
			case 0: // Put
				tab.Put(key, b)
				ref[string(key)] = b
			case 1: // Add
				want := ref[string(key)] + b
				if got := tab.Add(key, b); got != want {
					t.Fatalf("Add = %d, want %d", got, want)
				}
				ref[string(key)] = want
			case 2: // Sub
				v, ok := ref[string(key)]
				want := uint64(0)
				if v > b {
					want = v - b
				}
				if got, found := tab.Sub(key, b); got != want || found != ok {
					t.Fatalf("Sub = (%d,%v), want (%d,%v)", got, found, want, ok)
				}
				if ok && want == 0 {
					delete(ref, string(key))
				} else if ok {
					ref[string(key)] = want
				}
			case 3: // Delete
				_, ok := ref[string(key)]
				if got := tab.Delete(key); got != ok {
					t.Fatalf("Delete = %v, want %v", got, ok)
				}
				delete(ref, string(key))
			case 4: // single probe, then Store or Remove on the slot
				s := tab.Lookup(key, hashing.KeyDigest(key))
				v, ok := ref[string(key)]
				if s.Found() != ok || tab.Value(s) != v {
					t.Fatalf("Lookup = (%d,%v), want (%d,%v)", tab.Value(s), s.Found(), v, ok)
				}
				if b&1 == 0 {
					tab.Store(s, key, b)
					ref[string(key)] = b
				} else {
					tab.Remove(s)
					delete(ref, string(key))
				}
			case 5: // Get
				v, ok := ref[string(key)]
				if got, found := tab.Get(key); got != v || found != ok {
					t.Fatalf("Get = (%d,%v), want (%d,%v)", got, found, v, ok)
				}
			case 6: // bulk insert of 8(b+1) keys
				for i := uint32(0); i < 8*uint32(b+1); i++ {
					k := fuzzKey(bulkBase + a<<11 + i)
					tab.Put(k, uint64(i))
					ref[string(k)] = uint64(i)
				}
			case 7: // bulk delete of 8(b+1) keys, present or not
				for i := uint32(0); i < 8*uint32(b+1); i++ {
					k := fuzzKey(bulkBase + a<<11 + i)
					tab.Delete(k)
					delete(ref, string(k))
				}
			}
			checkModel(t, tab, ref)
		}

		enc := tab.AppendBinary(nil)
		if want := modelEncoding(ref); !bytes.Equal(enc, want) {
			t.Fatalf("AppendBinary differs from the model's encoding")
		}
		back := New(6)
		if rest, err := back.DecodeInto(enc); err != nil || len(rest) != 0 {
			t.Fatalf("DecodeInto: %v, %d bytes left", err, len(rest))
		}
		checkModel(t, back, ref)

		// The odd-valued keys as a set, read back as bit 2.
		set := map[string]uint64{}
		for k, v := range ref {
			if v&1 != 0 {
				set[k] = 1
			}
		}
		if got := tab.AppendSet(nil, 1); !bytes.Equal(got, modelEncoding(set)) {
			t.Fatalf("AppendSet differs from the model's encoding")
		}
		bits := New(7)
		if _, err := bits.DecodeSetInto(tab.AppendSet(nil, 1), 2); err != nil {
			t.Fatal(err)
		}
		for k := range set {
			set[k] = 2
		}
		checkModel(t, bits, set)
	})
}
