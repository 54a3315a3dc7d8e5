package hashtable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"shbf/internal/hashing"
)

// This file implements binary serialization for the chained hash table:
// uvarint entry count, then (uvarint key length, key bytes, uvarint
// value) per entry. Entries are emitted in sorted key order so the
// encoding is deterministic regardless of insertion history or layout.

// AppendBinary appends the table's serialized form to buf and returns
// the result.
func (t *Table) AppendBinary(buf []byte) []byte {
	return t.appendSorted(buf, t.sortedNodes(), func(v uint64) (uint64, bool) { return v, true })
}

// AppendSet appends, in AppendBinary's format, the set of keys whose
// value has a bit of mask set, each written with value 1. A table
// whose values hold several set-membership bits (CShBF_A keeps S1 and
// S2 as bits of one table) serializes each set as its own table this
// way; DecodeSetInto reads it back.
func (t *Table) AppendSet(buf []byte, mask uint64) []byte {
	return t.appendSorted(buf, t.sortedNodes(), func(v uint64) (uint64, bool) { return 1, v&mask != 0 })
}

// sortedNodes returns the live node indices in key order.
func (t *Table) sortedNodes() []uint32 {
	idx := make([]uint32, 0, t.size)
	for i := uint32(1); i < t.used; i++ {
		if t.at(i).meta != freeMeta {
			idx = append(idx, i)
		}
	}
	slices.SortFunc(idx, func(a, b uint32) int { return bytes.Compare(t.keyOf(a), t.keyOf(b)) })
	return idx
}

// appendSorted writes the entries of idx that sel keeps, with the
// values sel maps them to.
func (t *Table) appendSorted(buf []byte, idx []uint32, sel func(uint64) (uint64, bool)) []byte {
	n := 0
	for _, i := range idx {
		if _, ok := sel(t.valueOf(i)); ok {
			n++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	for _, i := range idx {
		v, ok := sel(t.valueOf(i))
		if !ok {
			continue
		}
		key := t.keyOf(i)
		buf = binary.AppendUvarint(buf, uint64(len(key)))
		buf = append(buf, key...)
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

// DecodeInto reads entries serialized by AppendBinary into t (which
// should be empty), returning the remaining bytes.
func (t *Table) DecodeInto(buf []byte) ([]byte, error) {
	return t.decode(buf, func(key []byte, value uint64) { t.Put(key, value) })
}

// DecodeSetInto reads a set serialized by AppendSet (or any table
// encoding, whose values it ignores) and ORs bit into the value of
// every listed key, inserting keys not yet stored. It returns the
// remaining bytes.
func (t *Table) DecodeSetInto(buf []byte, bit uint64) ([]byte, error) {
	return t.decode(buf, func(key []byte, _ uint64) {
		s := t.Lookup(key, hashing.KeyDigest(key))
		t.Store(s, key, t.Value(s)|bit)
	})
}

func (t *Table) decode(buf []byte, put func(key []byte, value uint64)) ([]byte, error) {
	count, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, fmt.Errorf("hashtable: truncated entry count")
	}
	buf = buf[sz:]
	for i := uint64(0); i < count; i++ {
		klen, sz := binary.Uvarint(buf)
		if sz <= 0 || uint64(len(buf)-sz) < klen {
			return nil, fmt.Errorf("hashtable: truncated key %d", i)
		}
		buf = buf[sz:]
		key := buf[:klen]
		buf = buf[klen:]
		value, sz := binary.Uvarint(buf)
		if sz <= 0 {
			return nil, fmt.Errorf("hashtable: truncated value %d", i)
		}
		buf = buf[sz:]
		put(key, value)
	}
	return buf, nil
}
