package counters

import (
	"encoding/binary"
	"fmt"
)

// This file implements binary serialization for counter arrays: uvarint
// count, uvarint width, uvarint overflow tally, then the packed words
// little-endian.

// AppendBinary appends the array's serialized form to buf and returns
// the result.
func (a *Array) AppendBinary(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(a.n))
	buf = binary.AppendUvarint(buf, uint64(a.width))
	buf = binary.AppendUvarint(buf, a.overflows)
	for _, w := range a.words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// DecodeArray reads an array serialized by AppendBinary from buf,
// returning the array and the remaining bytes. It allocates only once
// buf holds every word the count and width declare.
func DecodeArray(buf []byte) (*Array, []byte, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, nil, fmt.Errorf("counters: truncated count")
	}
	buf = buf[sz:]
	width, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, nil, fmt.Errorf("counters: truncated width")
	}
	buf = buf[sz:]
	overflows, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, nil, fmt.Errorf("counters: truncated overflow tally")
	}
	buf = buf[sz:]

	if n == 0 || n > 1<<40 {
		return nil, nil, fmt.Errorf("counters: implausible count %d", n)
	}
	if width < 1 || width > 64 {
		return nil, nil, fmt.Errorf("counters: width %d out of range", width)
	}
	words := (int(n)*int(width) + 63) / 64
	if len(buf) < words*8 {
		return nil, nil, fmt.Errorf("counters: truncated words: need %d bytes, have %d", words*8, len(buf))
	}
	a := New(int(n), uint(width))
	a.overflows = overflows
	for i := range a.words {
		a.words[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	return a, buf[words*8:], nil
}
