package bitvec

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// This file implements the binary serialization of bit vectors used by
// the filters' MarshalBinary/UnmarshalBinary: a uvarint bit length
// followed by the data words little-endian (guard word excluded — it is
// reconstructed empty).

// AppendBinary appends the vector's serialized form to buf and returns
// the result.
func (v *Vector) AppendBinary(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(v.n))
	dataWords := (v.n + 63) / 64
	for _, w := range v.words[:dataWords] {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// DecodeVector reads a vector serialized by AppendBinary from buf,
// returning the vector and the remaining bytes. It allocates only once
// buf holds every word the length declares.
func DecodeVector(buf []byte) (*Vector, []byte, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, nil, fmt.Errorf("bitvec: truncated length")
	}
	buf = buf[sz:]
	if n == 0 || n > 1<<40 {
		return nil, nil, fmt.Errorf("bitvec: implausible bit length %d", n)
	}
	dataWords := (int(n) + 63) / 64
	if len(buf) < dataWords*8 {
		return nil, nil, fmt.Errorf("bitvec: truncated words: need %d bytes, have %d", dataWords*8, len(buf))
	}
	v := New(int(n))
	for i := 0; i < dataWords; i++ {
		v.words[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	// The tail bits beyond n within the last word must be zero for
	// OnesCount/Equal invariants; reject corrupt input.
	if rem := uint(int(n) & 63); rem != 0 {
		if v.words[dataWords-1]>>rem != 0 {
			return nil, nil, fmt.Errorf("bitvec: non-zero bits beyond logical length")
		}
	}
	return v, buf[dataWords*8:], nil
}

// littleEndian reports whether the host stores a word's bytes least
// significant first, as the serialized forms do.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// WordsOf returns b as little-endian 64-bit words, the layout of Words
// in the serialized forms (a frozen container's sections); a trailing
// partial word is dropped. On a little-endian host, when b is 8-byte
// aligned, the words alias b and nothing is copied, so b must stay
// unchanged while they are in use. Otherwise they are a copy, decoded
// once.
func WordsOf(b []byte) []uint64 {
	n := len(b) / 8
	if p := unsafe.Pointer(unsafe.SliceData(b)); littleEndian && n > 0 && uintptr(p)%8 == 0 {
		return unsafe.Slice((*uint64)(p), n)
	}
	w := make([]uint64, n)
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return w
}
