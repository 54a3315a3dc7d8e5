package frozen

import (
	"encoding/binary"
	"fmt"
)

// Stack file format ("ShBK"): N frozen ShBZ containers back to back,
// 64-byte aligned, followed by an index and a fixed footer — the shape
// a host storage engine wants for thousands of SSTable-style filters
// in one mapped file. One OpenStack validates the index; each At(i) is
// then O(1): slice out the i-th container and Open it in place (no
// copying for an aligned file, the per-filter cost is the handle and
// its per-shard views).
//
//	[container 0][zero pad to 64]…[container N−1][zero pad]
//	[index: N × {offset u64, length u64}]
//	[footer, 32 bytes at EOF:
//	    0  8  index offset
//	    8  8  container count N
//	   16  8  total file bytes
//	   24  1  version (1)
//	   25  3  reserved, zero
//	   28  4  magic "ShBK"]
//
// The footer sits at the end so a stack can be opened from a mapped
// file without knowing anything but its length. (The magic differs
// from the sharded snapshot's "ShBS" — the two formats share a prefix
// family but are unrelated.)

const (
	// stackVersion is the current stack format version.
	stackVersion = 1
	// footerSize is the fixed trailer length.
	footerSize = 32
	// indexEntrySize is one {offset, length} index entry.
	indexEntrySize = 16
	// stackAlign is the container alignment within the file.
	stackAlign = 64
	// maxStackFilters bounds the index against implausible counts.
	maxStackFilters = 1 << 28
)

// stackMagic identifies a stack file.
var stackMagic = [4]byte{'S', 'h', 'B', 'K'}

// Stack is an open stack file: a validated index over the mapped
// bytes. At(i) opens the i-th container in place.
type Stack struct {
	data  []byte
	index []byte // count × indexEntrySize
	count int
}

// OpenStack parses the footer and index of a stack file and validates
// every entry's bounds. The containers themselves are not touched —
// cost is O(count) bounds checks, independent of filter sizes.
func OpenStack(data []byte) (*Stack, error) {
	if len(data) < footerSize {
		return nil, fmt.Errorf("frozen: %d bytes is shorter than the %d-byte stack footer", len(data), footerSize)
	}
	ft := data[len(data)-footerSize:]
	if [4]byte(ft[28:32]) != stackMagic {
		return nil, fmt.Errorf("frozen: bad stack magic %q", ft[28:32])
	}
	if ft[24] != stackVersion {
		return nil, fmt.Errorf("frozen: unsupported stack version %d", ft[24])
	}
	if ft[25] != 0 || ft[26] != 0 || ft[27] != 0 {
		return nil, fmt.Errorf("frozen: reserved stack footer bytes are not zero")
	}
	indexOff := binary.LittleEndian.Uint64(ft[0:8])
	count := binary.LittleEndian.Uint64(ft[8:16])
	total := binary.LittleEndian.Uint64(ft[16:24])
	if total != uint64(len(data)) {
		return nil, fmt.Errorf("frozen: stack footer claims %d bytes, have %d", total, len(data))
	}
	if count > maxStackFilters {
		return nil, fmt.Errorf("frozen: stack count %d exceeds the %d bound", count, maxStackFilters)
	}
	indexLen := count * indexEntrySize
	if indexOff > total-footerSize || indexLen != total-footerSize-indexOff {
		return nil, fmt.Errorf("frozen: stack index [%d,+%d) inconsistent with %d-byte file", indexOff, indexLen, total)
	}
	index := data[indexOff : indexOff+indexLen]
	for i := uint64(0); i < count; i++ {
		e := index[i*indexEntrySize:]
		off := binary.LittleEndian.Uint64(e[0:8])
		n := binary.LittleEndian.Uint64(e[8:16])
		if off%stackAlign != 0 {
			return nil, fmt.Errorf("frozen: stack entry %d at offset %d is not %d-byte aligned", i, off, stackAlign)
		}
		if n < headerSize || off > indexOff || n > indexOff-off {
			return nil, fmt.Errorf("frozen: stack entry %d [%d,+%d) out of bounds", i, off, n)
		}
	}
	return &Stack{data: data, index: index, count: int(count)}, nil
}

// Len returns the number of stacked filters.
func (s *Stack) Len() int { return s.count }

// At opens the i-th filter in place (a fresh handle each call; open
// once and reuse for a hot filter). The handle aliases the stack's
// bytes.
func (s *Stack) At(i int) (*Filter, error) {
	if i < 0 || i >= s.count {
		return nil, fmt.Errorf("frozen: stack index %d out of range [0,%d)", i, s.count)
	}
	e := s.index[i*indexEntrySize:]
	off := binary.LittleEndian.Uint64(e[0:8])
	n := binary.LittleEndian.Uint64(e[8:16])
	f, err := Open(s.data[off : off+n])
	if err != nil {
		return nil, fmt.Errorf("frozen: stack entry %d: %w", i, err)
	}
	return f, nil
}

// SizeBytes returns the stack file's total size.
func (s *Stack) SizeBytes() int { return len(s.data) }

// StackBuilder accumulates frozen containers and renders the stack
// file. The zero value is ready to use.
type StackBuilder struct {
	buf     []byte
	offsets []uint64
	lengths []uint64
}

// Add freezes a live filter (any source Append accepts) and appends
// the container to the stack.
func (b *StackBuilder) Add(f any) error {
	start := b.pad()
	buf, err := Append(b.buf, f)
	if err != nil {
		b.buf = b.buf[:start] // drop the alignment pad too
		return err
	}
	b.buf = buf
	b.offsets = append(b.offsets, uint64(start))
	b.lengths = append(b.lengths, uint64(len(b.buf)-start))
	return nil
}

// AddFrozen appends an already-frozen ShBZ container (validated by
// opening it) to the stack.
func (b *StackBuilder) AddFrozen(shbz []byte) error {
	f, err := Open(shbz)
	if err != nil {
		return err
	}
	start := b.pad()
	b.buf = append(b.buf, f.Bytes()...)
	b.offsets = append(b.offsets, uint64(start))
	b.lengths = append(b.lengths, uint64(len(f.Bytes())))
	return nil
}

// pad zero-pads the buffer to the container alignment and returns the
// next container's offset.
func (b *StackBuilder) pad() int {
	for len(b.buf)%stackAlign != 0 {
		b.buf = append(b.buf, 0)
	}
	return len(b.buf)
}

// Len returns the number of containers added so far.
func (b *StackBuilder) Len() int { return len(b.offsets) }

// Finish appends the index and footer and returns the complete stack
// file. The builder must not be reused afterwards.
func (b *StackBuilder) Finish() []byte {
	indexOff := b.pad()
	var e [indexEntrySize]byte
	for i := range b.offsets {
		binary.LittleEndian.PutUint64(e[0:8], b.offsets[i])
		binary.LittleEndian.PutUint64(e[8:16], b.lengths[i])
		b.buf = append(b.buf, e[:]...)
	}
	var ft [footerSize]byte
	binary.LittleEndian.PutUint64(ft[0:8], uint64(indexOff))
	binary.LittleEndian.PutUint64(ft[8:16], uint64(len(b.offsets)))
	binary.LittleEndian.PutUint64(ft[16:24], uint64(len(b.buf)+footerSize))
	ft[24] = stackVersion
	copy(ft[28:32], stackMagic[:])
	return append(b.buf, ft[:]...)
}
