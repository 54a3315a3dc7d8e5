package core

import (
	"encoding/binary"
	"fmt"

	"shbf/internal/bitvec"
	"shbf/internal/counters"
	"shbf/internal/hashtable"
)

// This file implements binary serialization for every filter type, so
// built filters can be shipped to the machines that query them (the
// paper's deployment stores the query-side array B on-chip at the
// forwarding element while construction happens elsewhere).
//
// Format: 4-byte magic "ShBF", a format version byte, a kind byte, the
// construction parameters as uvarints, then the arrays. Hash families
// are reconstructed from the stored seed, so a decoded filter is
// bit-for-bit the original. All types implement
// encoding.BinaryMarshaler and encoding.BinaryUnmarshaler.

const marshalVersion = 1

// Plausibility caps for decoded geometry: a corrupt or hostile header
// must not drive a huge allocation before the payload is even examined.
const (
	maxDecodeBits = 1 << 40 // 128 GiB of filter bits
	maxDecodeK    = 1 << 16
	maxDecodeN    = 1 << 48
)

// checkGeometry validates decoded size parameters against the caps.
func checkGeometry(m, k, n uint64) error {
	if m == 0 || m > maxDecodeBits {
		return fmt.Errorf("core: implausible filter size m = %d", m)
	}
	if k == 0 || k > maxDecodeK {
		return fmt.Errorf("core: implausible hash count k = %d", k)
	}
	if n > maxDecodeN {
		return fmt.Errorf("core: implausible element count n = %d", n)
	}
	return nil
}

// checkLens refuses decoded arrays whose length is not the m+slack−1
// entries (the base array and its offset slack) the header declares.
// Decoders decode and check their arrays before they construct, so a
// header of a few bytes cannot make them allocate arrays the input does
// not carry. The constructor still validates slack, and an in-range
// slack cannot wrap the sum, so an accepted array is the constructor's
// length.
func checkLens(m, slack uint64, lens ...int) error {
	for _, n := range lens {
		if want := m + slack - 1; uint64(n) != want {
			return fmt.Errorf("core: array length %d does not match geometry %d", n, want)
		}
	}
	return nil
}

// decodeBits decodes the bit array that ends a blob, checking it with
// checkLens.
func decodeBits(buf []byte, m, slack uint64) (*bitvec.Vector, error) {
	bits, rest, err := bitvec.DecodeVector(buf)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes", len(rest))
	}
	return bits, checkLens(m, slack, bits.Len())
}

// Filter kind tags in the serialized header.
const (
	kindMembership byte = iota + 1
	kindCountingMembership
	kindTShift
	kindAssociation
	kindCountingAssociation
	kindMultiplicity
	kindCountingMultiplicity
	kindSCM
	kindMultiAssociation
)

// header appends the common preamble.
func header(buf []byte, kind byte) []byte {
	buf = append(buf, 'S', 'h', 'B', 'F', marshalVersion, kind)
	return buf
}

// checkHeader consumes and validates the preamble.
func checkHeader(buf []byte, kind byte) ([]byte, error) {
	if len(buf) < 6 {
		return nil, fmt.Errorf("core: truncated header")
	}
	if string(buf[:4]) != "ShBF" {
		return nil, fmt.Errorf("core: bad magic %q", buf[:4])
	}
	if buf[4] != marshalVersion {
		return nil, fmt.Errorf("core: unsupported format version %d", buf[4])
	}
	if buf[5] != kind {
		return nil, fmt.Errorf("core: wrong filter kind %d (want %d)", buf[5], kind)
	}
	return buf[6:], nil
}

// uvarints appends values; readUvarints consumes them.
func uvarints(buf []byte, vals ...uint64) []byte {
	for _, v := range vals {
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

func readUvarints(buf []byte, dst ...*uint64) ([]byte, error) {
	for i, d := range dst {
		v, sz := binary.Uvarint(buf)
		if sz <= 0 {
			return nil, fmt.Errorf("core: truncated parameter %d", i)
		}
		*d = v
		buf = buf[sz:]
	}
	return buf, nil
}

// --- Membership ---------------------------------------------------------

// MarshalBinary implements encoding.BinaryMarshaler.
func (f *Membership) MarshalBinary() ([]byte, error) {
	buf := header(nil, kindMembership)
	buf = uvarints(buf, uint64(f.m), uint64(f.k), uint64(f.wbar), f.seed, uint64(f.n))
	return f.bits.AppendBinary(buf), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing f's
// state with the decoded filter.
func (f *Membership) UnmarshalBinary(data []byte) error {
	buf, err := checkHeader(data, kindMembership)
	if err != nil {
		return err
	}
	var m, k, wbar, seed, n uint64
	if buf, err = readUvarints(buf, &m, &k, &wbar, &seed, &n); err != nil {
		return err
	}
	if err := checkGeometry(m, k, n); err != nil {
		return err
	}
	bits, err := decodeBits(buf, m, wbar)
	if err != nil {
		return err
	}
	fresh, err := NewMembership(int(m), int(k), WithMaxOffset(int(wbar)), WithSeed(seed))
	if err != nil {
		return fmt.Errorf("core: decoding membership filter: %w", err)
	}
	fresh.bits = bits
	fresh.n = int(n)
	*f = *fresh
	return nil
}

// --- CountingMembership ---------------------------------------------------

// MarshalBinary implements encoding.BinaryMarshaler.
func (c *CountingMembership) MarshalBinary() ([]byte, error) {
	buf := header(nil, kindCountingMembership)
	buf = uvarints(buf, uint64(c.filter.m), uint64(c.filter.k), uint64(c.filter.wbar),
		c.filter.seed, uint64(c.filter.n))
	buf = c.filter.bits.AppendBinary(buf)
	return c.counts.AppendBinary(buf), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (c *CountingMembership) UnmarshalBinary(data []byte) error {
	buf, err := checkHeader(data, kindCountingMembership)
	if err != nil {
		return err
	}
	var m, k, wbar, seed, n uint64
	if buf, err = readUvarints(buf, &m, &k, &wbar, &seed, &n); err != nil {
		return err
	}
	if err := checkGeometry(m, k, n); err != nil {
		return err
	}
	bits, buf, err := bitvec.DecodeVector(buf)
	if err != nil {
		return err
	}
	counts, rest, err := counters.DecodeArray(buf)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("core: %d trailing bytes", len(rest))
	}
	if err := checkLens(m, wbar, bits.Len(), counts.Len()); err != nil {
		return err
	}
	inner, err := NewMembership(int(m), int(k), WithMaxOffset(int(wbar)), WithSeed(seed))
	if err != nil {
		return fmt.Errorf("core: decoding counting membership: %w", err)
	}
	inner.bits = bits
	inner.n = int(n)
	*c = CountingMembership{filter: inner, counts: counts}
	return nil
}

// --- TShift ---------------------------------------------------------------

// MarshalBinary implements encoding.BinaryMarshaler.
func (f *TShift) MarshalBinary() ([]byte, error) {
	buf := header(nil, kindTShift)
	buf = uvarints(buf, uint64(f.m), uint64(f.k), uint64(f.t), uint64(f.wbar), f.seed, uint64(f.n))
	return f.bits.AppendBinary(buf), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (f *TShift) UnmarshalBinary(data []byte) error {
	buf, err := checkHeader(data, kindTShift)
	if err != nil {
		return err
	}
	var m, k, t, wbar, seed, n uint64
	if buf, err = readUvarints(buf, &m, &k, &t, &wbar, &seed, &n); err != nil {
		return err
	}
	if err := checkGeometry(m, k, n); err != nil {
		return err
	}
	bits, err := decodeBits(buf, m, wbar)
	if err != nil {
		return err
	}
	fresh, err := NewTShift(int(m), int(k), int(t), WithMaxOffset(int(wbar)), WithSeed(seed))
	if err != nil {
		return fmt.Errorf("core: decoding t-shift filter: %w", err)
	}
	fresh.bits = bits
	fresh.n = int(n)
	*f = *fresh
	return nil
}

// --- Association ------------------------------------------------------------

// MarshalBinary implements encoding.BinaryMarshaler.
func (a *Association) MarshalBinary() ([]byte, error) {
	buf := header(nil, kindAssociation)
	buf = uvarints(buf, uint64(a.m), uint64(a.k), uint64(a.wbar), a.seed,
		uint64(a.n1), uint64(a.n2), uint64(a.nBoth))
	return a.bits.AppendBinary(buf), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (a *Association) UnmarshalBinary(data []byte) error {
	buf, err := checkHeader(data, kindAssociation)
	if err != nil {
		return err
	}
	var m, k, wbar, seed, n1, n2, nBoth uint64
	if buf, err = readUvarints(buf, &m, &k, &wbar, &seed, &n1, &n2, &nBoth); err != nil {
		return err
	}
	if err := checkGeometry(m, k, n1+n2); err != nil {
		return err
	}
	bits, err := decodeBits(buf, m, wbar)
	if err != nil {
		return err
	}
	fresh, err := BuildAssociation(nil, nil, int(m), int(k), WithMaxOffset(int(wbar)), WithSeed(seed))
	if err != nil {
		return fmt.Errorf("core: decoding association filter: %w", err)
	}
	fresh.bits = bits
	fresh.n1, fresh.n2, fresh.nBoth = int(n1), int(n2), int(nBoth)
	*a = *fresh
	return nil
}

// --- CountingAssociation ----------------------------------------------------

// MarshalBinary implements encoding.BinaryMarshaler.
func (a *CountingAssociation) MarshalBinary() ([]byte, error) {
	buf := header(nil, kindCountingAssociation)
	buf = uvarints(buf, uint64(a.m), uint64(a.k), uint64(a.wbar), a.seed)
	buf = a.bits.AppendBinary(buf)
	buf = a.counts.AppendBinary(buf)
	buf = a.sets.AppendSet(buf, inS1)       // T1
	return a.sets.AppendSet(buf, inS2), nil // T2
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (a *CountingAssociation) UnmarshalBinary(data []byte) error {
	buf, err := checkHeader(data, kindCountingAssociation)
	if err != nil {
		return err
	}
	var m, k, wbar, seed uint64
	if buf, err = readUvarints(buf, &m, &k, &wbar, &seed); err != nil {
		return err
	}
	if err := checkGeometry(m, k, 0); err != nil {
		return err
	}
	bits, buf, err := bitvec.DecodeVector(buf)
	if err != nil {
		return err
	}
	counts, buf, err := counters.DecodeArray(buf)
	if err != nil {
		return err
	}
	if err := checkLens(m, wbar, bits.Len(), counts.Len()); err != nil {
		return err
	}
	fresh, err := NewCountingAssociation(int(m), int(k), WithMaxOffset(int(wbar)), WithSeed(seed))
	if err != nil {
		return fmt.Errorf("core: decoding counting association: %w", err)
	}
	if buf, err = fresh.sets.DecodeSetInto(buf, inS1); err != nil {
		return err
	}
	rest, err := fresh.sets.DecodeSetInto(buf, inS2)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("core: %d trailing bytes", len(rest))
	}
	fresh.sets.Range(func(_ []byte, v uint64) bool {
		fresh.count(v, 1)
		return true
	})
	fresh.bits, fresh.counts = bits, counts
	*a = *fresh
	return nil
}

// --- Multiplicity -------------------------------------------------------------

// MarshalBinary implements encoding.BinaryMarshaler.
func (f *Multiplicity) MarshalBinary() ([]byte, error) {
	buf := header(nil, kindMultiplicity)
	buf = uvarints(buf, uint64(f.m), uint64(f.k), uint64(f.c), f.seed, uint64(f.n))
	return f.bits.AppendBinary(buf), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (f *Multiplicity) UnmarshalBinary(data []byte) error {
	buf, err := checkHeader(data, kindMultiplicity)
	if err != nil {
		return err
	}
	var m, k, c, seed, n uint64
	if buf, err = readUvarints(buf, &m, &k, &c, &seed, &n); err != nil {
		return err
	}
	if err := checkGeometry(m, k, n); err != nil {
		return err
	}
	bits, err := decodeBits(buf, m, c)
	if err != nil {
		return err
	}
	fresh, err := NewMultiplicity(int(m), int(k), int(c), WithSeed(seed))
	if err != nil {
		return fmt.Errorf("core: decoding multiplicity filter: %w", err)
	}
	fresh.bits = bits
	fresh.n = int(n)
	*f = *fresh
	return nil
}

// --- CountingMultiplicity -------------------------------------------------------

// MarshalBinary implements encoding.BinaryMarshaler. The backing hash
// table (safe mode) is included, so the decoded filter supports updates
// with the same no-false-negative guarantee.
func (f *CountingMultiplicity) MarshalBinary() ([]byte, error) {
	buf := header(nil, kindCountingMultiplicity)
	unsafeFlag := uint64(0)
	if f.table == nil {
		unsafeFlag = 1
	}
	buf = uvarints(buf, uint64(f.m), uint64(f.k), uint64(f.c), f.seed, unsafeFlag)
	buf = f.bits.AppendBinary(buf)
	buf = f.counts.AppendBinary(buf)
	if f.table != nil {
		buf = f.table.AppendBinary(buf)
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (f *CountingMultiplicity) UnmarshalBinary(data []byte) error {
	buf, err := checkHeader(data, kindCountingMultiplicity)
	if err != nil {
		return err
	}
	var m, k, c, seed, unsafeFlag uint64
	if buf, err = readUvarints(buf, &m, &k, &c, &seed, &unsafeFlag); err != nil {
		return err
	}
	if err := checkGeometry(m, k, 0); err != nil {
		return err
	}
	bits, buf, err := bitvec.DecodeVector(buf)
	if err != nil {
		return err
	}
	counts, buf, err := counters.DecodeArray(buf)
	if err != nil {
		return err
	}
	var table *hashtable.Table
	if unsafeFlag == 0 {
		table = hashtable.New(seed + 3)
		if buf, err = table.DecodeInto(buf); err != nil {
			return err
		}
	}
	if len(buf) != 0 {
		return fmt.Errorf("core: %d trailing bytes", len(buf))
	}
	if err := checkLens(m, c, bits.Len(), counts.Len()); err != nil {
		return err
	}
	opts := []Option{WithSeed(seed)}
	if unsafeFlag != 0 {
		opts = append(opts, WithUnsafeUpdates())
	}
	fresh, err := NewCountingMultiplicity(int(m), int(k), int(c), opts...)
	if err != nil {
		return fmt.Errorf("core: decoding counting multiplicity: %w", err)
	}
	fresh.bits, fresh.counts, fresh.table = bits, counts, table
	*f = *fresh
	return nil
}

// --- MultiAssociation -----------------------------------------------------------

// MarshalBinary implements encoding.BinaryMarshaler.
func (a *MultiAssociation) MarshalBinary() ([]byte, error) {
	buf := header(nil, kindMultiAssociation)
	buf = uvarints(buf, uint64(a.m), uint64(a.k), uint64(a.g), uint64(a.wbar), a.seed)
	for _, sz := range a.sizes {
		buf = uvarints(buf, uint64(sz))
	}
	return a.bits.AppendBinary(buf), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (a *MultiAssociation) UnmarshalBinary(data []byte) error {
	buf, err := checkHeader(data, kindMultiAssociation)
	if err != nil {
		return err
	}
	var m, k, g, wbar, seed uint64
	if buf, err = readUvarints(buf, &m, &k, &g, &wbar, &seed); err != nil {
		return err
	}
	if err := checkGeometry(m, k, 0); err != nil {
		return err
	}
	if g < 2 || g > MaxMultiAssociationSets {
		return fmt.Errorf("core: implausible set count g = %d", g)
	}
	sizes := make([]uint64, g)
	for i := range sizes {
		if buf, err = readUvarints(buf, &sizes[i]); err != nil {
			return err
		}
		// Each size is bounded individually; summing first could wrap
		// uint64 and sneak implausible sizes past the cap.
		if err := checkGeometry(m, k, sizes[i]); err != nil {
			return err
		}
	}
	bits, err := decodeBits(buf, m, wbar)
	if err != nil {
		return err
	}
	fresh, err := BuildMultiAssociation(make([][][]byte, g), int(m), int(k),
		WithMaxOffset(int(wbar)), WithSeed(seed))
	if err != nil {
		return fmt.Errorf("core: decoding multi-association filter: %w", err)
	}
	fresh.bits = bits
	for i, sz := range sizes {
		fresh.sizes[i] = int(sz)
	}
	*a = *fresh
	return nil
}

// --- SCMSketch ------------------------------------------------------------------

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *SCMSketch) MarshalBinary() ([]byte, error) {
	buf := header(nil, kindSCM)
	buf = uvarints(buf, uint64(s.d), uint64(s.r), uint64(s.rows[0].Width()), s.seed)
	for _, row := range s.rows {
		buf = row.AppendBinary(buf)
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *SCMSketch) UnmarshalBinary(data []byte) error {
	buf, err := checkHeader(data, kindSCM)
	if err != nil {
		return err
	}
	var d, r, width, seed uint64
	if buf, err = readUvarints(buf, &d, &r, &width, &seed); err != nil {
		return err
	}
	if err := checkGeometry(r, d, 0); err != nil {
		return err
	}
	var rows []*counters.Array
	for i := uint64(0); i < d/2; i++ {
		row, rest, err := counters.DecodeArray(buf)
		if err != nil {
			return fmt.Errorf("core: decoding SCM row %d: %w", i, err)
		}
		if uint64(row.Width()) != width || row.Len() != int(r)+scmMaxOffset(row.Width()) {
			return fmt.Errorf("core: SCM row %d geometry mismatch", i)
		}
		rows = append(rows, row)
		buf = rest
	}
	if len(buf) != 0 {
		return fmt.Errorf("core: %d trailing bytes", len(buf))
	}
	fresh, err := NewSCMSketch(int(d), int(r), WithSeed(seed), WithCounterWidth(uint(width)))
	if err != nil {
		return fmt.Errorf("core: decoding SCM sketch: %w", err)
	}
	copy(fresh.rows, rows)
	*s = *fresh
	return nil
}
