package shbf

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"shbf/internal/core"
	"shbf/internal/sharded"
	"shbf/internal/window"
)

// The self-describing envelope wraps any filter's MarshalBinary output
// with enough framing that the reader needs no out-of-band knowledge
// of what was written: 4-byte magic "ShBE", a format version byte, the
// Kind as one byte, the payload length as a uvarint, then the payload
// (the filter's own serialization, which embeds its full geometry and
// seed). [Dump] writes one envelope; [Load] reads one back and returns
// the reconstructed filter as a [Filter], ready to be type-asserted to
// its query surface. Because the length travels in the header,
// envelopes concatenate: [Decode] consumes one envelope from a byte
// slice and returns the rest, which is how the daemon snapshot bundles
// its three filters in one file.
//
// Envelopes store bit arrays and seeds, never keys, so they load
// across releases — but the positions those bits encode are a
// function of the release's hash pipeline. Cross-version bit-pattern
// determinism reset at the version that introduced the one-pass
// digest pipeline (DESIGN.md §1.5): an envelope written by an earlier
// release still decodes, yet its bits describe positions the current
// pipeline will never probe, so such filters must be rebuilt from
// source data rather than loaded.

const (
	envelopeMagic   = "ShBE"
	envelopeVersion = 1

	// maxEnvelopePayload caps the declared payload length so a corrupt
	// header cannot drive a huge allocation.
	maxEnvelopePayload = 1 << 38 // 256 GiB, above any plausible filter
)

// emptyFor allocates the zero filter value for a kind, the receiver
// whose UnmarshalBinary replaces its state with the decoded filter.
func emptyFor(kind Kind) (Filter, error) {
	switch kind {
	case KindMembership:
		return new(core.Membership), nil
	case KindCountingMembership:
		return new(core.CountingMembership), nil
	case KindTShift:
		return new(core.TShift), nil
	case KindAssociation:
		return new(core.Association), nil
	case KindCountingAssociation:
		return new(core.CountingAssociation), nil
	case KindMultiAssociation:
		return new(core.MultiAssociation), nil
	case KindMultiplicity:
		return new(core.Multiplicity), nil
	case KindCountingMultiplicity:
		return new(core.CountingMultiplicity), nil
	case KindSCMSketch:
		return new(core.SCMSketch), nil
	case KindShardedMembership:
		return new(sharded.Filter), nil
	case KindShardedAssociation:
		return new(sharded.Association), nil
	case KindShardedMultiplicity:
		return new(sharded.Multiplicity), nil
	case KindWindowMembership:
		return new(window.Membership), nil
	case KindWindowAssociation:
		return new(window.Association), nil
	case KindWindowMultiplicity:
		return new(window.Multiplicity), nil
	case KindWindowShardedMembership:
		return new(sharded.Window), nil
	case KindWindowShardedAssociation:
		return new(sharded.WindowAssociation), nil
	case KindWindowShardedMultiplicity:
		return new(sharded.WindowMultiplicity), nil
	}
	return nil, fmt.Errorf("shbf: envelope has unknown filter kind %d", uint8(kind))
}

// AppendDump serializes f and appends its envelope to buf — the
// allocation-friendly form of [Dump] for callers assembling multi-
// filter containers (envelopes concatenate; see [Decode]).
func AppendDump(buf []byte, f Filter) ([]byte, error) {
	kind := f.Kind()
	if !kind.Valid() {
		return nil, fmt.Errorf("shbf: cannot dump filter of invalid kind %s", kind)
	}
	blob, err := f.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("shbf: marshaling %s filter: %w", kind, err)
	}
	buf = append(buf, envelopeMagic...)
	buf = append(buf, envelopeVersion, byte(kind))
	buf = binary.AppendUvarint(buf, uint64(len(blob)))
	return append(buf, blob...), nil
}

// Dump writes f to w as one self-describing envelope. Load reads it
// back without being told the kind.
func Dump(w io.Writer, f Filter) error {
	buf, err := AppendDump(nil, f)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// Decode consumes one envelope from the front of data, returning the
// reconstructed filter and the remaining bytes. Envelopes concatenate,
// so repeated Decode calls walk a stream of dumped filters.
func Decode(data []byte) (Filter, []byte, error) {
	if len(data) < len(envelopeMagic)+2 {
		return nil, nil, fmt.Errorf("shbf: truncated envelope header")
	}
	if string(data[:len(envelopeMagic)]) != envelopeMagic {
		return nil, nil, fmt.Errorf("shbf: bad envelope magic %q", data[:len(envelopeMagic)])
	}
	if v := data[len(envelopeMagic)]; v != envelopeVersion {
		return nil, nil, fmt.Errorf("shbf: unsupported envelope version %d", v)
	}
	kind := Kind(data[len(envelopeMagic)+1])
	buf := data[len(envelopeMagic)+2:]
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, nil, fmt.Errorf("shbf: truncated envelope length")
	}
	buf = buf[sz:]
	if n > maxEnvelopePayload {
		return nil, nil, fmt.Errorf("shbf: implausible envelope payload length %d", n)
	}
	if uint64(len(buf)) < n {
		return nil, nil, fmt.Errorf("shbf: envelope payload truncated (%d of %d bytes)", len(buf), n)
	}
	f, err := decodePayload(kind, buf[:n])
	if err != nil {
		return nil, nil, err
	}
	return f, buf[n:], nil
}

// decodePayload reconstructs a filter of the tagged kind from its
// MarshalBinary payload.
func decodePayload(kind Kind, payload []byte) (Filter, error) {
	f, err := emptyFor(kind)
	if err != nil {
		return nil, err
	}
	u, ok := f.(interface{ UnmarshalBinary([]byte) error })
	if !ok {
		return nil, fmt.Errorf("shbf: %s filter does not decode", kind)
	}
	if err := u.UnmarshalBinary(payload); err != nil {
		return nil, fmt.Errorf("shbf: decoding %s filter: %w", kind, err)
	}
	return f, nil
}

// Load reads exactly one dumped filter from r and reconstructs it; the
// envelope's kind tag selects the concrete type, so the caller needs
// no prior knowledge of what was dumped. Trailing bytes after the
// envelope are an error. The header and declared length are validated
// before the payload is read, so a corrupt or non-envelope stream is
// rejected without buffering it, and a stream shorter than its
// declared length costs about what it holds.
func Load(r io.Reader) (Filter, error) {
	br := bufio.NewReader(r)
	hdr := make([]byte, len(envelopeMagic)+2)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("shbf: reading envelope header: %w", err)
	}
	if string(hdr[:len(envelopeMagic)]) != envelopeMagic {
		return nil, fmt.Errorf("shbf: bad envelope magic %q", hdr[:len(envelopeMagic)])
	}
	if v := hdr[len(envelopeMagic)]; v != envelopeVersion {
		return nil, fmt.Errorf("shbf: unsupported envelope version %d", v)
	}
	kind := Kind(hdr[len(envelopeMagic)+1])
	if _, err := emptyFor(kind); err != nil {
		return nil, err
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("shbf: reading envelope length: %w", err)
	}
	if n > maxEnvelopePayload {
		return nil, fmt.Errorf("shbf: implausible envelope payload length %d", n)
	}
	payload, err := readPayload(br, n)
	if err != nil {
		return nil, fmt.Errorf("shbf: envelope payload truncated: %w", err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("shbf: trailing bytes after envelope")
	}
	return decodePayload(kind, payload)
}

// payloadStep is the first size of Load's payload buffer.
const payloadStep = 64 << 10

// readPayload reads exactly n bytes from r. Its buffer doubles from
// payloadStep up to n as bytes arrive, so a stream that declares more
// than it holds costs about what it sent, not what it declared.
func readPayload(r io.Reader, n uint64) ([]byte, error) {
	lr := io.LimitReader(r, int64(n))
	buf := make([]byte, 0, min(n, payloadStep))
	for uint64(len(buf)) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, int(min(uint64(len(buf)), n-uint64(len(buf)))))
		}
		m, err := lr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if uint64(len(buf)) < n {
		return nil, io.ErrUnexpectedEOF
	}
	return buf, nil
}
