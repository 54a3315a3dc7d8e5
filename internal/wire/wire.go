// Package wire defines ShBP, the shbfd daemon's length-prefixed
// binary batch protocol — the serving-cost answer to JSON decode
// dominating small batches (pprof shows request decode above the
// ~30ns/key library probes). One decoded frame feeds a batch library
// path (AddAll/ContainsAll/CountAll/QueryAll) directly: keys decode to
// subslices of the frame buffer, no per-key allocation, no base64.
//
// # Framing
//
// Every message — request and response — is one frame: a 4-byte
// little-endian byte count followed by that many payload bytes. Frames
// are self-contained, so a connection is a simple pipeline: the client
// writes request frames, the server answers each in order.
//
// Request payload layout (all multi-byte integers little-endian;
// "uvarint" is encoding/binary's unsigned varint):
//
//	offset  size  field
//	0       4     magic "ShBP"
//	4       1     version (1)
//	5       1     op code (Op* constants)
//	6       1     arg (association set 1|2 for the association update
//	              ops; 0 elsewhere)
//	7       1     namespace length NL (0 = default namespace)
//	8       NL    namespace (UTF-8; the logical filter trio addressed)
//	8+NL    2     key width W (0 = variable-width keys)
//	10+NL   4     key count N
//	...           keys: N×W bytes packed back to back when W > 0
//	              (the fixed-width fast path: the paper's 13-byte
//	              5-tuple flow IDs pack with zero per-key overhead);
//	              otherwise N × (uvarint length + bytes)
//	...           op tail: OpMultiplicityAdd/OpMultiplicityRemove carry
//	              N uvarint per-key counts; OpNamespaceCreate,
//	              OpMembershipMerge and OpMultiplicityMerge carry a
//	              uvarint-length-prefixed blob (a JSON config and ShBE
//	              envelopes respectively)
//
// Response payload layout:
//
//	offset  size  field
//	0       1     status (Status* constants)
//	1       1     op code echo
//	...           status ≠ StatusOK: uvarint length + error message,
//	              then a uvarint applied-update count (the mid-batch
//	              split point on capacity conflicts; 0 elsewhere)
//	              status = StatusOK: op-specific body (see Response)
//
// Trailing bytes after a decoded message are an error; a frame is one
// message exactly.
//
// # The HTTP API
//
// The same ops travel over the daemon's HTTP/JSON API, and the facts
// both of its ends share live here too: the status table
// ([HTTPStatus], [StatusOfHTTP]), the route table ([Routes],
// [RouteOf]: each op's method, path, request body and answer), and the
// encoders of the data-plane success answers ([AppendTally] and its
// siblings, http.go).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Magic opens every request payload.
const Magic = "ShBP"

// Version is the protocol version this package speaks.
const Version = 1

// MaxFrame bounds a frame's declared payload size (requests and
// responses); larger batches must be split by the client. It matches
// the HTTP layer's request-body cap.
const MaxFrame = 32 << 20

// Op codes. The data-plane ops map 1:1 onto the library's batch paths;
// the control-plane ops (rotate, stats, namespace CRUD) mirror the
// /v2 HTTP endpoints so a binary-only client is fully capable.
const (
	OpPing               = 0x01 // liveness; empty body both ways
	OpStats              = 0x02 // namespace stats → JSON blob
	OpRotate             = 0x03 // retire the namespace's oldest window generation
	OpNamespaceCreate    = 0x04 // create a namespace from a JSON config blob
	OpNamespaceDelete    = 0x05 // delete a namespace
	OpNamespaceList      = 0x06 // list namespaces → JSON blob
	OpClusterMap         = 0x07 // fetch the node's cluster map → JSON blob
	OpMetrics            = 0x08 // render daemon metrics → Prometheus text blob
	OpMembershipAdd      = 0x10 // keys → membership AddAll
	OpMembershipContains = 0x11 // keys → membership ContainsAll (bitset reply)
	OpMembershipMerge    = 0x12 // ShBE envelope blob → union into the live filter
	OpMembershipDump     = 0x13 // export the membership filter → ShBE envelope blob
	OpFreeze             = 0x14 // freeze the namespace → ShBZ frozen container blob
	OpAssociationAdd     = 0x20 // keys + set arg → InsertS1/InsertS2
	OpAssociationRemove  = 0x21 // keys + set arg → DeleteS1/DeleteS2
	OpAssociationQuery   = 0x22 // keys → QueryAll (region byte reply)
	OpMultiplicityAdd    = 0x30 // keys + counts → Insert ×count
	OpMultiplicityRemove = 0x31 // keys + counts → Delete ×count
	OpMultiplicityCount  = 0x32 // keys → CountAll (uvarint reply)
	OpMultiplicityMerge  = 0x33 // ShBE envelope blob → counting merge into the live filter
	OpMultiplicityDump   = 0x34 // export the multiplicity filter → ShBE envelope blob
)

// opNames maps op codes to the names used in errors and logs.
var opNames = map[byte]string{
	OpPing:               "ping",
	OpStats:              "stats",
	OpRotate:             "rotate",
	OpNamespaceCreate:    "namespace-create",
	OpNamespaceDelete:    "namespace-delete",
	OpNamespaceList:      "namespace-list",
	OpClusterMap:         "cluster-map",
	OpMetrics:            "metrics",
	OpMembershipAdd:      "membership-add",
	OpMembershipContains: "membership-contains",
	OpMembershipMerge:    "membership-merge",
	OpMembershipDump:     "membership-dump",
	OpFreeze:             "freeze",
	OpAssociationAdd:     "association-add",
	OpAssociationRemove:  "association-remove",
	OpAssociationQuery:   "association-query",
	OpMultiplicityAdd:    "multiplicity-add",
	OpMultiplicityRemove: "multiplicity-remove",
	OpMultiplicityCount:  "multiplicity-count",
	OpMultiplicityMerge:  "multiplicity-merge",
	OpMultiplicityDump:   "multiplicity-dump",
}

// OversizeMsg is the error message for an answer to op that exceeds
// MaxFrame (the envelope of a tenant larger than the frame limit).
// Both transports report it identically, with StatusConflict.
func OversizeMsg(op byte) string {
	return fmt.Sprintf("%s answer exceeds the %d-byte frame limit", OpName(op), MaxFrame)
}

// OpName returns the op code's wire name ("op-0x%02x" for unknown
// codes).
func OpName(op byte) string {
	if n, ok := opNames[op]; ok {
		return n
	}
	return fmt.Sprintf("op-0x%02x", op)
}

// ValidOp reports whether op is a defined op code.
func ValidOp(op byte) bool { _, ok := opNames[op]; return ok }

// Response status codes; HTTPStatus gives each one's HTTP status.
const (
	StatusOK         = 0
	StatusBadRequest = 1 // malformed frame or arguments
	StatusNotFound   = 2 // unknown namespace
	StatusConflict   = 3 // capacity conditions, not-windowed rotate, duplicate namespace
	StatusInternal   = 4
	// StatusOverloaded is admission control shedding the request —
	// per-tenant rate quota, the daemon memory ceiling, or the ShBP
	// in-flight frame cap (HTTP 429). The request was NOT applied; it
	// is safe to retry after a backoff.
	StatusOverloaded = 5
)

// statusNames maps status codes to names for errors and logs.
var statusNames = map[byte]string{
	StatusOK:         "ok",
	StatusBadRequest: "bad-request",
	StatusNotFound:   "not-found",
	StatusConflict:   "conflict",
	StatusInternal:   "internal",
	StatusOverloaded: "overloaded",
}

// StatusName returns the status code's name.
func StatusName(st byte) string {
	if n, ok := statusNames[st]; ok {
		return n
	}
	return fmt.Sprintf("status-%d", st)
}

// httpStatuses is the one wire↔HTTP status table: the HTTP status the
// daemon's HTTP API answers for each wire status. The daemon writes
// its answers through it and the HTTP client reads them back through
// it, so the two transports report the same status for one failure.
var httpStatuses = [...]int{
	StatusOK:         200,
	StatusBadRequest: 400,
	StatusNotFound:   404,
	StatusConflict:   409,
	StatusInternal:   500,
	StatusOverloaded: 429, // Too Many Requests
}

// HTTPStatus returns the HTTP status answered for wire status st
// (500 for codes outside the table).
func HTTPStatus(st byte) int {
	if int(st) < len(httpStatuses) {
		return httpStatuses[st]
	}
	return 500
}

// StatusOfHTTP folds an HTTP status onto the wire statuses: every
// status below 400 is StatusOK, and a failure status the table does
// not name is StatusInternal.
func StatusOfHTTP(code int) byte {
	if code < 400 {
		return StatusOK
	}
	for st, c := range httpStatuses {
		if c == code {
			return byte(st)
		}
	}
	return StatusInternal
}

// Limits enforced by decoding, so a corrupt or hostile frame cannot
// drive a huge allocation or a quadratic walk.
const (
	// MaxNamespaceLen bounds namespace names (the header field is one
	// byte, but the daemon enforces a tighter charset separately).
	MaxNamespaceLen = 255
	// MaxKeyWidth bounds the fixed key width (the header field is a
	// uint16).
	MaxKeyWidth = 1<<16 - 1
)

// requestHeaderBytes is the fixed part of a request payload before the
// namespace: magic + version + op + arg + nsLen.
const requestHeaderBytes = len(Magic) + 4

var (
	// ErrTruncated reports a frame shorter than its own structure
	// claims.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrTrailing reports bytes after a complete message in one frame.
	ErrTrailing = errors.New("wire: trailing bytes after message")
)

// Request is one decoded ShBP request. Keys alias the frame buffer the
// request was decoded from — valid until the next ReadFrame on the
// same buffer; the filters' batch paths consume them before then (the
// key-storing kinds copy internally).
type Request struct {
	// Op is the operation code (Op* constants).
	Op byte
	// Set is the association set argument (1 or 2) for the association
	// update ops; 0 elsewhere.
	Set byte
	// Namespace addresses the logical filter trio ("" = default).
	Namespace string
	// KeyWidth is the fixed key width in bytes, 0 when keys are
	// variable-width. Encoding uses it as given when > 0 (all keys must
	// then have exactly that length).
	KeyWidth int
	// Keys is the batch.
	Keys [][]byte
	// Counts is the per-key multiplicity for OpMultiplicityAdd and
	// OpMultiplicityRemove; len(Counts) must equal len(Keys) (a nil
	// Counts encodes as all-ones).
	Counts []int
	// Blob is the op-specific trailing blob (OpNamespaceCreate's JSON
	// config, OpMembershipMerge's and OpMultiplicityMerge's ShBE
	// envelope).
	Blob []byte
}

// KeyWidth returns the shared key length when every key has it (the
// packed fixed-width encoding), else 0 (per-key length prefixes).
func KeyWidth(keys [][]byte) int {
	if len(keys) == 0 {
		return 0
	}
	w := len(keys[0])
	if w == 0 || w > MaxKeyWidth {
		return 0
	}
	for _, k := range keys[1:] {
		if len(k) != w {
			return 0
		}
	}
	return w
}

// AppendPackedKeys appends the ShBP key block — key width (u16, 0 =
// variable), key count (u32), then the packed keys — to dst. With
// width > 0 every key must be exactly width bytes and keys pack back
// to back with zero per-key overhead; with width 0 each key is
// uvarint-length-prefixed. The same block opens every request payload
// and the ShBU ingest datagram's add-batch body (internal/ingest).
func AppendPackedKeys(dst []byte, width int, keys [][]byte) ([]byte, error) {
	if width < 0 || width > MaxKeyWidth {
		return dst, fmt.Errorf("wire: key width %d out of [0, %d]", width, MaxKeyWidth)
	}
	at := len(dst)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(width))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	if width > 0 {
		for i, k := range keys {
			if len(k) != width {
				return dst[:at], fmt.Errorf("wire: key %d is %d bytes, frame width is %d", i, len(k), width)
			}
			dst = append(dst, k...)
		}
	} else {
		for _, k := range keys {
			dst = binary.AppendUvarint(dst, uint64(len(k)))
			dst = append(dst, k...)
		}
	}
	return dst, nil
}

// DecodePackedKeys parses one ShBP key block from the front of data,
// reusing keys' backing array. Decoded keys alias data; rest is the
// remainder after the block. The declared key count is bounded against
// the available bytes before any allocation, so a corrupt block cannot
// drive a huge allocation.
func DecodePackedKeys(keys [][]byte, data []byte) (out [][]byte, width int, rest []byte, err error) {
	if len(data) < 6 {
		return keys, 0, data, fmt.Errorf("%w: key header", ErrTruncated)
	}
	width = int(binary.LittleEndian.Uint16(data))
	count := binary.LittleEndian.Uint32(data[2:])
	rest = data[6:]
	// Every key costs at least one payload byte (a width byte or a
	// length uvarint), so this single check bounds the loops below
	// against absurd declared counts in small frames.
	if width > 0 {
		if need := uint64(count) * uint64(width); uint64(len(rest)) < need {
			return keys, 0, data, fmt.Errorf("%w: %d keys × %d bytes", ErrTruncated, count, width)
		}
	} else if uint64(count) > uint64(len(rest)) {
		return keys, 0, data, fmt.Errorf("%w: %d variable-width keys in %d bytes", ErrTruncated, count, len(rest))
	}
	keys = resize(keys, int(count))
	if width > 0 {
		for i := range keys {
			keys[i] = rest[i*width : (i+1)*width : (i+1)*width]
		}
		rest = rest[int(count)*width:]
	} else {
		for i := range keys {
			n, sz := binary.Uvarint(rest)
			if sz <= 0 || n > uint64(len(rest)-sz) {
				return keys, 0, data, fmt.Errorf("%w: variable-width key %d", ErrTruncated, i)
			}
			keys[i] = rest[sz : sz+int(n) : sz+int(n)]
			rest = rest[sz+int(n):]
		}
	}
	return keys, width, rest, nil
}

// AppendRequest appends req as one complete frame (length prefix
// included) to dst and returns the extended slice.
func AppendRequest(dst []byte, req *Request) ([]byte, error) {
	if !ValidOp(req.Op) {
		return dst, fmt.Errorf("wire: unknown op %d", req.Op)
	}
	if len(req.Namespace) > MaxNamespaceLen {
		return dst, fmt.Errorf("wire: namespace %q longer than %d bytes", req.Namespace, MaxNamespaceLen)
	}
	if req.KeyWidth < 0 || req.KeyWidth > MaxKeyWidth {
		return dst, fmt.Errorf("wire: key width %d out of [0, %d]", req.KeyWidth, MaxKeyWidth)
	}
	if len(req.Counts) != 0 && len(req.Counts) != len(req.Keys) {
		return dst, fmt.Errorf("wire: %d counts for %d keys", len(req.Counts), len(req.Keys))
	}
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0) // frame length backpatched below
	dst = append(dst, Magic...)
	dst = append(dst, Version, req.Op, req.Set, byte(len(req.Namespace)))
	dst = append(dst, req.Namespace...)
	dst, err := AppendPackedKeys(dst, req.KeyWidth, req.Keys)
	if err != nil {
		return dst[:lenAt], err
	}
	switch req.Op {
	case OpMultiplicityAdd, OpMultiplicityRemove:
		for i := range req.Keys {
			c := 1
			if len(req.Counts) != 0 {
				c = req.Counts[i]
			}
			if c < 0 {
				return dst[:lenAt], fmt.Errorf("wire: negative count %d for key %d", c, i)
			}
			dst = binary.AppendUvarint(dst, uint64(c))
		}
	case OpNamespaceCreate, OpMembershipMerge, OpMultiplicityMerge:
		dst = binary.AppendUvarint(dst, uint64(len(req.Blob)))
		dst = append(dst, req.Blob...)
	}
	n := len(dst) - lenAt - 4
	if n > MaxFrame {
		return dst[:lenAt], fmt.Errorf("wire: frame of %d bytes exceeds the %d-byte limit", n, MaxFrame)
	}
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(n))
	return dst, nil
}

// DecodeRequest parses one request payload (the bytes after the frame
// length prefix) into req, reusing req's Keys and Counts backing
// arrays. Decoded keys alias frame.
func DecodeRequest(req *Request, frame []byte) error {
	if len(frame) < requestHeaderBytes {
		return fmt.Errorf("%w: %d-byte request header", ErrTruncated, len(frame))
	}
	if string(frame[:len(Magic)]) != Magic {
		return fmt.Errorf("wire: bad magic %q", frame[:len(Magic)])
	}
	if v := frame[len(Magic)]; v != Version {
		return fmt.Errorf("wire: unsupported version %d", v)
	}
	req.Op = frame[len(Magic)+1]
	if !ValidOp(req.Op) {
		return fmt.Errorf("wire: unknown op %d", req.Op)
	}
	req.Set = frame[len(Magic)+2]
	nsLen := int(frame[len(Magic)+3])
	rest := frame[requestHeaderBytes:]
	if len(rest) < nsLen+6 {
		return fmt.Errorf("%w: namespace and key header", ErrTruncated)
	}
	// A connection usually keeps addressing one tenant: keep the
	// string it already holds rather than allocate an equal one (the
	// comparison does not allocate).
	if ns := rest[:nsLen]; req.Namespace != string(ns) {
		req.Namespace = string(ns)
	}
	var err error
	req.Keys, req.KeyWidth, rest, err = DecodePackedKeys(req.Keys, rest[nsLen:])
	if err != nil {
		return err
	}
	req.Counts = req.Counts[:0]
	req.Blob = nil
	switch req.Op {
	case OpMultiplicityAdd, OpMultiplicityRemove:
		req.Counts = resize(req.Counts, len(req.Keys))
		for i := range req.Counts {
			n, sz := binary.Uvarint(rest)
			if sz <= 0 {
				return fmt.Errorf("%w: count %d", ErrTruncated, i)
			}
			if n > MaxFrame {
				return fmt.Errorf("wire: implausible count %d for key %d", n, i)
			}
			req.Counts[i] = int(n)
			rest = rest[sz:]
		}
	case OpNamespaceCreate, OpMembershipMerge, OpMultiplicityMerge:
		n, sz := binary.Uvarint(rest)
		if sz <= 0 || n > uint64(len(rest)-sz) {
			return fmt.Errorf("%w: trailing blob", ErrTruncated)
		}
		req.Blob = rest[sz : sz+int(n)]
		rest = rest[sz+int(n):]
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w (%d bytes)", ErrTrailing, len(rest))
	}
	return nil
}

// Response is one decoded ShBP response. Exactly one of the body
// fields applies, selected by Op (see the layout comment on the
// package); Msg applies when Status ≠ StatusOK.
type Response struct {
	// Status is the outcome (Status* constants).
	Status byte
	// Op echoes the request op the response answers.
	Op byte
	// Msg is the error message when Status ≠ StatusOK.
	Msg string
	// Applied is the number of applied updates for the add/remove ops
	// (on a mid-batch capacity conflict, the split point — earlier
	// updates stay applied, as in the HTTP API).
	Applied uint64
	// Bools is the per-key membership answer for OpMembershipContains.
	Bools []bool
	// Counts is the per-key multiplicity for OpMultiplicityCount.
	Counts []int
	// Regions is the per-key candidate-region bitmask for
	// OpAssociationQuery (core.Region values).
	Regions []byte
	// Epoch is the post-rotation epoch for OpRotate.
	Epoch uint64
	// Rotated lists the filters rotated, for OpRotate.
	Rotated []string
	// Blob is the body of OpStats, OpNamespaceList and OpClusterMap
	// (JSON), OpMetrics (Prometheus text) and OpMembershipDump (a raw
	// ShBE envelope).
	Blob []byte
}

// AppendResponse appends resp as one complete frame (length prefix
// included) to dst.
func AppendResponse(dst []byte, resp *Response) ([]byte, error) {
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = append(dst, resp.Status, resp.Op)
	if resp.Status != StatusOK {
		dst = binary.AppendUvarint(dst, uint64(len(resp.Msg)))
		dst = append(dst, resp.Msg...)
		dst = binary.AppendUvarint(dst, resp.Applied)
	} else {
		switch resp.Op {
		case OpPing, OpNamespaceCreate, OpNamespaceDelete:
			// Empty body.
		case OpMembershipAdd, OpMembershipMerge, OpAssociationAdd, OpAssociationRemove,
			OpMultiplicityAdd, OpMultiplicityRemove, OpMultiplicityMerge:
			dst = binary.AppendUvarint(dst, resp.Applied)
		case OpMembershipContains:
			dst = binary.AppendUvarint(dst, uint64(len(resp.Bools)))
			dst = appendBitset(dst, resp.Bools)
		case OpMultiplicityCount:
			dst = binary.AppendUvarint(dst, uint64(len(resp.Counts)))
			for _, c := range resp.Counts {
				dst = binary.AppendUvarint(dst, uint64(c))
			}
		case OpAssociationQuery:
			dst = binary.AppendUvarint(dst, uint64(len(resp.Regions)))
			dst = append(dst, resp.Regions...)
		case OpRotate:
			dst = binary.AppendUvarint(dst, resp.Epoch)
			dst = binary.AppendUvarint(dst, uint64(len(resp.Rotated)))
			for _, name := range resp.Rotated {
				dst = binary.AppendUvarint(dst, uint64(len(name)))
				dst = append(dst, name...)
			}
		case OpStats, OpNamespaceList, OpClusterMap, OpMetrics, OpMembershipDump,
			OpMultiplicityDump, OpFreeze:
			if len(resp.Blob) > MaxFrame {
				// Refuse before copying an answer no frame can carry.
				return dst[:lenAt], fmt.Errorf("wire: %d-byte blob exceeds the %d-byte frame limit", len(resp.Blob), MaxFrame)
			}
			dst = binary.AppendUvarint(dst, uint64(len(resp.Blob)))
			dst = append(dst, resp.Blob...)
		default:
			return dst[:lenAt], fmt.Errorf("wire: unknown op %d", resp.Op)
		}
	}
	n := len(dst) - lenAt - 4
	if n > MaxFrame {
		return dst[:lenAt], fmt.Errorf("wire: frame of %d bytes exceeds the %d-byte limit", n, MaxFrame)
	}
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(n))
	return dst, nil
}

// DecodeResponse parses one response payload into resp, reusing its
// slice capacity. Blob aliases frame.
func DecodeResponse(resp *Response, frame []byte) error {
	if len(frame) < 2 {
		return fmt.Errorf("%w: %d-byte response header", ErrTruncated, len(frame))
	}
	resp.Status = frame[0]
	resp.Op = frame[1]
	resp.Msg = ""
	resp.Applied = 0
	resp.Bools = resp.Bools[:0]
	resp.Counts = resp.Counts[:0]
	resp.Regions = resp.Regions[:0]
	resp.Epoch = 0
	resp.Rotated = resp.Rotated[:0]
	resp.Blob = nil
	rest := frame[2:]
	if resp.Status != StatusOK {
		n, sz := binary.Uvarint(rest)
		if sz <= 0 || n > uint64(len(rest)-sz) {
			return fmt.Errorf("%w: error message", ErrTruncated)
		}
		resp.Msg = string(rest[sz : sz+int(n)])
		rest = rest[sz+int(n):]
		applied, asz := binary.Uvarint(rest)
		if asz <= 0 {
			return fmt.Errorf("%w: applied count", ErrTruncated)
		}
		resp.Applied = applied
		rest = rest[asz:]
		if len(rest) != 0 {
			return fmt.Errorf("%w (%d bytes)", ErrTrailing, len(rest))
		}
		return nil
	}
	switch resp.Op {
	case OpPing, OpNamespaceCreate, OpNamespaceDelete:
		// Empty body.
	case OpMembershipAdd, OpMembershipMerge, OpAssociationAdd, OpAssociationRemove,
		OpMultiplicityAdd, OpMultiplicityRemove, OpMultiplicityMerge:
		n, sz := binary.Uvarint(rest)
		if sz <= 0 {
			return fmt.Errorf("%w: applied count", ErrTruncated)
		}
		resp.Applied = n
		rest = rest[sz:]
	case OpMembershipContains:
		n, sz := binary.Uvarint(rest)
		if sz <= 0 || n > uint64(len(rest)-sz)*8 {
			return fmt.Errorf("%w: membership bitset", ErrTruncated)
		}
		rest = rest[sz:]
		resp.Bools = resize(resp.Bools, int(n))
		for i := range resp.Bools {
			resp.Bools[i] = rest[i/8]&(1<<(i%8)) != 0
		}
		rest = rest[(int(n)+7)/8:]
	case OpMultiplicityCount:
		n, sz := binary.Uvarint(rest)
		if sz <= 0 || n > uint64(len(rest)-sz) {
			return fmt.Errorf("%w: count vector", ErrTruncated)
		}
		rest = rest[sz:]
		resp.Counts = resize(resp.Counts, int(n))
		for i := range resp.Counts {
			v, csz := binary.Uvarint(rest)
			if csz <= 0 {
				return fmt.Errorf("%w: count %d", ErrTruncated, i)
			}
			if v > MaxFrame {
				return fmt.Errorf("wire: implausible count %d", v)
			}
			resp.Counts[i] = int(v)
			rest = rest[csz:]
		}
	case OpAssociationQuery:
		n, sz := binary.Uvarint(rest)
		if sz <= 0 || n > uint64(len(rest)-sz) {
			return fmt.Errorf("%w: region vector", ErrTruncated)
		}
		rest = rest[sz:]
		resp.Regions = append(resp.Regions, rest[:n]...)
		rest = rest[n:]
	case OpRotate:
		e, sz := binary.Uvarint(rest)
		if sz <= 0 {
			return fmt.Errorf("%w: epoch", ErrTruncated)
		}
		resp.Epoch = e
		rest = rest[sz:]
		n, sz := binary.Uvarint(rest)
		if sz <= 0 || n > uint64(len(rest)-sz) {
			return fmt.Errorf("%w: rotated list", ErrTruncated)
		}
		rest = rest[sz:]
		resp.Rotated = resize(resp.Rotated, int(n))
		for i := range resp.Rotated {
			l, lsz := binary.Uvarint(rest)
			if lsz <= 0 || l > uint64(len(rest)-lsz) {
				return fmt.Errorf("%w: rotated name %d", ErrTruncated, i)
			}
			resp.Rotated[i] = string(rest[lsz : lsz+int(l)])
			rest = rest[lsz+int(l):]
		}
	case OpStats, OpNamespaceList, OpClusterMap, OpMetrics, OpMembershipDump,
		OpMultiplicityDump, OpFreeze:
		n, sz := binary.Uvarint(rest)
		if sz <= 0 || n > uint64(len(rest)-sz) {
			return fmt.Errorf("%w: blob body", ErrTruncated)
		}
		resp.Blob = rest[sz : sz+int(n)]
		rest = rest[sz+int(n):]
	default:
		return fmt.Errorf("wire: unknown op %d in response", resp.Op)
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w (%d bytes)", ErrTrailing, len(rest))
	}
	return nil
}

// appendBitset packs bools LSB-first into bytes.
func appendBitset(dst []byte, bs []bool) []byte {
	at := len(dst)
	dst = append(dst, make([]byte, (len(bs)+7)/8)...)
	for i, b := range bs {
		if b {
			dst[at+i/8] |= 1 << (i % 8)
		}
	}
	return dst
}

// resize returns s with length n, reusing its backing array when it
// fits (contents are overwritten by the caller).
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ReadFrame reads one length-prefixed frame from r into buf (grown as
// needed) and returns the payload. A clean EOF before the length
// prefix returns io.EOF; anything else that truncates the frame is an
// error. The length prefix is read into buf too: a local array handed
// to r would escape, one allocation per frame.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	buf = resize(buf, 4)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: frame length", ErrTruncated)
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(buf)
	if n == 0 {
		return nil, errors.New("wire: empty frame")
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds the %d-byte limit", n, MaxFrame)
	}
	buf = resize(buf, int(n))
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("%w: frame payload (%v)", ErrTruncated, err)
	}
	return buf, nil
}
