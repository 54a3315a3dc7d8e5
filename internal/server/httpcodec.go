package server

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"unicode/utf8"

	"shbf/internal/wire"
)

// The HTTP codec. serveOp makes every route that has a wire op a
// codec over dispatch: it decodes the request into a wire.Request and
// writes the wire.Response back in the route's JSON or raw bytes.
//
// The data-plane body codec (DESIGN.md "HTTP body codec"): the
// membership, association and multiplicity routes, v1 and v2, decode
// their bodies with a hand-written parser for a strict canonical
// subset of what the encoding/json path accepts:
//
//   - one object with nothing but JSON whitespace around it;
//   - field names spelled exactly as the struct tags below, each at
//     most once;
//   - strings without escapes or control characters and of valid
//     UTF-8, whose bytes are therefore exactly the decoded string;
//   - integers with no fraction, exponent or leading zero, of at
//     most 18 digits;
//   - no null.
//
// Any other body is decoded by encoding/json over the same bytes into
// the structs below, so every error text and every leniency of that
// decoder (case-insensitive names, repeated fields, escapes, what
// Decoder.More ignores after the object) stays what it always was.
// Raw keys point into the body and base64 keys decode into one arena;
// both live in a pooled httpBody until the handler returns. That is
// safe for the reason ShBP keys may point into their frame: no filter
// keeps a key slice (the key-storing kinds copy keys into their
// tables). Success answers are appended into one buffer by the answer
// encoders the client's decoder is held to (wire.AppendTally and its
// siblings) and written with one Write; error answers keep writeJSON.

// keyBatch is the common request shape: a batch of element keys, read
// as raw bytes ("encoding": "raw", the default) or base64
// ("encoding": "base64") for binary IDs like the paper's 13-byte
// 5-tuple flow IDs.
type keyBatch struct {
	Keys     []string `json:"keys"`
	Encoding string   `json:"encoding,omitempty"`
}

// countedItem is one multiplicity update: count defaults to 1.
type countedItem struct {
	Key   string `json:"key"`
	Count int    `json:"count,omitempty"`
}

type countedBatch struct {
	Items    []countedItem `json:"items"`
	Encoding string        `json:"encoding,omitempty"`
}

// setBatch targets one of the two association sets.
type setBatch struct {
	Set      int      `json:"set"`
	Keys     []string `json:"keys"`
	Encoding string   `json:"encoding,omitempty"`
}

// httpBody is one HTTP request's decode, dispatch and encode state,
// pooled across requests.
type httpBody struct {
	in         []byte   // the request body
	wire       [][]byte // the keys as sent: raw or base64 text
	itemCounts []int    // wire.BodyItems: each item's count as sent
	encoding   []byte
	set        int

	arena []byte   // decoded base64 keys
	keys  [][]byte // element keys: into in (raw) or arena (base64)

	req  wire.Request
	resp wire.Response
	dispatchScratch
}

var httpBodies = sync.Pool{New: func() any { return new(httpBody) }}

// maxPooledBody bounds the buffers a pooled httpBody keeps, so a rare
// huge batch is left to the GC instead of pinning its buffers.
const maxPooledBody = 1 << 20

func getHTTPBody() *httpBody { return httpBodies.Get().(*httpBody) }

// release returns b to the pool; nothing read from b may be used
// afterwards.
func (b *httpBody) release() {
	if cap(b.in) > maxPooledBody || cap(b.arena) > maxPooledBody || cap(b.out) > maxPooledBody {
		return
	}
	clear(b.wire) // drop references to keys the fallback allocated
	clear(b.keys)
	// Drop the answer's blob, which a pooled body must not keep alive.
	b.req, b.resp = wire.Request{}, wire.Response{Regions: b.resp.Regions}
	httpBodies.Put(b)
}

// serveOp is the HTTP codec of one wire op. It fills a wire.Request
// from the route's namespace ("" on the v1 routes: the default
// namespace) and its body, runs it through dispatch, and writes the
// wire.Response back as the route's answer.
func (s *Server) serveOp(op byte, shape wire.BodyShape) http.HandlerFunc {
	return s.instrumentHTTP(wire.OpName(op), func(w http.ResponseWriter, r *http.Request) {
		b := getHTTPBody()
		defer b.release()
		b.req = wire.Request{Op: op, Namespace: r.PathValue("ns")}
		if err := b.read(w, r, shape); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		b.answer(w, s.dispatch(&b.req, &b.resp, &b.dispatchScratch))
	})
}

// read reads the request body as shape into b.req: a data-plane body's
// keys, set and counts, or the raw bytes as its Blob. A data-plane body
// that does not decode is refused checking the JSON, then each key in
// turn (for items, its key before its count); the set is the core's to
// check, except one the request's byte cannot carry.
func (b *httpBody) read(w http.ResponseWriter, r *http.Request, shape wire.BodyShape) error {
	if shape == wire.BodyNone {
		return nil
	}
	var err error
	b.in, err = appendBody(b.in[:0], http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if shape == wire.BodyJSON || shape == wire.BodyRaw {
		b.req.Blob = b.in
		if err != nil {
			return fmt.Errorf("reading request: %w", err)
		}
		return nil
	}
	if err != nil || !b.parse(shape) {
		err = b.decodeJSON(shape, err)
	}
	if err == nil && b.set != int(byte(b.set)) {
		err = checkSet(b.set)
	}
	if err == nil {
		err = b.decodeKeys(shape == wire.BodyItems)
	}
	b.req.Keys, b.req.Set, b.req.Counts = b.keys, byte(b.set), b.itemCounts
	return err
}

// appendBody appends everything r yields to dst and returns the error
// that ended it, nil at EOF. The buffer grows only as bytes arrive, never
// to a declared Content-Length, so a client cannot make the daemon hold
// memory it never sends.
func appendBody(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, 512)
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// decodeJSON decodes b.in with encoding/json into shape's struct, the
// path of every body outside the canonical subset. rerr, the error
// that ended the body read, is replayed after the bytes, so the
// decoder sees the stream it would have read from the request.
func (b *httpBody) decodeJSON(shape wire.BodyShape, rerr error) error {
	var src io.Reader = bytes.NewReader(b.in)
	if rerr != nil {
		src = io.MultiReader(src, errReader{rerr})
	}
	b.wire, b.itemCounts, b.set = b.wire[:0], b.itemCounts[:0], 0
	var (
		keys []string
		enc  string
	)
	switch shape {
	case wire.BodyKeys:
		var req keyBatch
		if err := decodeStrict(src, &req); err != nil {
			return err
		}
		keys, enc = req.Keys, req.Encoding
	case wire.BodySet:
		var req setBatch
		if err := decodeStrict(src, &req); err != nil {
			return err
		}
		keys, enc, b.set = req.Keys, req.Encoding, req.Set
	case wire.BodyItems:
		var req countedBatch
		if err := decodeStrict(src, &req); err != nil {
			return err
		}
		enc = req.Encoding
		for _, it := range req.Items {
			b.wire = append(b.wire, []byte(it.Key))
			b.itemCounts = append(b.itemCounts, it.Count)
		}
	}
	for _, k := range keys {
		b.wire = append(b.wire, []byte(k))
	}
	b.encoding = []byte(enc)
	return nil
}

// errReader fails every Read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// decodeKeys maps b.wire to the element keys in b.keys: raw keys are
// the wire bytes, base64 keys decode into b.arena. With items it also
// refuses a negative count, so a counting write is validated whole
// before any of it applies.
func (b *httpBody) decodeKeys(items bool) error {
	what := "key"
	if items {
		what = "item"
	}
	b.keys = b.keys[:0]
	var arena []byte
	b64 := false
	switch string(b.encoding) {
	case "", "raw":
	case "base64":
		n := 0
		for _, k := range b.wire {
			n += base64.StdEncoding.DecodedLen(len(k))
		}
		if cap(b.arena) < n {
			b.arena = make([]byte, n)
		}
		arena, b64 = b.arena[:n], true
	default:
		if len(b.wire) > 0 {
			return fmt.Errorf("%s 0: unknown encoding %q (want raw or base64)", what, b.encoding)
		}
	}
	for i, k := range b.wire {
		if b64 {
			n, err := base64.StdEncoding.Decode(arena, k)
			if err != nil {
				return fmt.Errorf("%s %d: %w", what, i, err)
			}
			k, arena = arena[:n:n], arena[n:]
		}
		if items {
			switch c := b.itemCounts[i]; {
			case c < 0:
				return fmt.Errorf("item %d: negative count %d", i, c)
			case c == 0: // an absent count is 1; on the wire, 0 applies nothing
				b.itemCounts[i] = 1
			}
		}
		b.keys = append(b.keys, k)
	}
	return nil
}

// --- canonical-subset parser ----------------------------------------------

// parse decodes b.in as shape, reporting false for any body outside
// the canonical subset.
func (b *httpBody) parse(shape wire.BodyShape) bool {
	b.wire, b.itemCounts, b.encoding, b.set = b.wire[:0], b.itemCounts[:0], nil, 0
	s := scanner{b: b.in}
	var seenKeys, seenEncoding, seenSet bool
	ok := s.object(func(name []byte) (ok bool) {
		switch {
		case string(name) == "encoding" && !seenEncoding:
			seenEncoding = true
			b.encoding, ok = s.str()
		case string(name) == "set" && shape == wire.BodySet && !seenSet:
			seenSet = true
			b.set, ok = s.int()
		case string(name) == "keys" && shape != wire.BodyItems && !seenKeys:
			seenKeys = true
			ok = s.array(func() (ok bool) {
				var k []byte
				k, ok = s.str()
				b.wire = append(b.wire, k)
				return ok
			})
		case string(name) == "items" && shape == wire.BodyItems && !seenKeys:
			seenKeys = true
			ok = s.array(func() bool { return b.parseItem(&s) })
		}
		return ok
	})
	s.ws()
	return ok && s.i == len(s.b)
}

// parseItem parses one multiplicity item onto b.wire and b.itemCounts.
func (b *httpBody) parseItem(s *scanner) bool {
	key, count := s.b[:0:0], 0
	var seenKey, seenCount bool
	ok := s.object(func(name []byte) (ok bool) {
		switch {
		case string(name) == "key" && !seenKey:
			seenKey = true
			key, ok = s.str()
		case string(name) == "count" && !seenCount:
			seenCount = true
			count, ok = s.int()
		}
		return ok
	})
	b.wire = append(b.wire, key)
	b.itemCounts = append(b.itemCounts, count)
	return ok
}

// scanner walks a body in the canonical subset; a method reporting
// false has met something outside it.
type scanner struct {
	b []byte
	i int
}

// object consumes an object, calling field after each name and its
// colon; field consumes the value.
func (s *scanner) object(field func(name []byte) bool) bool {
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return true
	}
	for {
		name, ok := s.str()
		if !ok || !s.next(':') || !field(name) {
			return false
		}
		if !s.next(',') {
			return s.next('}')
		}
	}
}

// array consumes an array, calling elem to consume each element.
func (s *scanner) array(elem func() bool) bool {
	if !s.next('[') {
		return false
	}
	if s.next(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !s.next(',') {
			return s.next(']')
		}
	}
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c if it comes next.
func (s *scanner) next(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str consumes a string and returns its bytes, which point into the
// body.
func (s *scanner) str() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	start, ascii := s.i, true
	for i := start; ; i++ {
		for i < len(s.b) && plainByte[s.b[i]] {
			i++
		}
		switch {
		case i == len(s.b):
			return nil, false
		case s.b[i] == '"':
			s.i = i + 1
			v := s.b[start:i:i]
			return v, ascii || utf8.Valid(v)
		case s.b[i] < utf8.RuneSelf: // an escape or a control byte
			return nil, false
		}
		ascii = false
	}
}

// plainByte marks the ASCII bytes a subset string holds as themselves:
// everything but the quote, the backslash and control bytes.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// int consumes an integer. A fraction or exponent after the digits
// leaves a byte the caller's structural check refuses.
func (s *scanner) int() (int, bool) {
	s.ws()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start, n := s.i, 0
	for ; s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9'; s.i++ {
		n = n*10 + int(s.b[s.i]-'0')
	}
	digits := s.i - start
	if digits == 0 || digits > 18 || (digits > 1 && s.b[start] == '0') {
		return 0, false
	}
	if neg {
		n = -n
	}
	return n, true
}

// --- answers --------------------------------------------------------------

// answer writes b.resp as the route's answer: for a failure err (the
// error dispatch returned) the error, with "applied" when a batch
// failed midway; for a success the op's body, in the bytes the route
// has always answered with. The data-plane bodies are appended into
// b.out and written with one Write.
func (b *httpBody) answer(w http.ResponseWriter, err error) {
	resp := &b.resp
	if err != nil {
		body := map[string]any{"error": resp.Msg}
		if errors.Is(err, errMidBatch) {
			body["applied"] = resp.Applied
		}
		writeJSON(w, wire.HTTPStatus(resp.Status), body)
		return
	}
	b.out = b.out[:0]
	switch b.req.Op {
	case wire.OpMembershipAdd:
		b.out = wire.AppendTally(b.out, "added", int(resp.Applied))
	case wire.OpAssociationAdd, wire.OpAssociationRemove, wire.OpMultiplicityAdd, wire.OpMultiplicityRemove:
		b.out = wire.AppendTally(b.out, "applied", int(resp.Applied))
	case wire.OpMembershipContains:
		b.out = wire.AppendBools(b.out, resp.Bools)
	case wire.OpAssociationQuery:
		// Only the v2 routes carry the raw mask; the v1 shape is frozen.
		b.out = wire.AppendRegions(b.out, b.regions, b.req.Namespace != "")
	case wire.OpMultiplicityCount:
		b.out = wire.AppendCounts(b.out, resp.Counts)
	case wire.OpStats, wire.OpNamespaceList:
		b.out = append(append(b.out, resp.Blob...), '\n') // as json.Encoder ends it
	case wire.OpClusterMap:
		b.out = append(b.out, resp.Blob...)
	case wire.OpMembershipDump, wire.OpMultiplicityDump, wire.OpFreeze:
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(resp.Blob)
		return
	case wire.OpRotate:
		writeJSON(w, http.StatusOK, map[string]any{"rotated": resp.Rotated, "epoch": resp.Epoch})
		return
	case wire.OpNamespaceCreate:
		writeJSON(w, http.StatusCreated, map[string]string{"created": b.req.Namespace})
		return
	case wire.OpNamespaceDelete:
		writeJSON(w, http.StatusOK, map[string]string{"deleted": b.req.Namespace})
		return
	case wire.OpMembershipMerge:
		writeJSON(w, http.StatusOK, map[string]any{"merged_n": resp.Applied, "membership_n": b.filterN})
		return
	case wire.OpMultiplicityMerge:
		writeJSON(w, http.StatusOK, map[string]any{"merged_n": resp.Applied, "multiplicity_n": b.filterN})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b.out)
}
