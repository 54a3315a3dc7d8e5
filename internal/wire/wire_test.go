package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
)

// roundTripRequest encodes req, strips the length prefix via ReadFrame,
// and decodes it back.
func roundTripRequest(t *testing.T, req *Request) Request {
	t.Helper()
	buf, err := AppendRequest(nil, req)
	if err != nil {
		t.Fatalf("AppendRequest: %v", err)
	}
	frame, err := ReadFrame(bytes.NewReader(buf), nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	var got Request
	if err := DecodeRequest(&got, frame); err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	return got
}

func TestRequestRoundTripFixedWidth(t *testing.T) {
	keys := [][]byte{
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13},
		{13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1},
	}
	got := roundTripRequest(t, &Request{
		Op: OpMembershipContains, Namespace: "tenant-a", KeyWidth: 13, Keys: keys,
	})
	if got.Op != OpMembershipContains || got.Namespace != "tenant-a" || got.KeyWidth != 13 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Keys) != 2 || !bytes.Equal(got.Keys[0], keys[0]) || !bytes.Equal(got.Keys[1], keys[1]) {
		t.Fatalf("keys mismatch: %v", got.Keys)
	}
}

func TestRequestRoundTripVariableWidth(t *testing.T) {
	keys := [][]byte{[]byte("a"), []byte(""), []byte("a longer key with spaces")}
	counts := []int{1, 0, 57}
	got := roundTripRequest(t, &Request{
		Op: OpMultiplicityAdd, Keys: keys, Counts: counts,
	})
	if got.Namespace != "" || got.KeyWidth != 0 {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range keys {
		if !bytes.Equal(got.Keys[i], keys[i]) {
			t.Fatalf("key %d: %q != %q", i, got.Keys[i], keys[i])
		}
		if got.Counts[i] != counts[i] {
			t.Fatalf("count %d: %d != %d", i, got.Counts[i], counts[i])
		}
	}
}

func TestRequestRoundTripAssociationSetAndBlob(t *testing.T) {
	got := roundTripRequest(t, &Request{
		Op: OpAssociationAdd, Set: 2, Namespace: "t", Keys: [][]byte{[]byte("k")},
	})
	if got.Set != 2 {
		t.Fatalf("set = %d, want 2", got.Set)
	}
	blob := []byte(`{"shards":4}`)
	got = roundTripRequest(t, &Request{Op: OpNamespaceCreate, Namespace: "t2", Blob: blob})
	if !bytes.Equal(got.Blob, blob) {
		t.Fatalf("blob = %q, want %q", got.Blob, blob)
	}
}

func TestRequestRoundTripClusterOps(t *testing.T) {
	// cluster-map is header-only.
	got := roundTripRequest(t, &Request{Op: OpClusterMap})
	if got.Op != OpClusterMap || got.Blob != nil || len(got.Keys) != 0 {
		t.Fatalf("cluster-map request: %+v", got)
	}
	// metrics is header-only, like ping: the scrape travels back in the
	// response blob.
	got = roundTripRequest(t, &Request{Op: OpMetrics})
	if got.Op != OpMetrics || got.Blob != nil || len(got.Keys) != 0 {
		t.Fatalf("metrics request: %+v", got)
	}
	// membership-dump carries only the namespace.
	got = roundTripRequest(t, &Request{Op: OpMembershipDump, Namespace: "t"})
	if got.Op != OpMembershipDump || got.Namespace != "t" || got.Blob != nil {
		t.Fatalf("membership-dump request: %+v", got)
	}
	// membership-merge carries an opaque envelope in the blob tail,
	// like namespace-create carries its config.
	envelope := []byte("ShBE\x01...fake envelope bytes\x00\xff")
	got = roundTripRequest(t, &Request{Op: OpMembershipMerge, Namespace: "t", Blob: envelope})
	if got.Op != OpMembershipMerge || got.Namespace != "t" {
		t.Fatalf("membership-merge header: %+v", got)
	}
	if !bytes.Equal(got.Blob, envelope) {
		t.Fatalf("membership-merge blob = %q, want %q", got.Blob, envelope)
	}
}

func TestRequestRoundTripMultiplicityMergeDump(t *testing.T) {
	// multiplicity-dump carries only the namespace, like membership-dump.
	got := roundTripRequest(t, &Request{Op: OpMultiplicityDump, Namespace: "t"})
	if got.Op != OpMultiplicityDump || got.Namespace != "t" || got.Blob != nil {
		t.Fatalf("multiplicity-dump request: %+v", got)
	}
	// multiplicity-merge carries an opaque envelope in the blob tail.
	envelope := []byte("ShBE\x01...fake multiplicity envelope\x00\xff")
	got = roundTripRequest(t, &Request{Op: OpMultiplicityMerge, Namespace: "t", Blob: envelope})
	if got.Op != OpMultiplicityMerge || got.Namespace != "t" {
		t.Fatalf("multiplicity-merge header: %+v", got)
	}
	if !bytes.Equal(got.Blob, envelope) {
		t.Fatalf("multiplicity-merge blob = %q, want %q", got.Blob, envelope)
	}
}

func TestPackedKeysRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name  string
		width int
		keys  [][]byte
	}{
		{"fixed", 3, [][]byte{[]byte("abc"), []byte("def")}},
		{"variable", 0, [][]byte{[]byte(""), []byte("x"), []byte("longer-key")}},
		{"empty", 0, nil},
	} {
		buf, err := AppendPackedKeys(nil, tc.width, tc.keys)
		if err != nil {
			t.Fatalf("%s: AppendPackedKeys: %v", tc.name, err)
		}
		keys, width, rest, err := DecodePackedKeys(nil, buf)
		if err != nil {
			t.Fatalf("%s: DecodePackedKeys: %v", tc.name, err)
		}
		if width != tc.width || len(rest) != 0 || len(keys) != len(tc.keys) {
			t.Fatalf("%s: width=%d rest=%d keys=%d", tc.name, width, len(rest), len(keys))
		}
		for i := range keys {
			if !bytes.Equal(keys[i], tc.keys[i]) {
				t.Fatalf("%s: key %d = %q, want %q", tc.name, i, keys[i], tc.keys[i])
			}
		}
	}
	// Truncated blocks must be refused, not over-read.
	buf, _ := AppendPackedKeys(nil, 4, [][]byte{[]byte("abcd")})
	for cut := 1; cut < len(buf); cut++ {
		if _, _, _, err := DecodePackedKeys(nil, buf[:cut]); err == nil {
			t.Fatalf("accepted a key block truncated to %d bytes", cut)
		}
	}
	if _, err := AppendPackedKeys(nil, 2, [][]byte{[]byte("abc")}); err == nil {
		t.Fatal("accepted a 3-byte key in a width-2 block")
	}
}

func TestKeyWidth(t *testing.T) {
	wide := make([]byte, MaxKeyWidth+1)
	for _, tc := range []struct {
		name string
		keys [][]byte
		want int
	}{
		{"none", nil, 0},
		{"shared", [][]byte{[]byte("abc"), []byte("def")}, 3},
		{"mixed", [][]byte{[]byte("abc"), []byte("de")}, 0},
		{"empty keys", [][]byte{{}, {}}, 0},
		{"widest", [][]byte{wide[:MaxKeyWidth]}, MaxKeyWidth},
		{"too wide", [][]byte{wide, wide}, 0},
	} {
		if got := KeyWidth(tc.keys); got != tc.want {
			t.Errorf("%s: KeyWidth = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestRequestEncodingRejectsMismatchedWidth(t *testing.T) {
	_, err := AppendRequest(nil, &Request{
		Op: OpMembershipAdd, KeyWidth: 4, Keys: [][]byte{[]byte("abc")},
	})
	if err == nil {
		t.Fatal("accepted a 3-byte key in a width-4 frame")
	}
}

func TestResponseRoundTrips(t *testing.T) {
	cases := []Response{
		{Status: StatusOK, Op: OpPing},
		{Status: StatusOK, Op: OpMembershipAdd, Applied: 42},
		{Status: StatusOK, Op: OpMembershipContains, Bools: []bool{true, false, true, true, false, false, false, true, true}},
		{Status: StatusOK, Op: OpMultiplicityCount, Counts: []int{0, 1, 57, 3}},
		{Status: StatusOK, Op: OpAssociationQuery, Regions: []byte{0, 1, 3, 7}},
		{Status: StatusOK, Op: OpRotate, Epoch: 9, Rotated: []string{"membership", "association", "multiplicity"}},
		{Status: StatusOK, Op: OpStats, Blob: []byte(`{"n":1}`)},
		{Status: StatusOK, Op: OpClusterMap, Blob: []byte(`{"version":1,"nodes":[]}`)},
		{Status: StatusOK, Op: OpMembershipDump, Blob: []byte("ShBE\x01binary envelope\x00")},
		{Status: StatusOK, Op: OpMetrics, Blob: []byte("# TYPE shbf_requests_total counter\nshbf_requests_total{op=\"ping\"} 3\n")},
		{Status: StatusNotFound, Op: OpMetrics, Msg: "server: metrics disabled"},
		{Status: StatusOK, Op: OpMembershipMerge, Applied: 700},
		{Status: StatusConflict, Op: OpMembershipMerge, Msg: "spec mismatch"},
		{Status: StatusOK, Op: OpMultiplicityMerge, Applied: 31},
		{Status: StatusOK, Op: OpMultiplicityDump, Blob: []byte("ShBE\x01counting envelope\x00")},
		{Status: StatusConflict, Op: OpMultiplicityMerge, Msg: "spec mismatch"},
		{Status: StatusConflict, Op: OpMultiplicityAdd, Msg: "count overflow"},
	}
	for _, want := range cases {
		buf, err := AppendResponse(nil, &want)
		if err != nil {
			t.Fatalf("%s: AppendResponse: %v", OpName(want.Op), err)
		}
		frame, err := ReadFrame(bytes.NewReader(buf), nil)
		if err != nil {
			t.Fatalf("%s: ReadFrame: %v", OpName(want.Op), err)
		}
		var got Response
		if err := DecodeResponse(&got, frame); err != nil {
			t.Fatalf("%s: DecodeResponse: %v", OpName(want.Op), err)
		}
		if got.Status != want.Status || got.Op != want.Op || got.Msg != want.Msg ||
			got.Applied != want.Applied || got.Epoch != want.Epoch {
			t.Fatalf("%s: %+v != %+v", OpName(want.Op), got, want)
		}
		if len(got.Bools) != len(want.Bools) || len(got.Counts) != len(want.Counts) ||
			!bytes.Equal(got.Regions, want.Regions) || len(got.Rotated) != len(want.Rotated) ||
			!bytes.Equal(got.Blob, want.Blob) {
			t.Fatalf("%s: body mismatch: %+v != %+v", OpName(want.Op), got, want)
		}
		for i := range want.Bools {
			if got.Bools[i] != want.Bools[i] {
				t.Fatalf("%s: bool %d", OpName(want.Op), i)
			}
		}
		for i := range want.Counts {
			if got.Counts[i] != want.Counts[i] {
				t.Fatalf("%s: count %d", OpName(want.Op), i)
			}
		}
		for i := range want.Rotated {
			if got.Rotated[i] != want.Rotated[i] {
				t.Fatalf("%s: rotated %d", OpName(want.Op), i)
			}
		}
	}
}

func TestDecodeRequestRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":         {},
		"short header":  []byte("ShB"),
		"bad magic":     []byte("NOPE\x01\x10\x00\x00\x00\x00\x00\x00\x00\x00"),
		"bad version":   []byte("ShBP\x07\x10\x00\x00\x00\x00\x00\x00\x00\x00"),
		"unknown op":    []byte("ShBP\x01\xee\x00\x00\x00\x00\x00\x00\x00\x00"),
		"ns overrun":    []byte("ShBP\x01\x10\x00\x09ab"),
		"count overrun": append([]byte("ShBP\x01\x10\x00\x00\x0d\x00"), 0xff, 0xff, 0xff, 0xff),
		"trailing":      append(mustRequest(&Request{Op: OpPing})[4:], 0x00),
		"truncated varkey": append([]byte("ShBP\x01\x10\x00\x00\x00\x00"),
			0x02, 0x00, 0x00, 0x00, // 2 keys
			0x05, 'a'), // first key claims 5 bytes, has 1
	}
	var req Request
	for name, frame := range cases {
		if err := DecodeRequest(&req, frame); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// mustRequest encodes a request or panics (test helper).
func mustRequest(req *Request) []byte {
	buf, err := AppendRequest(nil, req)
	if err != nil {
		panic(err)
	}
	return buf
}

func TestReadFrameLimits(t *testing.T) {
	// Oversized declared length is rejected before allocation.
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := ReadFrame(bytes.NewReader(hdr[:]), nil); err == nil {
		t.Fatal("accepted an oversized frame")
	}
	// Zero-length frames are invalid (no message is empty).
	binary.LittleEndian.PutUint32(hdr[:], 0)
	if _, err := ReadFrame(bytes.NewReader(hdr[:]), nil); err == nil {
		t.Fatal("accepted an empty frame")
	}
	// Clean EOF at a frame boundary is io.EOF, not an error wrap.
	if _, err := ReadFrame(bytes.NewReader(nil), nil); err != io.EOF {
		t.Fatalf("EOF at boundary: %v", err)
	}
	// EOF mid-payload is a truncation error.
	frame := mustRequest(&Request{Op: OpPing})
	if _, err := ReadFrame(bytes.NewReader(frame[:len(frame)-1]), nil); err == nil ||
		!strings.Contains(err.Error(), "truncated") {
		t.Fatalf("mid-payload EOF: %v", err)
	}
}

func TestDecodeReusesBuffers(t *testing.T) {
	// The server's per-connection loop decodes into one Request; the
	// second decode must not see the first's keys.
	var req Request
	f1 := mustRequest(&Request{Op: OpMembershipAdd, KeyWidth: 2, Keys: [][]byte{{1, 2}, {3, 4}}})
	f2 := mustRequest(&Request{Op: OpMembershipContains, KeyWidth: 2, Keys: [][]byte{{9, 9}}})
	if err := DecodeRequest(&req, f1[4:]); err != nil {
		t.Fatal(err)
	}
	if err := DecodeRequest(&req, f2[4:]); err != nil {
		t.Fatal(err)
	}
	if len(req.Keys) != 1 || !bytes.Equal(req.Keys[0], []byte{9, 9}) {
		t.Fatalf("stale keys after reuse: %v", req.Keys)
	}

	// DecodeRequest keeps the namespace string the Request holds while
	// frames name the same tenant (TestInstrumentedDispatchAllocFree
	// counts the allocation it saves); every frame must still decode
	// to its own namespace.
	for i, ns := range []string{"", "a", "a", "b", ""} {
		f := mustRequest(&Request{Op: OpMembershipContains, Namespace: ns, KeyWidth: 2, Keys: [][]byte{{9, 9}}})
		if err := DecodeRequest(&req, f[4:]); err != nil {
			t.Fatal(err)
		}
		if req.Namespace != ns {
			t.Fatalf("frame %d: namespace %q, want %q", i, req.Namespace, ns)
		}
	}
}

// TestHTTPStatusTableRoundTrips: every wire status survives the trip
// through its HTTP status and back, so the daemon's HTTP answers and
// the HTTP client's reading of them can never disagree.
func TestHTTPStatusTableRoundTrips(t *testing.T) {
	for st := range len(statusNames) {
		if got := StatusOfHTTP(HTTPStatus(byte(st))); got != byte(st) {
			t.Errorf("status %s → HTTP %d → %s", StatusName(byte(st)), HTTPStatus(byte(st)), StatusName(got))
		}
	}
	if HTTPStatus(StatusOK) != 200 || HTTPStatus(StatusOverloaded) != 429 || HTTPStatus(200) != 500 {
		t.Errorf("HTTPStatus: ok %d, overloaded %d, unknown %d; want 200, 429, 500",
			HTTPStatus(StatusOK), HTTPStatus(StatusOverloaded), HTTPStatus(200))
	}
}

// TestRoutesCoverEveryOp: the route table has exactly one route for
// every defined op, so both ends of the HTTP API can serve and send
// each one, and no two routes share a method and path.
func TestRoutesCoverEveryOp(t *testing.T) {
	seen := map[byte]bool{}
	patterns := map[string]bool{}
	for _, rt := range Routes() {
		if !ValidOp(rt.Op) || seen[rt.Op] {
			t.Errorf("%s: undefined or repeated op", OpName(rt.Op))
		}
		seen[rt.Op] = true
		if p := rt.Method + " " + rt.Path; patterns[p] {
			t.Errorf("%s: pattern %q repeated", OpName(rt.Op), p)
		} else {
			patterns[p] = true
		}
		if got, ok := RouteOf(rt.Op); !ok || got != rt {
			t.Errorf("RouteOf(%s) = %+v, %v", OpName(rt.Op), got, ok)
		}
	}
	for op := range opNames {
		if !seen[op] {
			t.Errorf("%s has no route", OpName(op))
		}
	}
	if _, ok := RouteOf(0); ok {
		t.Error("RouteOf(0) found a route for an undefined op")
	}
}
