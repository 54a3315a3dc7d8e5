package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand/v2"
	"testing"

	"shbf/internal/core"
	"shbf/internal/wire"
)

// refDecode decodes body the way the data-plane handlers did before
// the canonical-subset parser: encoding/json into shape's struct, with
// unknown fields and trailing data refused.
func refDecode(shape wire.BodyShape, body []byte) (keys []string, counts []int, enc string, set int, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	switch shape {
	case wire.BodyKeys:
		var req keyBatch
		err = dec.Decode(&req)
		keys, enc = req.Keys, req.Encoding
	case wire.BodySet:
		var req setBatch
		err = dec.Decode(&req)
		keys, enc, set = req.Keys, req.Encoding, req.Set
	case wire.BodyItems:
		var req countedBatch
		err = dec.Decode(&req)
		enc = req.Encoding
		for _, it := range req.Items {
			keys = append(keys, it.Key)
			counts = append(counts, it.Count)
		}
	}
	if err == nil && dec.More() {
		err = errors.New("trailing data after JSON body")
	}
	return keys, counts, enc, set, err
}

// FuzzHTTPBody: whenever the canonical-subset parser accepts a body,
// encoding/json accepts it too and decodes the same keys, counts,
// encoding and set — so taking the fast path never changes an answer.
func FuzzHTTPBody(f *testing.F) {
	for _, s := range []string{
		`{"keys":["alpha","beta"]}`,
		`{"encoding":"base64","keys":["AAECAwQFBgcICQoLDA==","/+8="]}`,
		`{"encoding":"base64","keys":["YQ=="],"set":1}`,
		`{"set":2,"keys":["x"],"encoding":"raw"}`,
		`{"encoding":"base64","items":[{"count":3,"key":"YQ=="},{"count":1,"key":""}]}`,
		`{"items":[{"key":"once"},{"key":"thrice","count":3}]}`,
		" {\t\"keys\" :\r\n[ \"a\" , \"b\" ] } ",
		`{"keys":[]}`, `{}`, `{"items":[{}]}`, `{"items":[]}`,
		`{"Keys":["a"]}`, `{"keys":["\u0061"]}`, `{"keys":["a"],"keys":["b"]}`,
		`{"keys":["a"]}]`, `{"keys":["a"]} x`, `{"keys":null}`, `{"encoding":null}`,
		`{"set":1.0,"keys":[]}`, `{"set":-0,"keys":[]}`, `{"set":01}`, `{"set":1e0}`,
		`{"set":999999999999999999}`, `{"set":99999999999999999999}`,
		`{"items":[{"key":"a","count":-1}]}`, `{"items":[{"key":"a","count":2,"count":3}]}`,
		"{\"keys\":[\"\xff\"]}", "{\"keys\":[\"é∅\"]}", "{\"keys\":[\"a\tb\"]}",
		`{"keys":["a",]}`, `{"keys":["a"],}`, `{"keys":["a"]`, ``,
	} {
		for shape := range 3 {
			f.Add(byte(shape), []byte(s))
		}
	}
	f.Fuzz(func(t *testing.T, shapeByte byte, body []byte) {
		shape := wire.BodyShape(shapeByte % 3)
		b := httpBody{in: body}
		if !b.parse(shape) {
			return
		}
		keys, counts, enc, set, err := refDecode(shape, body)
		if err != nil {
			t.Fatalf("shape %d: fast path accepted %q, encoding/json refuses it: %v", shape, body, err)
		}
		if len(b.wire) != len(keys) {
			t.Fatalf("shape %d, %q: %d keys, encoding/json decodes %d", shape, body, len(b.wire), len(keys))
		}
		for i := range keys {
			if string(b.wire[i]) != keys[i] {
				t.Fatalf("shape %d, %q: key %d is %q, encoding/json decodes %q", shape, body, i, b.wire[i], keys[i])
			}
		}
		if shape == wire.BodyItems {
			for i := range counts {
				if b.itemCounts[i] != counts[i] {
					t.Fatalf("%q: item %d count %d, encoding/json decodes %d", body, i, b.itemCounts[i], counts[i])
				}
			}
		}
		if string(b.encoding) != enc || b.set != set {
			t.Fatalf("shape %d, %q: encoding %q set %d, encoding/json decodes %q and %d",
				shape, body, b.encoding, b.set, enc, set)
		}
	})
}

// refRegion is the classify result as the handlers rendered it through
// encoding/json, the reference wire.AppendRegions is held to.
type refRegion struct {
	Region     string   `json:"region"`
	Candidates []string `json:"candidates"`
	Clear      bool     `json:"clear"`
	InS1       bool     `json:"in_s1"`
	InS2       bool     `json:"in_s2"`
	Mask       *uint8   `json:"mask,omitempty"`
}

func refRegionOf(r core.Region, withMask bool) refRegion {
	ans := refRegion{Region: r.String(), Candidates: make([]string, 0, 3),
		Clear: r.Clear(), InS1: r.InS1(), InS2: r.InS2()}
	for _, c := range []struct {
		r    core.Region
		name string
	}{{core.RegionS1Only, "s1-only"}, {core.RegionBoth, "both"}, {core.RegionS2Only, "s2-only"}} {
		if r.Contains(c.r) {
			ans.Candidates = append(ans.Candidates, c.name)
		}
	}
	if withMask {
		mask := uint8(r)
		ans.Mask = &mask
	}
	return ans
}

// refEncode renders v as writeJSON does.
func refEncode(t *testing.T, v any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestAnswerEncodersMatchEncodingJSON: every success answer the append
// encoders write is byte-equal to what encoding/json wrote for the
// same values — all eight regions with and without the mask, random
// bool and count slices, and the tallies.
func TestAnswerEncodersMatchEncodingJSON(t *testing.T) {
	check := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Fatalf("%s:\n got: %q\nwant: %q", what, got, want)
		}
	}
	for _, withMask := range []bool{false, true} {
		var all []core.Region
		var allRef []refRegion
		for r := core.Region(0); r < 8; r++ {
			all = append(all, r)
			allRef = append(allRef, refRegionOf(r, withMask))
			check(r.String(), string(wire.AppendRegions(nil, []core.Region{r}, withMask)),
				refEncode(t, map[string]any{"results": []refRegion{refRegionOf(r, withMask)}}))
		}
		check("all regions", string(wire.AppendRegions(nil, all, withMask)), refEncode(t, map[string]any{"results": allRef}))
		check("no regions", string(wire.AppendRegions(nil, nil, withMask)), refEncode(t, map[string]any{"results": []refRegion{}}))
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for n := 0; n < 64; n++ {
		bools, counts := make([]bool, n), make([]int, n)
		for i := range bools {
			bools[i] = rng.IntN(2) == 1
			counts[i] = rng.IntN(1 << (1 + rng.IntN(40)))
		}
		check("bools", string(wire.AppendBools(nil, bools)), refEncode(t, map[string]any{"results": bools}))
		check("counts", string(wire.AppendCounts(nil, counts)), refEncode(t, map[string]any{"counts": counts}))
	}
	for _, n := range []int{0, 1, 16, 4096, 1 << 40} {
		for _, name := range []string{"added", "applied"} {
			check(name, string(wire.AppendTally(nil, name, n)), refEncode(t, map[string]int{name: n}))
		}
	}
}

// TestHTTPBodyOutsideSubsetAnswersAsBefore: bodies the canonical
// parser leaves to encoding/json keep that decoder's leniencies and
// error texts byte for byte (the literals were captured from the
// encoding/json-only handlers).
func TestHTTPBodyOutsideSubsetAnswersAsBefore(t *testing.T) {
	ts := newTestServer(t, testConfig())
	cases := []struct {
		name, path, body string
		wantStatus       int
		want             string
	}{
		{"seed", "/v1/membership/add", `{"keys":["alpha"]}`, 200, `{"added":1}`},
		{"invalid UTF-8 becomes U+FFFD", "/v1/membership/add", "{\"keys\":[\"\xff\"]}", 200, `{"added":1}`},
		{"U+FFFD present", "/v1/membership/contains", "{\"keys\":[\"\uFFFD\"]}", 200, `{"results":[true]}`},
		{"case-insensitive name", "/v1/membership/contains", `{"KEYS":["alpha"]}`, 200, `{"results":[true]}`},
		{"escaped key", "/v1/membership/contains", `{"keys":["\u0061lpha"]}`, 200, `{"results":[true]}`},
		{"repeated field, last wins", "/v1/membership/contains", `{"keys":["nope"],"keys":["alpha"]}`, 200, `{"results":[true]}`},
		{"closing bracket after the object", "/v1/membership/contains", `{"keys":["alpha"]}]`, 200, `{"results":[true]}`},
		{"null keys", "/v1/membership/contains", `{"keys":null}`, 200, `{"results":[]}`},
		{"null encoding", "/v1/membership/contains", `{"keys":["alpha"],"encoding":null}`, 200, `{"results":[true]}`},
		{"repeated set, last wins", "/v1/association/add", `{"set":2,"keys":["x"],"set":1}`, 200, `{"applied":1}`},
		{"trailing value", "/v1/membership/contains", `{"keys":["alpha"]} {}`, 400, `{"error":"trailing data after JSON body"}`},
		{"empty body", "/v1/membership/contains", ``, 400, `{"error":"decoding request: EOF"}`},
		{"control character", "/v1/membership/contains", "{\"keys\":[\"a\tb\"]}", 400,
			`{"error":"decoding request: invalid character '\\t' in string literal"}`},
		{"fractional set", "/v1/association/add", `{"set":1.0,"keys":["a"]}`, 400,
			`{"error":"decoding request: json: cannot unmarshal number 1.0 into Go struct field setBatch.set of type int"}`},
		{"leading zero", "/v1/association/add", `{"set":01,"keys":["a"]}`, 400,
			`{"error":"decoding request: invalid character '1' after object key:value pair"}`},
		{"exponent count", "/v1/multiplicity/add", `{"items":[{"key":"a","count":1e0}]}`, 400,
			`{"error":"decoding request: json: cannot unmarshal number 1e0 into Go struct field countedItem.items.count of type int"}`},
		{"keys on an items route", "/v1/multiplicity/add", `{"keys":["a"]}`, 400,
			`{"error":"decoding request: json: unknown field \"keys\""}`},
	}
	for _, tc := range cases {
		status, got := rawPost(t, ts.URL+tc.path, tc.body)
		if status != tc.wantStatus || string(got) != tc.want+"\n" {
			t.Fatalf("%s: %d %q, want %d %q", tc.name, status, got, tc.wantStatus, tc.want+"\n")
		}
	}
}

// TestCountedWriteValidatesWholeBatch: a multiplicity write with a bad
// item anywhere is refused before its first update, so the refused
// request leaves every count as it was and can be retried safely.
func TestCountedWriteValidatesWholeBatch(t *testing.T) {
	ts := newTestServer(t, testConfig())
	count := func() string {
		_, got := rawPost(t, ts.URL+"/v1/multiplicity/count", `{"keys":["a"]}`)
		return string(got)
	}
	if status, got := rawPost(t, ts.URL+"/v1/multiplicity/add", `{"items":[{"key":"a","count":3}]}`); status != 200 {
		t.Fatalf("seed add: %d %s", status, got)
	}
	for _, tc := range []struct{ path, body, want string }{
		{"/v1/multiplicity/add", `{"items":[{"key":"a","count":2},{"key":"b","count":-1}]}`,
			`{"error":"item 1: negative count -1"}`},
		{"/v2/namespaces/default/multiplicity/add", `{"encoding":"base64","items":[{"key":"YQ==","count":2},{"key":"!!"}]}`,
			`{"error":"item 1: illegal base64 data at input byte 0"}`},
		{"/v1/multiplicity/remove", `{"items":[{"key":"a"},{"key":"a","count":-2}]}`,
			`{"error":"item 1: negative count -2"}`},
	} {
		status, got := rawPost(t, ts.URL+tc.path, tc.body)
		if status != 400 || string(got) != tc.want+"\n" {
			t.Fatalf("%s %s: %d %q, want 400 %q", tc.path, tc.body, status, got, tc.want+"\n")
		}
		if c := count(); c != `{"counts":[3]}`+"\n" {
			t.Fatalf("%s %s: refused request changed the count: %s", tc.path, tc.body, c)
		}
	}
}
