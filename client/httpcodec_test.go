package client

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"math/rand/v2"
	"slices"
	"testing"

	"shbf"
	"shbf/internal/wire"
)

// marshalBody is the body the HTTP transport sent before its hand
// encoder: json.Marshal of a map payload with base64 keys.
func marshalBody(t *testing.T, shape wire.BodyShape, req *wire.Request) []byte {
	t.Helper()
	encodeKeys := func(keys [][]byte) []string {
		out := make([]string, len(keys))
		for i, k := range keys {
			out[i] = base64.StdEncoding.EncodeToString(k)
		}
		return out
	}
	var payload any
	switch shape {
	case wire.BodyKeys:
		payload = map[string]any{"keys": encodeKeys(req.Keys), "encoding": "base64"}
	case wire.BodySet:
		payload = map[string]any{"set": int(req.Set), "keys": encodeKeys(req.Keys), "encoding": "base64"}
	case wire.BodyItems:
		items := make([]map[string]any, 0, len(req.Keys))
		for i, k := range req.Keys {
			count := 1
			if len(req.Counts) != 0 {
				count = req.Counts[i]
			}
			if count == 0 {
				continue
			}
			items = append(items, map[string]any{"key": base64.StdEncoding.EncodeToString(k), "count": count})
		}
		payload = map[string]any{"items": items, "encoding": "base64"}
	}
	b, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHTTPBodiesMatchJSONMarshal: the hand encoder writes exactly the
// bytes json.Marshal wrote for the same payloads, for keys of random
// bytes, empty keys and a key of every byte value, both association
// sets, and item counts of 0 (skipped), 1 and more.
func TestHTTPBodiesMatchJSONMarshal(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	every := make([]byte, 256)
	for i := range every {
		every[i] = byte(i)
	}
	for _, n := range []int{0, 1, 2, 16, 100} {
		for trial := 0; trial < 20; trial++ {
			keys := make([][]byte, n)
			counts := make([]int, n)
			for i := range keys {
				keys[i] = make([]byte, rng.IntN(3)*rng.IntN(20)) // a third of them empty
				for j := range keys[i] {
					keys[i][j] = byte(rng.Uint32())
				}
				counts[i] = []int{0, 1, 1 + rng.IntN(1000)}[rng.IntN(3)]
			}
			if n > 0 {
				keys[rng.IntN(n)] = every
			}
			for _, tc := range []struct {
				shape wire.BodyShape
				req   wire.Request
			}{
				{wire.BodyKeys, wire.Request{Keys: keys}},
				{wire.BodySet, wire.Request{Set: 1, Keys: keys}},
				{wire.BodySet, wire.Request{Set: 2, Keys: keys}},
				{wire.BodyItems, wire.Request{Keys: keys}},
				{wire.BodyItems, wire.Request{Keys: keys, Counts: counts}},
			} {
				got, err := appendBody(nil, tc.shape, &tc.req)
				if err != nil {
					t.Fatal(err)
				}
				if want := marshalBody(t, tc.shape, &tc.req); !bytes.Equal(got, want) {
					t.Fatalf("shape %d, %d keys:\n got: %s\nwant: %s", tc.shape, n, got, want)
				}
			}
		}
	}
}

// dataPlaneAnswers are the answer shapes the hand decoder reads.
var dataPlaneAnswers = [...]wire.AnswerShape{
	wire.AnswerAdded, wire.AnswerApplied, wire.AnswerResults, wire.AnswerCounts, wire.AnswerRegions,
}

// encodedAnswers returns the daemon's answer of every data-plane shape
// for a batch of n keys, from the shared encoders, with the response
// each one decodes to: every region in turn, random booleans and
// counts, and tallies of n.
func encodedAnswers(rng *rand.Rand, n int) (data [][]byte, want []wire.Response) {
	bools, counts := make([]bool, n), make([]int, n)
	regions, masks := make([]shbf.Region, n), make([]byte, n)
	for i := range n {
		bools[i] = rng.IntN(2) == 1
		counts[i] = rng.IntN(1 << rng.IntN(40))
		regions[i], masks[i] = shbf.Region(i%8), byte(i%8)
	}
	data = [][]byte{
		wire.AppendTally(nil, "added", n),
		wire.AppendTally(nil, "applied", n),
		wire.AppendBools(nil, bools),
		wire.AppendCounts(nil, counts),
		wire.AppendRegions(nil, regions, true),
	}
	want = []wire.Response{{Applied: uint64(n)}, {Applied: uint64(n)}, {Bools: bools}, {Counts: counts}, {Regions: masks}}
	return data, want
}

// sameAnswer reports whether a and b carry the same data-plane answer.
func sameAnswer(a, b *wire.Response) bool {
	return a.Applied == b.Applied && slices.Equal(a.Bools, b.Bools) &&
		slices.Equal(a.Counts, b.Counts) && slices.Equal(a.Regions, b.Regions)
}

// TestHTTPAnswersTakeFastPath: the hand decoder reads every answer the
// daemon's encoders write, at batch sizes 0, 1, 16 and 4096, every
// region alone included, into the values encoded, which are the values
// encoding/json decodes.
func TestHTTPAnswersTakeFastPath(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, n := range []int{0, 1, 16, 4096} {
		data, want := encodedAnswers(rng, n)
		for i, shape := range dataPlaneAnswers {
			var got, ref wire.Response
			if !parseAnswer(shape, data[i], n, &got) {
				t.Fatalf("shape %d, %d keys: %.80q... falls back to encoding/json", shape, n, data[i])
			}
			if err := decodeAnswerJSON(shape, data[i], wire.OpPing, &ref); err != nil {
				t.Fatal(err)
			}
			if !sameAnswer(&got, &want[i]) || !sameAnswer(&ref, &want[i]) {
				t.Fatalf("shape %d, %d keys: decoded %+v, encoding/json %+v, want %+v", shape, n, got, ref, want[i])
			}
		}
	}
	for r := range 8 {
		var got wire.Response
		data := wire.AppendRegions(nil, []shbf.Region{shbf.Region(r)}, true)
		if !parseAnswer(wire.AnswerRegions, data, 1, &got) || !slices.Equal(got.Regions, []byte{byte(r)}) {
			t.Fatalf("region %d: %q decodes to %v", r, data, got.Regions)
		}
	}
}

// FuzzHTTPAnswer: whenever the hand decoder reads a data-plane answer,
// encoding/json decodes the same values from the same bytes, so taking
// the fast path never changes an answer.
func FuzzHTTPAnswer(f *testing.F) {
	// Batches of 4096 keys are checked by TestHTTPAnswersTakeFastPath
	// instead: a 390 KB seed leaves a 20 s fuzz run minimizing one
	// mutant for most of it.
	rng := rand.New(rand.NewPCG(7, 8))
	for _, n := range []int{0, 1, 16} {
		data, _ := encodedAnswers(rng, n)
		for i, d := range data {
			f.Add(byte(i), d)
		}
	}
	for r := range 8 {
		f.Add(byte(4), wire.AppendRegions(nil, []shbf.Region{shbf.Region(r)}, true))
	}
	for _, s := range []string{
		`{"added":01}`, `{"added":-1}`, `{"added":1.0}`, `{"added":1e3}`, `{"added":99999999999999999999}`,
		`{"applied":7} `, "{\"applied\":7}\r\n\t", `{"applied":7}x`, `{"Applied":7}`, ` {"applied":7}`,
		`{"results":[true,]}`, `{"results":[,true]}`, `{"results":[true]}]}`, `{"results":null}`,
		`{"counts":[1,-2]}`, `{"counts":[-0]}`, `{"counts":[1,2],"counts":[3]}`, `{"counts":[]}`,
	} {
		for i := range dataPlaneAnswers {
			f.Add(byte(i), []byte(s))
		}
	}
	f.Fuzz(func(t *testing.T, shapeByte byte, data []byte) {
		shape := dataPlaneAnswers[int(shapeByte)%len(dataPlaneAnswers)]
		var hand, ref wire.Response
		if !parseAnswer(shape, data, 0, &hand) {
			return
		}
		if err := decodeAnswerJSON(shape, data, wire.OpPing, &ref); err != nil {
			t.Fatalf("shape %d: fast path read %q, encoding/json refuses it: %v", shape, data, err)
		}
		if !sameAnswer(&hand, &ref) {
			t.Fatalf("shape %d, %q: fast path reads %+v, encoding/json %+v", shape, data, hand, ref)
		}
	})
}
