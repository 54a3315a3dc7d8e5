//go:build !race

package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"testing"

	"shbf/internal/core"
	"shbf/internal/wire"
)

// TestHTTPCodecAllocFree pins the steady-state read, decode and encode
// of a 16-key base64 body, encoded as the shipped client encodes it, at
// zero allocations.
func TestHTTPCodecAllocFree(t *testing.T) {
	keys := make([][]byte, 16)
	sent := make([]string, len(keys))
	items := make([]map[string]any, len(keys))
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("flow-id-%05d", i)) // 13 bytes, as a 5-tuple
		sent[i] = base64.StdEncoding.EncodeToString(keys[i])
		items[i] = map[string]any{"key": sent[i], "count": 1}
	}
	keysBody, err := json.Marshal(map[string]any{"keys": sent, "encoding": "base64"})
	if err != nil {
		t.Fatal(err)
	}
	itemsBody, err := json.Marshal(map[string]any{"items": items, "encoding": "base64"})
	if err != nil {
		t.Fatal(err)
	}
	bools, counts := make([]bool, len(keys)), make([]int, len(keys))
	regions := make([]core.Region, len(keys))

	var (
		b  httpBody
		rd bytes.Reader
	)
	decode := func(body []byte, shape wire.BodyShape) {
		rd.Reset(body)
		var err error
		if b.in, err = appendBody(b.in[:0], &rd); err != nil {
			t.Fatal(err)
		}
		if !b.parse(shape) {
			t.Fatalf("%s is outside the canonical subset", body)
		}
		if err := b.decodeKeys(shape == wire.BodyItems); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		body  []byte
		shape wire.BodyShape
	}{{keysBody, wire.BodyKeys}, {itemsBody, wire.BodyItems}} {
		decode(tc.body, tc.shape)
		for i := range keys {
			if !bytes.Equal(b.keys[i], keys[i]) {
				t.Fatalf("%s: key %d decodes to %q, want %q", tc.body, i, b.keys[i], keys[i])
			}
		}
	}
	requireZeroAllocs(t, "http codec/keys+answers", 100, func() {
		decode(keysBody, wire.BodyKeys)
		b.out = wire.AppendBools(b.out[:0], bools)
		b.out = wire.AppendCounts(b.out[:0], counts)
		b.out = wire.AppendRegions(b.out[:0], regions, true)
	})
	requireZeroAllocs(t, "http codec/items+applied", 100, func() {
		decode(itemsBody, wire.BodyItems)
		b.out = wire.AppendTally(b.out[:0], "applied", len(b.keys))
	})
}
