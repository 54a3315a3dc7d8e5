package client

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"strconv"

	"shbf"
	"shbf/internal/wire"
)

// The HTTP transport's body codec (DESIGN.md "HTTP body codec"), the
// client's half of the daemon's. A data-plane request body is appended
// into one buffer with its keys base64-encoded in place, in the bytes
// json.Marshal writes for the same payload, so it lies in the subset
// the daemon decodes without encoding/json. A data-plane success answer
// is read by hand when its bytes are exactly what the daemon's answer
// encoders (wire.AppendTally, AppendBools, AppendCounts, AppendRegions)
// write, up to trailing whitespace; any other bytes, and every
// control-plane answer, are decoded by encoding/json, so an answer the
// hand decoder refuses decodes, or fails, exactly as with
// encoding/json alone.

// appendBody appends req's body in shape to dst: nothing for the
// shapes without a data-plane body.
func appendBody(dst []byte, shape wire.BodyShape, req *wire.Request) ([]byte, error) {
	switch shape {
	case wire.BodyKeys, wire.BodySet:
		dst = append(dst, `{"encoding":"base64","keys":[`...)
		for i, k := range req.Keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendKey(dst, k)
		}
		dst = append(dst, ']')
		if shape == wire.BodySet {
			dst = append(dst, `,"set":`...)
			dst = strconv.AppendUint(dst, uint64(req.Set), 10)
		}
		return append(dst, '}'), nil
	case wire.BodyItems:
		if len(req.Counts) != 0 && len(req.Counts) != len(req.Keys) {
			return dst, fmt.Errorf("client: %d counts for %d keys", len(req.Counts), len(req.Keys))
		}
		dst = append(dst, `{"encoding":"base64","items":[`...)
		first := true
		for i, k := range req.Keys {
			count := 1
			if len(req.Counts) != 0 {
				count = req.Counts[i]
			}
			if count == 0 {
				continue // wire semantics: zero count applies nothing
			}
			if !first {
				dst = append(dst, ',')
			}
			first = false
			dst = append(dst, `{"count":`...)
			dst = strconv.AppendInt(dst, int64(count), 10)
			dst = append(dst, `,"key":`...)
			dst = appendKey(dst, k)
			dst = append(dst, '}')
		}
		return append(dst, "]}"...), nil
	}
	return dst, nil
}

// appendKey appends k as a base64 JSON string; the base64 alphabet
// needs no JSON escaping.
func appendKey(dst, k []byte) []byte {
	dst = append(dst, '"')
	dst = base64.StdEncoding.AppendEncode(dst, k)
	return append(dst, '"')
}

// decodeAnswer fills resp from the success answer data of req's route,
// whose answer has the given shape.
func decodeAnswer(shape wire.AnswerShape, data []byte, req *wire.Request, resp *wire.Response) error {
	if parseAnswer(shape, data, len(req.Keys), resp) {
		return nil
	}
	return decodeAnswerJSON(shape, data, req.Op, resp)
}

// parseAnswer reads a data-plane answer in the daemon's own bytes into
// resp, sizing the answer slices for n keys. It reports false for any
// other bytes or shape, leaving the shape's answer field for
// decodeAnswerJSON to set.
func parseAnswer(shape wire.AnswerShape, data []byte, n int, resp *wire.Response) (ok bool) {
	switch shape {
	case wire.AnswerAdded, wire.AnswerApplied:
		prefix := `{"applied":`
		if shape == wire.AnswerAdded {
			prefix = `{"added":`
		}
		var rest []byte
		if rest, ok = cutPrefix(data, prefix); ok {
			resp.Applied, rest, ok = cutUint(rest)
		}
		ok = ok && closes(rest, "}")
	case wire.AnswerResults:
		resp.Bools, ok = parseList(data, `{"results":[`, n, cutBool)
	case wire.AnswerCounts:
		resp.Counts, ok = parseList(data, `{"counts":[`, n, cutCount)
	case wire.AnswerRegions:
		resp.Regions, ok = parseList(data, `{"results":[`, n, cutRegion)
	}
	return ok
}

// parseList reads a list answer: data must be prefix, then elements
// that elem reads, separated by commas, then "]}" and JSON whitespace.
// It reports false for any other bytes.
func parseList[T any](data []byte, prefix string, n int, elem func([]byte) (T, []byte, bool)) ([]T, bool) {
	list, ok := cutPrefix(data, prefix)
	if !ok {
		return nil, false
	}
	out := make([]T, 0, n)
	for {
		v, rest, ok := elem(list)
		if !ok {
			// Only an empty list ends before its first element.
			return out, len(out) == 0 && closes(list, "]}")
		}
		out = append(out, v)
		if list, ok = cutPrefix(rest, ","); !ok {
			return out, closes(rest, "]}")
		}
	}
}

func cutBool(b []byte) (bool, []byte, bool) {
	if rest, ok := cutPrefix(b, "true"); ok {
		return true, rest, true
	}
	rest, ok := cutPrefix(b, "false")
	return false, rest, ok
}

func cutCount(b []byte) (int, []byte, bool) {
	v, rest, ok := cutUint(b)
	return int(v), rest, ok
}

func cutRegion(b []byte) (byte, []byte, bool) {
	for r := range regionForms {
		if rest, ok := cutPrefix(b, regionForms[r]); ok {
			return byte(r), rest, true
		}
	}
	return 0, b, false
}

// regionForms holds each region's object in a v2 classify answer, as
// the daemon writes it.
var regionForms = func() (forms [8]string) {
	for r := range forms {
		forms[r] = string(wire.AppendRegion(nil, shbf.Region(r), true))
	}
	return forms
}()

// cutPrefix is bytes.CutPrefix for a string prefix, which it compares
// without converting it to a byte slice.
func cutPrefix(b []byte, prefix string) ([]byte, bool) {
	if len(b) < len(prefix) || string(b[:len(prefix)]) != prefix {
		return b, false
	}
	return b[len(prefix):], true
}

// closes reports whether b is end followed by JSON whitespace only.
func closes(b []byte, end string) bool {
	rest, ok := cutPrefix(b, end)
	for _, c := range rest {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return false
		}
	}
	return ok
}

// cutUint consumes a JSON integer of at most 18 digits with no sign and
// no leading zero, which every integer type decodes exactly.
func cutUint(b []byte) (uint64, []byte, bool) {
	var v uint64
	i := 0
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		v = v*10 + uint64(b[i]-'0')
	}
	if i == 0 || i > 18 || (i > 1 && b[0] == '0') {
		return 0, b, false
	}
	return v, b[i:], true
}

// decodeAnswerJSON decodes a success answer with encoding/json into the
// shape's answer fields, the path of every answer outside the daemon's
// own bytes and of the control-plane answers.
func decodeAnswerJSON(shape wire.AnswerShape, data []byte, op byte, resp *wire.Response) error {
	var err error
	switch shape {
	case wire.AnswerRaw:
		resp.Blob = append([]byte(nil), data...)
	case wire.AnswerJSON:
		var raw json.RawMessage
		err = json.Unmarshal(data, &raw)
		resp.Blob = raw
	case wire.AnswerAdded:
		var body struct {
			Added uint64 `json:"added"`
		}
		err = json.Unmarshal(data, &body)
		resp.Applied = body.Added
	case wire.AnswerApplied:
		var body struct {
			Applied uint64 `json:"applied"`
		}
		err = json.Unmarshal(data, &body)
		resp.Applied = body.Applied
	case wire.AnswerMerged:
		var body struct {
			MergedN uint64 `json:"merged_n"`
		}
		err = json.Unmarshal(data, &body)
		resp.Applied = body.MergedN
	case wire.AnswerResults:
		var body struct {
			Results []bool `json:"results"`
		}
		err = json.Unmarshal(data, &body)
		resp.Bools = body.Results
	case wire.AnswerCounts:
		var body struct {
			Counts []int `json:"counts"`
		}
		err = json.Unmarshal(data, &body)
		resp.Counts = body.Counts
	case wire.AnswerRotate:
		var body struct {
			Rotated []string `json:"rotated"`
			Epoch   uint64   `json:"epoch"`
		}
		err = json.Unmarshal(data, &body)
		resp.Rotated, resp.Epoch = body.Rotated, body.Epoch
	case wire.AnswerRegions:
		var body struct {
			Results []struct {
				Mask *uint8 `json:"mask"`
			} `json:"results"`
		}
		if err = json.Unmarshal(data, &body); err != nil {
			break
		}
		resp.Regions = make([]byte, len(body.Results))
		for i, r := range body.Results {
			if r.Mask == nil {
				return fmt.Errorf("client: classify result %d has no mask (daemon too old for the v2 API?)", i)
			}
			resp.Regions[i] = *r.Mask
		}
	}
	if err != nil {
		return fmt.Errorf("client: decoding %s response: %w", wire.OpName(op), err)
	}
	return nil
}
