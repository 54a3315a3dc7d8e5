package client

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"shbf/internal/wire"
)

// httpTransport maps the wire ops onto the daemon's /v2 HTTP/JSON API.
// Keys travel base64-encoded (element IDs are arbitrary bytes), which
// is exactly the decode overhead the binary transport exists to avoid
// — this transport is for convenience and ops tooling, not the serving
// hot path.
type httpTransport struct {
	base string
	hc   *http.Client
}

func newHTTPTransport(base string, hc *http.Client) *httpTransport {
	if hc == nil {
		hc = &http.Client{}
	}
	return &httpTransport{base: strings.TrimSuffix(base, "/"), hc: hc}
}

func (t *httpTransport) close() error {
	t.hc.CloseIdleConnections()
	return nil
}

// encodeKeys maps binary keys to the JSON API's base64 form.
func encodeKeys(keys [][]byte) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = base64.StdEncoding.EncodeToString(k)
	}
	return out
}

// nsPath builds /v2/namespaces/{ns}{suffix} with the namespace
// URL-escaped.
func (t *httpTransport) nsPath(ns, suffix string) string {
	if ns == "" {
		ns = "default"
	}
	return t.base + "/v2/namespaces/" + url.PathEscape(ns) + suffix
}

func (t *httpTransport) roundTrip(ctx context.Context, req *wire.Request, resp *wire.Response) error {
	*resp = wire.Response{Status: wire.StatusOK, Op: req.Op}
	switch req.Op {
	case wire.OpPing:
		return t.get(ctx, req, resp, t.base+"/healthz", nil)

	case wire.OpStats:
		var raw json.RawMessage
		if err := t.get(ctx, req, resp, t.nsPath(req.Namespace, "/stats"), &raw); err != nil || resp.Status != wire.StatusOK {
			return err
		}
		resp.Blob = raw
		return nil

	case wire.OpNamespaceList:
		var raw json.RawMessage
		if err := t.get(ctx, req, resp, t.base+"/v2/namespaces", &raw); err != nil || resp.Status != wire.StatusOK {
			return err
		}
		resp.Blob = raw
		return nil

	case wire.OpNamespaceCreate:
		return t.post(ctx, req, resp, t.base+"/v2/namespaces", json.RawMessage(req.Blob), nil)

	case wire.OpNamespaceDelete:
		return t.doJSON(ctx, req, resp, http.MethodDelete, t.nsPath(req.Namespace, ""), nil, nil)

	case wire.OpRotate:
		var body struct {
			Rotated []string `json:"rotated"`
			Epoch   uint64   `json:"epoch"`
		}
		if err := t.post(ctx, req, resp, t.nsPath(req.Namespace, "/rotate"), struct{}{}, &body); err != nil || resp.Status != wire.StatusOK {
			return err
		}
		resp.Rotated, resp.Epoch = body.Rotated, body.Epoch
		return nil

	case wire.OpMembershipAdd:
		var body struct {
			Added uint64 `json:"added"`
		}
		payload := map[string]any{"keys": encodeKeys(req.Keys), "encoding": "base64"}
		if err := t.post(ctx, req, resp, t.nsPath(req.Namespace, "/membership/add"), payload, &body); err != nil || resp.Status != wire.StatusOK {
			return err
		}
		resp.Applied = body.Added
		return nil

	case wire.OpMembershipContains:
		var body struct {
			Results []bool `json:"results"`
		}
		payload := map[string]any{"keys": encodeKeys(req.Keys), "encoding": "base64"}
		if err := t.post(ctx, req, resp, t.nsPath(req.Namespace, "/membership/contains"), payload, &body); err != nil || resp.Status != wire.StatusOK {
			return err
		}
		resp.Bools = body.Results
		return nil

	case wire.OpAssociationAdd, wire.OpAssociationRemove:
		var body struct {
			Applied uint64 `json:"applied"`
		}
		suffix := "/association/add"
		if req.Op == wire.OpAssociationRemove {
			suffix = "/association/remove"
		}
		payload := map[string]any{"set": int(req.Set), "keys": encodeKeys(req.Keys), "encoding": "base64"}
		if err := t.post(ctx, req, resp, t.nsPath(req.Namespace, suffix), payload, &body); err != nil || resp.Status != wire.StatusOK {
			return err
		}
		resp.Applied = body.Applied
		return nil

	case wire.OpAssociationQuery:
		var body struct {
			Results []struct {
				Mask *uint8 `json:"mask"`
			} `json:"results"`
		}
		payload := map[string]any{"keys": encodeKeys(req.Keys), "encoding": "base64"}
		if err := t.post(ctx, req, resp, t.nsPath(req.Namespace, "/association/classify"), payload, &body); err != nil || resp.Status != wire.StatusOK {
			return err
		}
		resp.Regions = make([]byte, len(body.Results))
		for i, r := range body.Results {
			if r.Mask == nil {
				return fmt.Errorf("client: classify result %d has no mask (daemon too old for the v2 API?)", i)
			}
			resp.Regions[i] = *r.Mask
		}
		return nil

	case wire.OpMultiplicityAdd, wire.OpMultiplicityRemove:
		var body struct {
			Applied uint64 `json:"applied"`
		}
		suffix := "/multiplicity/add"
		if req.Op == wire.OpMultiplicityRemove {
			suffix = "/multiplicity/remove"
		}
		items := make([]map[string]any, 0, len(req.Keys))
		for i, k := range req.Keys {
			count := 1
			if len(req.Counts) != 0 {
				count = req.Counts[i]
			}
			if count == 0 {
				continue // wire semantics: zero count applies nothing
			}
			items = append(items, map[string]any{
				"key":   base64.StdEncoding.EncodeToString(k),
				"count": count,
			})
		}
		payload := map[string]any{"items": items, "encoding": "base64"}
		if err := t.post(ctx, req, resp, t.nsPath(req.Namespace, suffix), payload, &body); err != nil || resp.Status != wire.StatusOK {
			return err
		}
		resp.Applied = body.Applied
		return nil

	case wire.OpMultiplicityCount:
		var body struct {
			Counts []int `json:"counts"`
		}
		payload := map[string]any{"keys": encodeKeys(req.Keys), "encoding": "base64"}
		if err := t.post(ctx, req, resp, t.nsPath(req.Namespace, "/multiplicity/count"), payload, &body); err != nil || resp.Status != wire.StatusOK {
			return err
		}
		resp.Counts = body.Counts
		return nil

	case wire.OpMetrics:
		// The scrape is Prometheus text, not JSON.
		data, err := t.doRaw(ctx, req, resp, http.MethodGet, t.base+"/metrics", "", nil)
		if err != nil || resp.Status != wire.StatusOK {
			return err
		}
		resp.Blob = data
		return nil

	case wire.OpClusterMap:
		var raw json.RawMessage
		if err := t.get(ctx, req, resp, t.base+"/v2/cluster", &raw); err != nil || resp.Status != wire.StatusOK {
			return err
		}
		resp.Blob = raw
		return nil

	case wire.OpMembershipDump:
		// The envelope endpoint serves raw ShBE bytes, not JSON.
		data, err := t.doRaw(ctx, req, resp, http.MethodGet, t.nsPath(req.Namespace, "/membership/envelope"), "", nil)
		if err != nil || resp.Status != wire.StatusOK {
			return err
		}
		resp.Blob = data
		return nil

	case wire.OpFreeze:
		// The freeze endpoint serves raw ShBZ bytes, not JSON.
		data, err := t.doRaw(ctx, req, resp, http.MethodPost, t.nsPath(req.Namespace, "/freeze"), "", nil)
		if err != nil || resp.Status != wire.StatusOK {
			return err
		}
		resp.Blob = data
		return nil

	case wire.OpMembershipMerge:
		// The merge body is a raw ShBE envelope; the reply is JSON.
		data, err := t.doRaw(ctx, req, resp, http.MethodPost, t.nsPath(req.Namespace, "/merge"), "application/octet-stream", req.Blob)
		if err != nil || resp.Status != wire.StatusOK {
			return err
		}
		var body struct {
			MergedN uint64 `json:"merged_n"`
		}
		if err := json.Unmarshal(data, &body); err != nil {
			return fmt.Errorf("client: decoding merge response: %w", err)
		}
		resp.Applied = body.MergedN
		return nil

	case wire.OpMultiplicityDump:
		// The envelope endpoint serves raw ShBE bytes, not JSON.
		data, err := t.doRaw(ctx, req, resp, http.MethodGet, t.nsPath(req.Namespace, "/multiplicity/envelope"), "", nil)
		if err != nil || resp.Status != wire.StatusOK {
			return err
		}
		resp.Blob = data
		return nil

	case wire.OpMultiplicityMerge:
		// The merge body is a raw ShBE envelope; the reply is JSON.
		data, err := t.doRaw(ctx, req, resp, http.MethodPost, t.nsPath(req.Namespace, "/multiplicity/merge"), "application/octet-stream", req.Blob)
		if err != nil || resp.Status != wire.StatusOK {
			return err
		}
		var body struct {
			MergedN uint64 `json:"merged_n"`
		}
		if err := json.Unmarshal(data, &body); err != nil {
			return fmt.Errorf("client: decoding merge response: %w", err)
		}
		resp.Applied = body.MergedN
		return nil
	}
	return fmt.Errorf("client: op %s has no HTTP mapping", wire.OpName(req.Op))
}

func (t *httpTransport) get(ctx context.Context, req *wire.Request, resp *wire.Response, url string, out any) error {
	return t.doJSON(ctx, req, resp, http.MethodGet, url, nil, out)
}

func (t *httpTransport) post(ctx context.Context, req *wire.Request, resp *wire.Response, url string, payload, out any) error {
	return t.doJSON(ctx, req, resp, http.MethodPost, url, payload, out)
}

// doJSON runs one JSON HTTP exchange over doRaw, decoding the success
// body into out.
func (t *httpTransport) doJSON(ctx context.Context, req *wire.Request, resp *wire.Response, method, url string, payload, out any) error {
	var body []byte
	contentType := ""
	if payload != nil {
		b, err := json.Marshal(payload)
		if err != nil {
			return fmt.Errorf("client: encoding %s request: %w", wire.OpName(req.Op), err)
		}
		body, contentType = b, "application/json"
	}
	data, err := t.doRaw(ctx, req, resp, method, url, contentType, body)
	if err != nil || resp.Status != wire.StatusOK {
		return err
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("client: decoding %s response: %w", wire.OpName(req.Op), err)
		}
	}
	return nil
}

// doRaw runs one HTTP exchange with an arbitrary request body and
// returns the raw response body, mapping HTTP failure statuses onto
// the wire status codes so both transports report identically.
func (t *httpTransport) doRaw(ctx context.Context, req *wire.Request, resp *wire.Response, method, url, contentType string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		hreq.Header.Set("Content-Type", contentType)
	}
	hresp, err := t.hc.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("client: %s: %w", wire.OpName(req.Op), err)
	}
	defer hresp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(hresp.Body, wire.MaxFrame+1))
	if err != nil {
		return nil, fmt.Errorf("client: reading %s response: %w", wire.OpName(req.Op), err)
	}
	if len(data) > wire.MaxFrame {
		// The ShBP listener refuses such an answer in band; report it
		// the same way rather than return a truncated body.
		resp.Status, resp.Msg = wire.StatusConflict, wire.OversizeMsg(req.Op)
		return nil, nil
	}
	if hresp.StatusCode >= 400 {
		var e struct {
			Error   string `json:"error"`
			Applied uint64 `json:"applied"`
		}
		if json.Unmarshal(data, &e) != nil || e.Error == "" {
			e.Error = fmt.Sprintf("HTTP %d: %s", hresp.StatusCode, bytes.TrimSpace(data))
		}
		resp.Status = wire.StatusOfHTTP(hresp.StatusCode)
		resp.Msg = e.Error
		resp.Applied = e.Applied
		return nil, nil
	}
	return data, nil
}
