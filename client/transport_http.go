package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"

	"shbf/internal/server"
	"shbf/internal/wire"
)

// httpTransport maps the wire ops onto the daemon's /v2 HTTP/JSON API
// through the route table the daemon registers its routes from
// (wire.RouteOf): one lookup gives an op's method, path, request body
// and answer. The data-plane bodies and answers go through the hand
// codec (httpcodec.go) in pooled buffers. Keys travel base64-encoded,
// the encode and decode cost the binary transport exists to avoid, so
// this transport is for proxies and ops tooling, not the serving hot
// path.
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

// url builds the route's URL, with the namespace URL-escaped into a
// tenant route's {ns} segment.
func (t *httpTransport) url(path, ns string) string {
	before, after, tenant := strings.Cut(path, "{ns}")
	if !tenant {
		return t.base + path
	}
	if ns == "" {
		ns = server.DefaultNamespace
	}
	return t.base + before + url.PathEscape(ns) + after
}

func (t *httpTransport) roundTrip(ctx context.Context, req *wire.Request, resp *wire.Response) error {
	*resp = wire.Response{Status: wire.StatusOK, Op: req.Op}
	rt, ok := wire.RouteOf(req.Op)
	if !ok {
		return fmt.Errorf("client: op %s has no HTTP mapping", wire.OpName(req.Op))
	}
	x := exchanges.Get().(*exchange)
	defer x.release()
	var (
		body        []byte
		contentType = "application/json"
		err         error
	)
	switch rt.Body {
	case wire.BodyNone:
		contentType = ""
	case wire.BodyJSON:
		body = req.Blob
	case wire.BodyRaw:
		body, contentType = req.Blob, "application/octet-stream"
	default:
		if x.out, err = appendBody(x.out[:0], rt.Body, req); err != nil {
			return err
		}
		// The transport may read a request body after the answer has
		// arrived, so it gets a copy rather than the pooled buffer.
		body = bytes.Clone(x.out)
	}
	data, err := x.do(ctx, t.hc, req, resp, rt.Method, t.url(rt.Path, req.Namespace), contentType, body)
	if err != nil || resp.Status != wire.StatusOK {
		return err
	}
	return decodeAnswer(rt.Answer, data, req, resp)
}

// exchange is one round trip's buffers, pooled across calls: a
// data-plane request body as it is encoded, and the answer.
type exchange struct {
	out, in []byte
}

var exchanges = sync.Pool{New: func() any { return new(exchange) }}

// maxPooledExchange bounds the buffers a pooled exchange keeps, so a
// rare huge batch or envelope is left to the GC instead of pinning
// its buffers.
const maxPooledExchange = 1 << 20

// release returns x to the pool; nothing read from x may be used
// afterwards.
func (x *exchange) release() {
	if cap(x.out) <= maxPooledExchange && cap(x.in) <= maxPooledExchange {
		exchanges.Put(x)
	}
}

// do runs one HTTP exchange and returns the answer's bytes, which live
// in x, mapping HTTP failure statuses onto the wire status codes so
// both transports report identically.
func (x *exchange) do(ctx context.Context, hc *http.Client, req *wire.Request, resp *wire.Response, method, target, contentType string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, target, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		hreq.Header.Set("Content-Type", contentType)
	}
	hresp, err := hc.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("client: %s: %w", wire.OpName(req.Op), err)
	}
	defer hresp.Body.Close()
	x.in, err = readAnswer(x.in[:0], hresp.Body)
	if err != nil {
		return nil, fmt.Errorf("client: reading %s response: %w", wire.OpName(req.Op), err)
	}
	data := x.in
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

// readAnswer appends an answer body to dst, at most one byte more than
// wire.MaxFrame, so an oversized answer is seen without being held.
func readAnswer(dst []byte, r io.Reader) ([]byte, error) {
	for len(dst) <= wire.MaxFrame {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, 512)
		}
		n, err := r.Read(dst[len(dst):min(cap(dst), wire.MaxFrame+1)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}
