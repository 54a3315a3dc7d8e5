package server_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"shbf/client"
	"shbf/internal/server"
	"shbf/internal/wire"
)

// bodyRecorder serves requests from an in-process handler and records
// each request body by URL path.
type bodyRecorder struct {
	h      http.Handler
	bodies map[string][]byte
}

func (rt *bodyRecorder) RoundTrip(r *http.Request) (*http.Response, error) {
	var body []byte
	if r.Body != nil {
		var err error
		if body, err = io.ReadAll(r.Body); err != nil {
			return nil, err
		}
		r.Body.Close()
	}
	rt.bodies[r.URL.Path] = body
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(r.Method, r.URL.RequestURI(), bytes.NewReader(body))
	req.Header = r.Header.Clone()
	rt.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// TestClientBodiesTakeFastPath: every data-plane body the shipped HTTP
// client sends lies in the codec's canonical subset, so client traffic,
// the benchmark's included, never takes the encoding/json fallback.
func TestClientBodiesTakeFastPath(t *testing.T) {
	cfg := server.DefaultConfig()
	cfg.MembershipBits, cfg.AssociationBits, cfg.MultiplicityBits, cfg.Shards = 1<<16, 1<<16, 1<<17, 4
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &bodyRecorder{h: srv.Handler(), bodies: map[string][]byte{}}
	c, err := client.DialHTTP("http://in-process", &http.Client{Transport: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// 13-byte keys over every byte value: quotes, backslashes, control
	// bytes and bytes that are not UTF-8 included.
	keys := make([][]byte, 20)
	for i := range keys {
		keys[i] = make([]byte, 13)
		for j := range keys[i] {
			keys[i][j] = byte(i*13 + j)
		}
	}
	ns := c.Namespace("")
	set, assoc, counter := ns.Set(), ns.Associator(), ns.Counter()
	for _, st := range []struct {
		route string
		shape wire.BodyShape
		run   func() error
	}{
		{"/membership/add", wire.BodyKeys, func() error { return set.AddAll(keys) }},
		{"/membership/contains", wire.BodyKeys, func() error { _, err := set.Check(keys); return err }},
		{"/association/add", wire.BodySet, func() error { return assoc.InsertAll(1, keys) }},
		{"/association/add", wire.BodySet, func() error { return assoc.InsertAll(2, keys[:5]) }},
		{"/association/remove", wire.BodySet, func() error { return assoc.DeleteAll(1, keys[:3]) }},
		{"/association/classify", wire.BodyKeys, func() error { _, err := assoc.Classify(keys); return err }},
		{"/multiplicity/add", wire.BodyItems, func() error { return counter.AddAll(keys) }},
		{"/multiplicity/add", wire.BodyItems, func() error { return counter.InsertCount(keys[0], 3) }},
		{"/multiplicity/remove", wire.BodyItems, func() error { return counter.Delete(keys[0]) }},
		{"/multiplicity/count", wire.BodyKeys, func() error { _, err := counter.Counts(keys); return err }},
	} {
		if err := st.run(); err != nil {
			t.Fatalf("%s: %v", st.route, err)
		}
		body, ok := rec.bodies["/v2/namespaces/default"+st.route]
		if !ok {
			t.Fatalf("%s: no request recorded", st.route)
		}
		delete(rec.bodies, "/v2/namespaces/default"+st.route)
		if !server.ParsesCanonical(st.shape, body) {
			t.Errorf("%s: the client's body %s falls back to encoding/json", st.route, body)
		}
	}
}
