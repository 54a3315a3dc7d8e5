//go:build !race

package client_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"shbf/client"
)

// cannedDaemon is an http.RoundTripper that answers every data-plane
// route with a fixed success body, as the daemon writes it, with no
// daemon and no sockets. It reads and closes each request body, as a
// transport must.
type cannedDaemon map[string][]byte

func (d cannedDaemon) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}
	ans, ok := d[r.URL.Path]
	if !ok {
		return nil, fmt.Errorf("no canned answer for %s", r.URL.Path)
	}
	return &http.Response{StatusCode: 200, Body: io.NopCloser(bytes.NewReader(ans)),
		ContentLength: int64(len(ans)), Request: r}, nil
}

// TestHTTPDataPlaneAllocs pins the HTTP client's allocations per
// 16-key data-plane call, net/http's client and the stub's own
// included, at most 30.
func TestHTTPDataPlaneAllocs(t *testing.T) {
	const n = 16
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("flow-id-%05d", i)) // 13 bytes, as a 5-tuple
	}
	list := func(elem string) string { return strings.TrimSuffix(strings.Repeat(elem+",", n), ",") }
	region := `{"region":"S1∩S2","candidates":["both"],"clear":true,"in_s1":true,"in_s2":true,"mask":2}`
	const ns = "/v2/namespaces/default"
	c, err := client.DialHTTP("http://canned", &http.Client{Transport: cannedDaemon{
		ns + "/membership/add":       []byte(`{"added":16}` + "\n"),
		ns + "/membership/contains":  []byte(`{"results":[` + list("true") + "]}\n"),
		ns + "/multiplicity/add":     []byte(`{"applied":16}` + "\n"),
		ns + "/multiplicity/count":   []byte(`{"counts":[` + list("3") + "]}\n"),
		ns + "/association/classify": []byte(`{"results":[` + list(region) + "]}\n"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h := c.Namespace("")
	set, counter, assoc := h.Set(), h.Counter(), h.Associator()
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"Set.Check", func() error { _, err := set.Check(keys); return err }},
		{"Counter.Counts", func() error { _, err := counter.Counts(keys); return err }},
		{"Associator.Classify", func() error { _, err := assoc.Classify(keys); return err }},
		{"Set.AddAll", func() error { return set.AddAll(keys) }},
		{"Counter.AddAll", func() error { return counter.AddAll(keys) }},
	} {
		if err := tc.call(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := tc.call(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per 16-key call", tc.name, allocs)
		if allocs > 30 {
			t.Errorf("%s: %.0f allocs per 16-key call, above 30", tc.name, allocs)
		}
	}
}
