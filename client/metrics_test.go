package client_test

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"shbf/client"
)

// parseScrape splits a Prometheus text scrape into exact series→value,
// failing on malformed or duplicate lines.
func parseScrape(t *testing.T, text string) map[string]float64 {
	t.Helper()
	series := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		if _, dup := series[line[:i]]; dup {
			t.Fatalf("duplicate series %q", line[:i])
		}
		series[line[:i]] = v
	}
	return series
}

// sumSeriesPrefix totals every series of one family in a raw scrape,
// without *testing.T (safe inside soak goroutines).
func sumSeriesPrefix(scrape []byte, prefix string) (float64, error) {
	var sum float64
	for _, line := range strings.Split(string(scrape), "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return 0, fmt.Errorf("malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return 0, fmt.Errorf("sample %q: %w", line, err)
		}
		sum += v
	}
	return sum, nil
}

// metricsScript drives a fixed op mix — successes, a conflict, a
// rate-quota shed, a rotation, a freeze — through one client, so the
// exactness test can pin every resulting counter value per transport.
func metricsScript(t *testing.T, c *client.Client) {
	t.Helper()
	gens := 2
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateNamespace(client.NamespaceConfig{Name: "w", WindowGenerations: &gens}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateNamespace(client.NamespaceConfig{Name: "q", RatePerSec: 1, RateBurst: 1}); err != nil {
		t.Fatal(err)
	}
	w := c.Namespace("w")
	set := w.Set()
	keys := make([][]byte, 5)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("metrics-key-%d", i))
	}
	if err := set.AddAll(keys); err != nil {
		t.Fatal(err)
	}
	if _, err := set.Check(keys[:3]); err != nil {
		t.Fatal(err)
	}
	assoc := w.Associator()
	if err := assoc.InsertAll(1, keys[:2]); err != nil {
		t.Fatal(err)
	}
	if _, err := assoc.Classify(keys[:2]); err != nil {
		t.Fatal(err)
	}
	cnt := w.Counter()
	if err := cnt.InsertCount(keys[0], 1); err != nil {
		t.Fatal(err)
	}
	if err := cnt.InsertCount(keys[1], 3); err != nil {
		t.Fatal(err)
	}
	if _, err := cnt.Counts(keys[:2]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Namespace("").Rotate(); !client.IsConflict(err) {
		t.Fatalf("rotate on classic namespace: %v", err)
	}
	// A 1 keys/s, burst-1 quota always sheds a write (it needs a
	// quarter-bucket reserve on top of its own token), so the 429 is
	// deterministic.
	if err := c.Namespace("q").Set().AddAll(keys[:1]); !client.IsOverloaded(err) {
		t.Fatalf("rate-limited write: %v", err)
	}
	if _, err := w.Freeze(); err != nil {
		t.Fatal(err)
	}
	if err := set.AddAll(keys[:1]); !client.IsConflict(err) {
		t.Fatalf("write to frozen namespace: %v", err)
	}
}

// metricsScriptWant is the exact counter state metricsScript leaves
// behind, keyed by series. pingOp is the transport's liveness op label
// ("ping" over ShBP, "healthz" over HTTP).
func metricsScriptWant(transport, pingOp string) map[string]float64 {
	want := map[string]float64{}
	req := func(op, status string, v float64) {
		want[fmt.Sprintf("shbf_requests_total{transport=%q,op=%q,status=%q}", transport, op, status)] = v
	}
	req(pingOp, "ok", 1)
	req("namespace-create", "ok", 2)
	req("membership-add", "ok", 1)
	req("membership-add", "conflict", 1)
	req("membership-add", "overloaded", 1)
	req("membership-add", "not-found", 0)
	req("membership-contains", "ok", 1)
	req("association-add", "ok", 1)
	req("association-query", "ok", 1)
	req("multiplicity-add", "ok", 2)
	req("multiplicity-count", "ok", 1)
	req("rotate", "ok", 1)
	req("rotate", "conflict", 1)
	req("freeze", "ok", 1)
	req("stats", "ok", 0) // registered but never driven

	want[fmt.Sprintf("shbf_request_duration_seconds_count{transport=%q,op=%q}", transport, "membership-add")] = 3
	want[fmt.Sprintf("shbf_request_duration_seconds_count{transport=%q,op=%q}", transport, "rotate")] = 2

	nsKeys := func(ns, op string, v float64) {
		want[fmt.Sprintf("shbf_namespace_keys_total{namespace=%q,op=%q}", ns, op)] = v
	}
	nsKeys("w", "membership_add", 5)
	nsKeys("w", "membership_contains", 3)
	nsKeys("w", "association_update", 2)
	nsKeys("w", "association_query", 2)
	nsKeys("w", "multiplicity_update", 4) // counts 1+3, not 2 keys
	nsKeys("w", "multiplicity_query", 2)
	nsKeys("q", "membership_add", 0) // the shed write applied nothing

	want[`shbf_namespace_shed_total{namespace="q",reason="rate"}`] = 1
	want[`shbf_namespace_shed_total{namespace="w",reason="rate"}`] = 0
	want[`shbf_namespace_shed_total{namespace="default",reason="rate"}`] = 0
	want[`shbf_namespace_rotations_total{namespace="w"}`] = 1
	want[`shbf_namespace_rotations_total{namespace="default"}`] = 0
	want[`shbf_namespace_rotation_epoch{namespace="w"}`] = 1
	want[`shbf_namespace_frozen{namespace="w"}`] = 1
	want[`shbf_namespace_frozen{namespace="default"}`] = 0
	want[`shbf_namespaces`] = 3
	return want
}

// TestMetricsExactness drives the scripted mix over each transport
// against a fresh daemon and asserts the resulting counters
// byte-exactly — not approximately, not monotonic: exact.
func TestMetricsExactness(t *testing.T) {
	cases := []struct {
		transport, pingOp string
	}{
		{"shbp", "ping"},
		{"http", "healthz"},
	}
	for _, tc := range cases {
		t.Run(tc.transport, func(t *testing.T) {
			d := startDaemon(t, testConfig())
			c := d.clients(t)[tc.transport]
			metricsScript(t, c)
			scrape, err := c.Metrics()
			if err != nil {
				t.Fatal(err)
			}
			series := parseScrape(t, string(scrape))
			for key, want := range metricsScriptWant(tc.transport, tc.pingOp) {
				got, ok := series[key]
				if !ok {
					t.Errorf("series %s missing from the scrape", key)
					continue
				}
				if got != want {
					t.Errorf("%s = %v, want exactly %v", key, got, want)
				}
			}
			// Nothing leaked onto the other transport's counters.
			other := "http"
			if tc.transport == "http" {
				other = "shbp"
			}
			prefix := fmt.Sprintf("shbf_requests_total{transport=%q", other)
			for key, v := range series {
				if strings.HasPrefix(key, prefix) && v != 0 {
					t.Errorf("%s = %v; the %s mix must not count on the %s transport", key, v, tc.transport, other)
				}
			}
		})
	}
}

// TestMidBatchRefusalCountsApplied: an update batch refused midway
// keeps its applied prefix, so shbf_namespace_keys_total must count
// that prefix, the same number the answer reports as applied: a
// multiplicity add past MaxCount and an association remove that
// reaches an absent key, over each transport.
func TestMidBatchRefusalCountsApplied(t *testing.T) {
	for _, transport := range []string{"shbp", "http"} {
		t.Run(transport, func(t *testing.T) {
			d := startDaemon(t, testConfig())
			c := d.clients(t)[transport]
			ns := c.Namespace("")
			counter := func(op string) float64 {
				t.Helper()
				scrape, err := c.Metrics()
				if err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("shbf_namespace_keys_total{namespace=%q,op=%q}", "default", op)
				v, ok := parseScrape(t, string(scrape))[key]
				if !ok {
					t.Fatalf("series %s missing from the scrape", key)
				}
				return v
			}
			applied := func(err error) float64 {
				t.Helper()
				var apiErr *client.Error
				if !client.IsConflict(err) || !asError(err, &apiErr) {
					t.Fatalf("want a mid-batch conflict, got %v", err)
				}
				return float64(apiErr.Applied)
			}

			// MaxCount is 16: 16 of the 20 increments apply.
			err := ns.Counter().InsertCount([]byte("big"), 20)
			if got, want := counter("multiplicity_update"), applied(err); got != want || want != 16 {
				t.Fatalf("multiplicity_update = %v after a refusal that applied %v, want both 16", got, want)
			}

			assoc := ns.Associator()
			present := []byte("present")
			if err := assoc.InsertAll(1, [][]byte{present}); err != nil {
				t.Fatal(err)
			}
			before := counter("association_update")
			err = assoc.DeleteAll(1, [][]byte{present, []byte("absent")})
			if got, want := counter("association_update")-before, applied(err); got != want || want != 1 {
				t.Fatalf("association_update rose by %v after a refusal that applied %v, want both 1", got, want)
			}
		})
	}
}

// TestMetricsTransportByteIdentity: after identical traffic, the ShBP
// metrics op and GET /metrics serve the same bytes — the acceptance
// contract that lets one dashboard scrape either port.
func TestMetricsTransportByteIdentity(t *testing.T) {
	d := startDaemon(t, testConfig())
	cs := d.clients(t)
	keys := make([][]byte, 32)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("identity-%d", i))
	}
	for _, c := range []*client.Client{cs["shbp"], cs["http"]} {
		set := c.Namespace("").Set()
		if err := set.AddAll(keys); err != nil {
			t.Fatal(err)
		}
		if _, err := set.Check(keys); err != nil {
			t.Fatal(err)
		}
	}
	viaShBP, err := cs["shbp"].Metrics()
	if err != nil {
		t.Fatal(err)
	}
	viaHTTP, err := cs["http"].Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaShBP, viaHTTP) {
		t.Fatalf("scrapes diverge between transports:\nshbp %d bytes, http %d bytes",
			len(viaShBP), len(viaHTTP))
	}
	again, err := cs["shbp"].Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaShBP, again) {
		t.Fatal("a scrape changed the next scrape's bytes")
	}
}

// TestMetricsScrapeRaceSoak scrapes both transports continuously while
// writers, a rotator and namespace CRUD (including freezes) hammer the
// daemon — the -race check that scrape-time collectors read live state
// safely — and asserts the summed request counter never goes backward.
func TestMetricsScrapeRaceSoak(t *testing.T) {
	d := startDaemon(t, testConfig())
	cs := d.clients(t)
	gens := 2
	if err := cs["shbp"].CreateNamespace(client.NamespaceConfig{Name: "soak-win", WindowGenerations: &gens}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var load, scrapers sync.WaitGroup

	load.Add(1)
	go func() { // writer: membership churn on two namespaces
		defer load.Done()
		set := cs["shbp"].Namespace("").Set()
		win := cs["shbp"].Namespace("soak-win").Set()
		for i := 0; i < 150; i++ {
			batch := make([][]byte, 8)
			for j := range batch {
				batch[j] = []byte(fmt.Sprintf("soak-%d-%d", i, j))
			}
			if err := set.AddAll(batch); err != nil {
				t.Error(err)
				return
			}
			_ = win.AddAll(batch) // may conflict with a concurrent freeze; the soak only needs traffic
			if _, err := set.Check(batch); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	load.Add(1)
	go func() { // rotator
		defer load.Done()
		ns := cs["http"].Namespace("soak-win")
		for i := 0; i < 80; i++ {
			_, _, _ = ns.Rotate() // conflicts with a concurrent freeze are fine
			time.Sleep(time.Millisecond)
		}
	}()

	load.Add(1)
	go func() { // namespace CRUD with freezes
		defer load.Done()
		c := cs["http"]
		for i := 0; i < 30; i++ {
			name := fmt.Sprintf("soak-tmp-%d", i)
			if err := c.CreateNamespace(client.NamespaceConfig{Name: name}); err != nil {
				t.Error(err)
				return
			}
			ns := c.Namespace(name)
			if err := ns.Set().AddAll([][]byte{[]byte(name)}); err != nil {
				t.Error(err)
				return
			}
			if _, err := ns.Freeze(); err != nil {
				t.Error(err)
				return
			}
			if err := c.DeleteNamespace(name); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for transport, c := range cs {
		scrapers.Add(1)
		go func(transport string, c *client.Client) { // scraper
			defer scrapers.Done()
			last := -1.0
			for {
				select {
				case <-stop:
					return
				default:
				}
				scrape, err := c.Metrics()
				if err != nil {
					t.Errorf("%s scrape: %v", transport, err)
					return
				}
				sum, err := sumSeriesPrefix(scrape, "shbf_requests_total{")
				if err != nil {
					t.Errorf("%s scrape: %v", transport, err)
					return
				}
				if sum < last {
					t.Errorf("%s scrape went backward: %v after %v", transport, sum, last)
					return
				}
				last = sum
			}
		}(transport, c)
	}

	// The load goroutines bound their own iteration counts; scrapers
	// run until the load is done, so every scrape races live mutation.
	load.Wait()
	close(stop)
	scrapers.Wait()
}

// TestClientStatsCounting pins the client-side counters: a
// deterministically shed write under a retry policy yields exact
// request/error/retry counts, shared across derived handles.
func TestClientStatsCounting(t *testing.T) {
	d := startDaemon(t, testConfig())
	c := d.clients(t)["shbp"]
	if err := c.CreateNamespace(client.NamespaceConfig{Name: "rl", RatePerSec: 1, RateBurst: 1}); err != nil {
		t.Fatal(err)
	}
	base := c.Stats()
	if base.Requests != 1 || base.Errors != 0 || base.Retries != 0 {
		t.Fatalf("after one create: %+v", base)
	}

	rc := c.WithRetry(client.RetryPolicy{
		MaxRetries: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond,
	})
	err := rc.Namespace("rl").Set().AddAll([][]byte{[]byte("shed-me")})
	if !client.IsOverloaded(err) {
		t.Fatalf("rate-limited write: %v", err)
	}
	st := c.Stats()
	if st.Requests != base.Requests+3 { // 1 try + 2 retries
		t.Errorf("Requests = %d, want %d", st.Requests, base.Requests+3)
	}
	if st.Errors != 3 {
		t.Errorf("Errors = %d, want 3", st.Errors)
	}
	if st.Retries != 2 {
		t.Errorf("Retries = %d, want 2", st.Retries)
	}
	// Derived handles share the dialed client's counters.
	if got := rc.Stats(); got != st {
		t.Errorf("derived handle stats %+v != dialed client stats %+v", got, st)
	}

	// Non-retryable daemon answers count one error and no retries.
	if err := rc.Namespace("absent").Set().AddAll([][]byte{[]byte("x")}); !client.IsNotFound(err) {
		t.Fatalf("write to unknown namespace: %v", err)
	}
	st2 := c.Stats()
	if st2.Requests != st.Requests+1 || st2.Errors != st.Errors+1 || st2.Retries != st.Retries {
		t.Errorf("after not-found: %+v, want +1 request, +1 error, +0 retries over %+v", st2, st)
	}
}
