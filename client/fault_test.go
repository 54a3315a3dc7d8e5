package client_test

import (
	"context"
	"errors"
	"net/url"
	"testing"
	"time"

	"shbf/client"
	"shbf/internal/clustertest"
)

// Fault-injection suite: every test here drives a real daemon through
// the flaky proxy (internal/clustertest.Proxy) or an admission-
// controlled daemon, over real sockets, and pins the client's
// deadline, retry, and overload behavior on both transports.

// proxyFor starts a fault proxy in front of a backend address.
func proxyFor(t *testing.T, backend string) *clustertest.Proxy {
	t.Helper()
	p, err := clustertest.NewProxy(backend)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// httpHost extracts host:port from an httptest URL.
func httpHost(t *testing.T, rawurl string) string {
	t.Helper()
	u, err := url.Parse(rawurl)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}

// TestDeadlineOnBlackhole: a server that swallows its responses must
// cost a WithContext caller no more than the context budget, on both
// transports, and the failure must carry context.DeadlineExceeded.
func TestDeadlineOnBlackhole(t *testing.T) {
	d := startDaemon(t, testConfig())

	shbpProxy := proxyFor(t, d.shbp.Addr().String())
	httpProxy := proxyFor(t, httpHost(t, d.http.URL))

	bin, err := client.Dial("shbp://" + shbpProxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bin.Close()
	httpc, err := client.Dial("http://" + httpProxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer httpc.Close()

	for name, tt := range map[string]struct {
		c     *client.Client
		proxy *clustertest.Proxy
	}{"shbp": {bin, shbpProxy}, "http": {httpc, httpProxy}} {
		t.Run(name, func(t *testing.T) {
			// Healthy first: the proxied path works at all.
			if err := tt.c.Ping(); err != nil {
				t.Fatalf("healthy ping through proxy: %v", err)
			}
			tt.proxy.SetBlackhole(true)
			defer tt.proxy.SetBlackhole(false)

			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			start := time.Now()
			err := tt.c.WithContext(ctx).Ping()
			waited := time.Since(start)
			if err == nil {
				t.Fatal("ping through a blackhole succeeded")
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("error %v does not carry context.DeadlineExceeded", err)
			}
			// The whole point: the wait is the context budget, not a
			// transport default or forever. Generous slack for CI.
			if waited > 2*time.Second {
				t.Fatalf("deadline took %v to trip on a 100ms budget", waited)
			}
		})
	}
}

// TestDefaultClientNeverRetries pins PR 5 semantics: without WithRetry
// a broken connection surfaces as an error — exactly one attempt.
func TestDefaultClientNeverRetries(t *testing.T) {
	d := startDaemon(t, testConfig())
	p := proxyFor(t, d.shbp.Addr().String())
	c, err := client.Dial("shbp://" + p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	p.CloseConns()
	if err := c.Ping(); err == nil {
		t.Fatal("ping over a cut connection succeeded without a retry policy")
	}
	// The connection redials on the next call, so the client heals —
	// it just never retries within one call.
	if err := c.Ping(); err != nil {
		t.Fatalf("redial after the failed call: %v", err)
	}
}

// TestRetryToSuccess: with a policy, a cut connection is retried
// through a redial and the call succeeds; the sticky first failure
// never reaches the caller.
func TestRetryToSuccess(t *testing.T) {
	d := startDaemon(t, testConfig())
	p := proxyFor(t, d.shbp.Addr().String())
	c, err := client.Dial("shbp://" + p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rc := c.WithRetry(client.RetryPolicy{MaxRetries: 3, BaseDelay: 5 * time.Millisecond})

	set := rc.Namespace("").Set()
	keys := [][]byte{[]byte("retry-a"), []byte("retry-b")}
	if err := set.AddAll(keys); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p.CloseConns() // cut before every call; each call must recover
		res, err := set.Check(keys)
		if err != nil {
			t.Fatalf("check %d with retries: %v", i, err)
		}
		if !res[0] || !res[1] {
			t.Fatalf("check %d answers %v, want both true", i, res)
		}
	}
}

// TestOverloadParityByteIdentical: the same shed — a metered tenant's
// write past its quota — must answer wire.StatusOverloaded/HTTP 429
// with byte-identical messages on both transports, and IsOverloaded
// must see both.
func TestOverloadParityByteIdentical(t *testing.T) {
	d := startDaemon(t, testConfig())
	cs := d.clients(t)

	// Rate ~0: no refill during the test. Burst 8: a write of 5 fits
	// (5 + 8/4 reserve ≤ 8), any further write of 2 sheds — and
	// shedding spends nothing, so both transports see the same state.
	if err := cs["shbp"].CreateNamespace(client.NamespaceConfig{
		Name: "metered", RatePerSec: 1e-9, RateBurst: 8,
	}); err != nil {
		t.Fatal(err)
	}
	seed := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d"), []byte("e")}
	if err := cs["shbp"].Namespace("metered").Set().AddAll(seed); err != nil {
		t.Fatal(err)
	}

	over := [][]byte{[]byte("f"), []byte("g")}
	msgs := map[string]string{}
	for name, c := range cs {
		err := c.Namespace("metered").Set().AddAll(over)
		if !client.IsOverloaded(err) {
			t.Fatalf("%s: got %v, want overloaded", name, err)
		}
		var e *client.Error
		if !errors.As(err, &e) {
			t.Fatalf("%s: %v is not a *client.Error", name, err)
		}
		msgs[name] = e.Msg
	}
	if msgs["shbp"] != msgs["http"] {
		t.Fatalf("shed messages differ:\n shbp: %q\n http: %q", msgs["shbp"], msgs["http"])
	}

	// Reads still answer on both transports while writes shed (3
	// tokens remain; one single-key read per transport fits).
	for name, c := range cs {
		res, err := c.Namespace("metered").Set().Check(seed[:1])
		if err != nil {
			t.Fatalf("%s read while writes shed: %v", name, err)
		}
		if !res[0] {
			t.Fatalf("%s read answers %v", name, res)
		}
	}
}

// TestRetryOnOverload: StatusOverloaded is the retryable daemon
// failure — a retrying client rides out quota exhaustion and succeeds
// once the bucket refills.
func TestRetryOnOverload(t *testing.T) {
	d := startDaemon(t, testConfig())
	c, err := client.Dial("shbp://" + d.shbp.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// 100 tokens/s, burst 4: a read of 4 drains the bucket; the next
	// read of 4 needs ~40ms of refill.
	if err := c.CreateNamespace(client.NamespaceConfig{
		Name: "refill", RatePerSec: 100, RateBurst: 4,
	}); err != nil {
		t.Fatal(err)
	}
	keys := [][]byte{[]byte("w"), []byte("x"), []byte("y"), []byte("z")}
	set := c.Namespace("refill").Set()
	if _, err := set.Check(keys); err != nil {
		t.Fatalf("first read on a full bucket: %v", err)
	}
	// Drained: an immediate plain read sheds...
	if _, err := set.Check(keys); !client.IsOverloaded(err) {
		t.Fatalf("drained read: got %v, want overloaded", err)
	}
	// ...and a retrying one backs off into the refill and succeeds.
	rset := c.WithRetry(client.RetryPolicy{MaxRetries: 8, BaseDelay: 25 * time.Millisecond}).
		Namespace("refill").Set()
	if _, err := rset.Check(keys); err != nil {
		t.Fatalf("retrying read across the refill: %v", err)
	}
}

// TestRetryNeverRepeatsCountingWrites: multiplicity updates are not
// idempotent, so even an aggressive policy must not retry them — a
// cut connection surfaces as an error, and the daemon state shows at
// most one application.
func TestRetryNeverRepeatsCountingWrites(t *testing.T) {
	d := startDaemon(t, testConfig())
	p := proxyFor(t, d.shbp.Addr().String())
	c, err := client.Dial("shbp://" + p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rc := c.WithRetry(client.RetryPolicy{MaxRetries: 5, BaseDelay: time.Millisecond})

	key := []byte("counted-once")
	// Dial returns once TCP connects, but the proxy registers the
	// connection later, in its accept goroutine; a round trip first
	// makes sure CloseConns has a connection to cut.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	p.CloseConns() // the first attempt fails; a retry would double-count
	err = rc.Namespace("").Counter().InsertCount(key, 1)
	if err == nil {
		t.Fatal("counting write over a cut connection reported success")
	}
	// Whatever the wire did, the count must be 0 or 1 — never 2+, which
	// is what a blind retry of a possibly-applied increment produces.
	n, err := c.Namespace("").Counter().Counts([][]byte{key})
	if err != nil {
		t.Fatal(err)
	}
	if n[0] > 1 {
		t.Fatalf("count = %d after one failed insert; a retry double-applied", n[0])
	}
}
