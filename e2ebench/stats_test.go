package main

import (
	"errors"
	"math"
	"testing"
	"time"

	"shbf/client"
	"shbf/internal/wire"
)

func TestPercentileNearestRank(t *testing.T) {
	samples := func() []float64 {
		s := make([]float64, 100)
		for i := range s {
			s[i] = float64(100 - i) // 100..1, unsorted
		}
		return s
	}
	cases := []struct {
		p      float64
		want   float64
		beyond int
	}{
		{0.5, 50, 50},
		{0.99, 99, 1},
		{1, 100, 0},
		{0.001, 1, 99},
	}
	for _, c := range cases {
		v, beyond, ok := percentile(samples(), c.p)
		if !ok || v != c.want || beyond != c.beyond {
			t.Errorf("percentile(1..100, %v) = %v, %d beyond, ok %v; want %v, %d beyond", c.p, v, beyond, ok, c.want, c.beyond)
		}
	}
	if _, _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
	if v, beyond, _ := percentile([]float64{7}, 0.99); v != 7 || beyond != 0 {
		t.Errorf("percentile of one sample = %v, %d beyond", v, beyond)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	small := make([]float64, 999) // p99 rank 990: 9 beyond
	large := make([]float64, 1000)
	if _, beyond, ok := tailPercentile(small, 0.99); ok || beyond != 9 {
		t.Errorf("999 samples: beyond %d ok %v; want 9, not ok", beyond, ok)
	}
	if _, beyond, ok := tailPercentile(large, 0.99); !ok || beyond != 10 {
		t.Errorf("1000 samples: beyond %d ok %v; want 10, ok", beyond, ok)
	}
}

func TestWindowsCutLatencyAndRate(t *testing.T) {
	// 2 s phase, 2000 calls per 100 ms window → 100 ms windows.
	p := &phase{span: 2 * time.Second}
	for i := range 40000 {
		end := int64(i) * int64(50*time.Microsecond)
		p.calls = append(p.calls, call{startNs: end - int64(10*time.Microsecond)*int64(1+i%2), endNs: end, keys: 16, ok: true})
	}
	ws := windows(p)
	if ws.width != 100*time.Millisecond || len(ws.rate) != 20 || len(ws.p99) != 20 {
		t.Fatalf("width %v, %d windows, %d p99s", ws.width, len(ws.rate), len(ws.p99))
	}
	if ws.p50[0] != 10 || ws.p99[0] != 20 {
		t.Errorf("window 0 p50 %v p99 %v, want 10 and 20 µs", ws.p50[0], ws.p99[0])
	}
	if ws.rate[3] != 2000*16/0.1 {
		t.Errorf("rate %v, want %v", ws.rate[3], 2000*16/0.1)
	}
}

func TestRefusedAndShedRequestsFail(t *testing.T) {
	tl := tally{}
	var out outcome
	out.add(tl.record("shbp", wire.OpMembershipContains, nil))
	out.add(tl.record("shbp", wire.OpMembershipAdd, &client.Error{Status: wire.StatusOverloaded, Msg: "shed"}))
	out.add(tl.record("http", wire.OpMultiplicityAdd, &client.Error{Status: wire.StatusConflict, Msg: "refused"}))
	out.add(tl.record("shbp", wire.OpMembershipContains, errors.New("connection reset")))
	if out.Attempted != 4 || out.Failed != 3 {
		t.Fatalf("outcome = %+v, want 4 attempted, 3 failed", out)
	}
	want := tally{
		{"shbp", "membership-contains", "ok"}:           1,
		{"shbp", "membership-add", "overloaded"}:        1,
		{"http", "multiplicity-add", "conflict"}:        1,
		{"shbp", "membership-contains", transportError}: 1,
	}
	for k, n := range want {
		if tl[k] != n {
			t.Errorf("tally[%v] = %d, want %d", k, tl[k], n)
		}
	}
	if got := out.failFrac(); got != 0.75 {
		t.Errorf("failFrac = %v, want 0.75", got)
	}
}

func TestLostIngestKeysFail(t *testing.T) {
	var out outcome
	for range 10 {
		out.add(true) // reader requests
	}
	out.lostKeys(1000, 3)
	if out.Attempted != 1010 || out.Failed != 3 {
		t.Fatalf("outcome = %+v, want 1010 attempted, 3 failed", out)
	}
	if (outcome{}).failFrac() != 0 {
		t.Error("failFrac of nothing attempted is not 0")
	}
}

func TestLostIngestKeysLowerOkFrac(t *testing.T) {
	// An ingest phase: 100 answered 256-key reads beside 1000 flushed
	// keys, 50 of which never reached the daemon.
	p := &phase{span: time.Second, ingestLo: 0, ingestHi: 1000, daemon: procSnap{CPUNs: 1e6}}
	for i := range int64(100) {
		p.calls = append(p.calls, call{startNs: i * 1e7, endNs: i*1e7 + 1e5, keys: 256, ok: true})
	}
	acc := accuracy{fpProbes: 1, assocN: 1, multN: 1, ingestSent: 1000}
	for i := range uint64(50) {
		acc.ingestLost = append(acc.ingestLost, 2*i)
	}
	if got := acc.arrived(0, 100); got != 50 {
		t.Errorf("arrived(0, 100) = %d, want 50", got)
	}
	e2e := func() map[string]metric {
		return endToEnd(p, windows(p), acc, outcomeOf([]*phase{p}, acc), []float64{1}, 1024)
	}
	m := e2e()
	if got, want := m["ok_frac"].Value, 1-50.0/1100; math.Abs(got-want) > 1e-12 {
		t.Errorf("ok_frac = %v, want %v", got, want)
	}
	// The daemon's CPU is spread over the keys it processed: the reads'
	// and the 950 that arrived.
	if got, want := m["daemon_cpu_ns_per_key"].Value, 1e6/(100*256+950.0); math.Abs(got-want) > 1e-9 {
		t.Errorf("daemon_cpu_ns_per_key = %v, want %v", got, want)
	}
	acc.ingestLost = nil
	if got := e2e()["ok_frac"].Value; got != 1 {
		t.Errorf("ok_frac with nothing lost = %v, want 1", got)
	}
}

func TestResidual(t *testing.T) {
	b := budget{CallNs: 40000, EncodeReqNs: 150, EchoRTTNs: 25000, FrameNs: 6000, DecodeRespNs: 850}
	ns, frac := b.residual()
	if ns != 8000 || math.Abs(frac-0.2) > 1e-12 {
		t.Errorf("residual = %v ns, %v; want 8000 ns, 0.2", ns, frac)
	}
	// Parts measured alone can sum past the whole: a negative residual
	// is reported as is.
	b.FrameNs = 20000
	if ns, frac := b.residual(); ns != -6000 || frac >= 0 {
		t.Errorf("residual = %v ns, %v; want -6000 ns, negative", ns, frac)
	}
	if _, frac := (budget{}).residual(); frac != 0 {
		t.Errorf("residual fraction of a zero call = %v", frac)
	}
}

func TestCrossCheck(t *testing.T) {
	scrape := []byte(`# HELP shbf_requests_total Requests served.
# TYPE shbf_requests_total counter
shbf_requests_total{transport="shbp",op="membership-contains",status="ok"} 5
shbf_requests_total{transport="shbp",op="membership-add",status="overloaded"} 1
shbf_requests_total{transport="http",op="membership-contains",status="ok"} 0
shbf_namespace_fill_ratio{namespace="default",filter="membership"} 0.39
`)
	all, err := parseScrape(scrape)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := gauge(all, "shbf_namespace_fill_ratio", map[string]string{"filter": "membership"}); !ok || v != 0.39 {
		t.Errorf("fill ratio = %v, %v", v, ok)
	}
	tl := tally{
		{"shbp", "membership-contains", "ok"}:           5,
		{"shbp", "membership-add", "overloaded"}:        1,
		{"shbp", "membership-contains", transportError}: 2,
	}
	if d := crossCheck(all, tl); len(d) != 0 {
		t.Errorf("matching tallies differ: %v", d)
	}
	tl[reqKey{"shbp", "membership-contains", "ok"}] = 4
	if d := crossCheck(all, tl); len(d) != 1 {
		t.Errorf("one row off: %v", d)
	}
}
