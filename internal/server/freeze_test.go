package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"shbf/internal/frozen"
	"shbf/internal/wire"
)

// postRaw sends a bodyless POST and returns the status and raw body.
func postRaw(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestFreezeHTTP: POST .../freeze returns a ShBZ container answering
// exactly like the live filter, the namespace rejects every write with
// 409 afterwards while reads keep serving, and a repeat freeze is
// idempotent.
func TestFreezeHTTP(t *testing.T) {
	ts := newTestServer(t, testConfig())
	post(t, ts.URL+"/v2/namespaces", map[string]any{"name": "cold"}, 201, nil)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("flow-%d", i)
	}
	post(t, ts.URL+"/v2/namespaces/cold/membership/add", map[string]any{"keys": keys}, 200, nil)

	status, blob := postRaw(t, ts.URL+"/v2/namespaces/cold/freeze")
	if status != 200 {
		t.Fatalf("freeze: status %d: %s", status, blob)
	}
	fz, err := frozen.Open(blob)
	if err != nil {
		t.Fatalf("opening frozen container: %v", err)
	}
	if fz.N() != len(keys) {
		t.Fatalf("frozen N = %d, want %d", fz.N(), len(keys))
	}
	for _, k := range keys {
		if !fz.Contains([]byte(k)) {
			t.Fatalf("frozen container missing %q", k)
		}
	}

	// Every write path conflicts now — membership, association,
	// multiplicity, merge, rotate — over HTTP.
	post(t, ts.URL+"/v2/namespaces/cold/membership/add", map[string]any{"keys": []string{"late"}}, 409, nil)
	post(t, ts.URL+"/v2/namespaces/cold/association/add", map[string]any{"set": 1, "keys": []string{"late"}}, 409, nil)
	post(t, ts.URL+"/v2/namespaces/cold/association/remove", map[string]any{"set": 1, "keys": []string{"late"}}, 409, nil)
	post(t, ts.URL+"/v2/namespaces/cold/multiplicity/add", map[string]any{"items": []map[string]any{{"key": "late"}}}, 409, nil)
	post(t, ts.URL+"/v2/namespaces/cold/multiplicity/remove", map[string]any{"items": []map[string]any{{"key": "late"}}}, 409, nil)
	post(t, ts.URL+"/v2/namespaces/cold/rotate", map[string]any{}, 409, nil)
	if st, _ := postRaw(t, ts.URL+"/v2/namespaces/cold/merge"); st != 409 {
		t.Fatalf("merge into frozen namespace: status %d, want 409", st)
	}

	// Reads keep serving.
	var res struct {
		Results []bool `json:"results"`
	}
	post(t, ts.URL+"/v2/namespaces/cold/membership/contains",
		map[string]any{"keys": []string{keys[0], "never-added"}}, 200, &res)
	if !res.Results[0] || res.Results[1] {
		t.Fatalf("frozen namespace reads = %v, want [true false]", res.Results)
	}

	// Repeat freeze: idempotent, byte-identical (nothing can have
	// changed in between).
	status, blob2 := postRaw(t, ts.URL+"/v2/namespaces/cold/freeze")
	if status != 200 || !bytes.Equal(blob, blob2) {
		t.Fatalf("repeat freeze: status %d, byte-identical=%v", status, bytes.Equal(blob, blob2))
	}

	// The tenant summary reports the flag; other tenants stay writable.
	var list struct {
		Namespaces []NamespaceInfo `json:"namespaces"`
	}
	get(t, ts.URL+"/v2/namespaces", &list)
	for _, in := range list.Namespaces {
		if in.Name == "cold" && !in.Frozen {
			t.Fatal("frozen tenant summary missing frozen=true")
		}
		if in.Name == DefaultNamespace && in.Frozen {
			t.Fatal("default tenant froze by contagion")
		}
	}
	post(t, ts.URL+"/v1/membership/add", map[string]any{"keys": []string{"still-live"}}, 200, nil)
}

// TestFreezeWindowedUnion: freezing a windowed tenant collapses the
// ring by union — keys from every live generation answer true.
func TestFreezeWindowedUnion(t *testing.T) {
	cfg := testConfig()
	ts := newTestServer(t, cfg)
	g := 3
	post(t, ts.URL+"/v2/namespaces", map[string]any{"name": "ring", "window_generations": g}, 201, nil)
	post(t, ts.URL+"/v2/namespaces/ring/membership/add", map[string]any{"keys": []string{"old"}}, 200, nil)
	post(t, ts.URL+"/v2/namespaces/ring/rotate", map[string]any{}, 200, nil)
	post(t, ts.URL+"/v2/namespaces/ring/membership/add", map[string]any{"keys": []string{"new"}}, 200, nil)

	status, blob := postRaw(t, ts.URL+"/v2/namespaces/ring/freeze")
	if status != 200 {
		t.Fatalf("freeze windowed: status %d: %s", status, blob)
	}
	fz, err := frozen.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !fz.Contains([]byte("old")) || !fz.Contains([]byte("new")) {
		t.Fatal("windowed freeze lost a live generation")
	}
}

// TestDaemonStatsRollupFPR pins the GET /v2/stats rollup shape: every
// tenant summary carries the estimated_fpr the tenant's own stats
// endpoint reports (the rollup used to omit it, so dashboards reading
// only /v2/stats flew blind on accuracy).
func TestDaemonStatsRollupFPR(t *testing.T) {
	ts := newTestServer(t, testConfig())
	post(t, ts.URL+"/v2/namespaces", map[string]any{"name": "t"}, 201, nil)
	keys := make([]string, 500)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	post(t, ts.URL+"/v2/namespaces/t/membership/add", map[string]any{"keys": keys}, 200, nil)

	var st Stats
	get(t, ts.URL+"/v2/namespaces/t/stats", &st)
	if st.Membership.EstimatedFPR <= 0 {
		t.Fatalf("tenant stats estimated_fpr = %g, want > 0 at %d keys", st.Membership.EstimatedFPR, len(keys))
	}

	// Decode the rollup as raw JSON so a silently dropped field cannot
	// hide behind a zero-valued struct member.
	var raw struct {
		Namespaces []map[string]json.RawMessage `json:"namespaces"`
	}
	get(t, ts.URL+"/v2/stats", &raw)
	found := false
	for _, entry := range raw.Namespaces {
		var name string
		if err := json.Unmarshal(entry["name"], &name); err != nil {
			t.Fatal(err)
		}
		fprRaw, ok := entry["estimated_fpr"]
		if !ok {
			t.Fatalf("rollup entry %q has no estimated_fpr field", name)
		}
		if name != "t" {
			continue
		}
		found = true
		var fpr float64
		if err := json.Unmarshal(fprRaw, &fpr); err != nil {
			t.Fatal(err)
		}
		if fpr != st.Membership.EstimatedFPR {
			t.Fatalf("rollup estimated_fpr = %g, tenant endpoint reports %g", fpr, st.Membership.EstimatedFPR)
		}
	}
	if !found {
		t.Fatal("tenant t missing from the rollup")
	}
}

// TestFreezeConcurrentWrites: a freeze that races writers ships a
// container holding every key a write acked, so the served set and the
// shipped container cannot drift apart under load either. Writers send
// 64-key membership adds through handleFrame until the tenant refuses
// them; the freeze starts once about 2,000 keys are acked, while
// writes are in flight.
func TestFreezeConcurrentWrites(t *testing.T) {
	const (
		trials  = 20
		writers = 4
		batch   = 64
		before  = 2000
	)
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for trial := range trials {
		name := fmt.Sprintf("race-%d", trial)
		if err := s.CreateNamespace(NamespaceConfig{Name: name}); err != nil {
			t.Fatal(err)
		}
		var (
			acked, live, stop atomic.Int64
			mu                sync.Mutex
			keys              [][]byte
			wg                sync.WaitGroup
		)
		for w := range writers {
			wg.Add(1)
			live.Add(1)
			go func() {
				defer wg.Done()
				defer live.Add(-1)
				var (
					resp wire.Response
					sc   dispatchScratch
				)
				for i := 0; stop.Load() == 0; i++ {
					req := wire.Request{Op: wire.OpMembershipAdd, Namespace: name, Keys: make([][]byte, batch)}
					for j := range req.Keys {
						req.Keys[j] = []byte(fmt.Sprintf("t%d-w%d-b%d-k%d", trial, w, i, j))
					}
					s.handleFrame(&req, &resp, &sc)
					if resp.Status != wire.StatusOK {
						return // refused: the tenant is frozen
					}
					mu.Lock()
					keys = append(keys, req.Keys...)
					mu.Unlock()
					acked.Add(batch)
				}
			}()
		}
		for acked.Load() < before && live.Load() == writers {
			runtime.Gosched()
		}
		var (
			resp wire.Response
			sc   dispatchScratch
		)
		s.handleFrame(&wire.Request{Op: wire.OpFreeze, Namespace: name}, &resp, &sc)
		stop.Store(1)
		wg.Wait()
		if resp.Status != wire.StatusOK {
			t.Fatalf("trial %d: freeze: status %d (%s)", trial, resp.Status, resp.Msg)
		}
		fz, err := frozen.Open(resp.Blob)
		if err != nil {
			t.Fatal(err)
		}
		missing := 0
		for _, k := range keys {
			if !fz.Contains(k) {
				missing++
			}
		}
		if missing > 0 {
			t.Errorf("trial %d: the frozen container misses %d of %d acked keys", trial, missing, len(keys))
		}
		if err := s.DeleteNamespace(name); err != nil {
			t.Fatal(err)
		}
	}
}
