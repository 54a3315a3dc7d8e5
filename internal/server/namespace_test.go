package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"shbf/internal/wire"
)

// TestNamespaceIsolation: two tenants with different geometry serve
// disjoint key sets; v1 routes serve exactly the default tenant.
func TestNamespaceIsolation(t *testing.T) {
	srv, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	post(t, ts.URL+"/v2/namespaces", map[string]any{"name": "tenant-a", "shards": 2}, 201, nil)
	post(t, ts.URL+"/v2/namespaces", map[string]any{"name": "tenant-b", "membership_bits": 1 << 16}, 201, nil)
	// Same name again: conflict. Bad name: bad request.
	post(t, ts.URL+"/v2/namespaces", map[string]any{"name": "tenant-a"}, 409, nil)
	post(t, ts.URL+"/v2/namespaces", map[string]any{"name": "no spaces"}, 400, nil)

	post(t, ts.URL+"/v2/namespaces/tenant-a/membership/add", map[string]any{"keys": []string{"a-key"}}, 200, nil)
	post(t, ts.URL+"/v1/membership/add", map[string]any{"keys": []string{"default-key"}}, 200, nil)

	var res struct {
		Results []bool `json:"results"`
	}
	post(t, ts.URL+"/v2/namespaces/tenant-a/membership/contains",
		map[string]any{"keys": []string{"a-key", "default-key"}}, 200, &res)
	if !res.Results[0] || res.Results[1] {
		t.Fatalf("tenant-a sees %v, want [true false]", res.Results)
	}
	post(t, ts.URL+"/v1/membership/contains",
		map[string]any{"keys": []string{"a-key", "default-key"}}, 200, &res)
	if res.Results[0] || !res.Results[1] {
		t.Fatalf("default sees %v, want [false true]", res.Results)
	}
	post(t, ts.URL+"/v2/namespaces/tenant-b/membership/contains",
		map[string]any{"keys": []string{"a-key", "default-key"}}, 200, &res)
	if res.Results[0] || res.Results[1] {
		t.Fatalf("tenant-b sees %v, want [false false]", res.Results)
	}

	// Unknown namespace → 404; delete → gone; default undeletable.
	post(t, ts.URL+"/v2/namespaces/ghost/membership/add", map[string]any{"keys": []string{"x"}}, 404, nil)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v2/namespaces/tenant-b", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	post(t, ts.URL+"/v2/namespaces/tenant-b/membership/add", map[string]any{"keys": []string{"x"}}, 404, nil)
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v2/namespaces/default", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 409 {
		t.Fatalf("delete default: status %d, want 409", resp.StatusCode)
	}

	// List + daemon stats name the remaining tenants.
	var list struct {
		Namespaces []NamespaceInfo `json:"namespaces"`
	}
	get(t, ts.URL+"/v2/namespaces", &list)
	names := make([]string, len(list.Namespaces))
	for i, in := range list.Namespaces {
		names[i] = in.Name
	}
	if strings.Join(names, ",") != "default,tenant-a" {
		t.Fatalf("namespaces = %v", names)
	}
}

// TestSnapshotV3MultiTenant: a snapshot with several tenants — classic
// and windowed, divergent geometry — restores the whole set with
// state, window positions, and tenant isolation intact.
func TestSnapshotV3MultiTenant(t *testing.T) {
	cfg := testConfig()
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "state.shbf")
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.CreateNamespace(NamespaceConfig{Name: "classic", Shards: 2}); err != nil {
		t.Fatal(err)
	}
	g := 3
	if err := srv.CreateNamespace(NamespaceConfig{Name: "ring", WindowGenerations: &g}); err != nil {
		t.Fatal(err)
	}
	classic, _ := srv.lookup("classic")
	ring, _ := srv.lookup("ring")
	classic.mem.Add([]byte("classic-key"))
	ring.mem.Add([]byte("old-key"))
	if _, err := srv.rotate(ring); err != nil {
		t.Fatal(err)
	}
	ring.mem.Add([]byte("new-key"))
	if err := ring.mult.Insert([]byte("ring-flow")); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SaveSnapshot(cfg.SnapshotPath); err != nil {
		t.Fatal(err)
	}

	restored, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := restored.lookup("classic")
	if err != nil {
		t.Fatal(err)
	}
	rr, err := restored.lookup("ring")
	if err != nil {
		t.Fatal(err)
	}
	if !rc.mem.Contains([]byte("classic-key")) || rc.mem.Contains([]byte("new-key")) {
		t.Fatal("classic tenant state lost or polluted")
	}
	if !rr.mem.Contains([]byte("old-key")) || !rr.mem.Contains([]byte("new-key")) {
		t.Fatal("ring tenant state lost")
	}
	if rr.mult.Count([]byte("ring-flow")) != 1 {
		t.Fatal("ring multiplicity lost")
	}
	if !rr.windowed() || rc.windowed() {
		t.Fatal("window mode not preserved per tenant")
	}
	// The restored ring resumes at its epoch: G−1 more rotations
	// expire old-key (written before one rotation already).
	for i := 0; i < g-1; i++ {
		if _, err := restored.rotate(rr); err != nil {
			t.Fatal(err)
		}
	}
	if rr.mem.Contains([]byte("old-key")) {
		t.Fatal("restored ring forgot its head position")
	}
}

// TestRotationConsistentSnapshot: with rotation_consistent set, a
// snapshot cut while rotations hammer the daemon always captures the
// three filters of a windowed namespace at one epoch.
func TestRotationConsistentSnapshot(t *testing.T) {
	cfg := testConfig()
	cfg.WindowGenerations = 4
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "state.shbf")
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := srv.Rotate(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if _, err := srv.SaveSnapshotOpts(cfg.SnapshotPath, true); err != nil {
			t.Fatal(err)
		}
		restored, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		def := restored.defaultNS()
		st := restored.statsFor(def)
		epochs := []uint64{
			st.Membership.Window.Epoch,
			st.Association.Window.Epoch,
			st.Multiplicity.Window.Epoch,
		}
		if epochs[0] != epochs[1] || epochs[1] != epochs[2] {
			t.Fatalf("snapshot %d captured adjacent epochs %v", i, epochs)
		}
	}
	close(stop)
	wg.Wait()
}

// TestSnapshotRequestValidation: the snapshot endpoints accept empty
// bodies, {}, and the rotation_consistent option, and reject unknown
// fields.
func TestSnapshotRequestValidation(t *testing.T) {
	cfg := testConfig()
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "state.shbf")
	ts := newTestServer(t, cfg)
	// Empty body (no JSON at all).
	resp, err := http.Post(ts.URL+"/v1/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("empty body: status %d", resp.StatusCode)
	}
	post(t, ts.URL+"/v1/snapshot", map[string]any{}, 200, nil)
	post(t, ts.URL+"/v2/snapshot", map[string]any{"rotation_consistent": true}, 200, nil)
	post(t, ts.URL+"/v1/snapshot", map[string]any{"rotation_consistent": true}, 200, nil)
	// v2 validates strictly; v1 stays lenient (the pre-namespace daemon
	// never read the body, so garbage must keep snapshotting).
	post(t, ts.URL+"/v2/snapshot", map[string]any{"unknown_option": 1}, 400, nil)
	post(t, ts.URL+"/v1/snapshot", map[string]any{"unknown_option": 1}, 200, nil)
	resp, err = http.Post(ts.URL+"/v1/snapshot", "text/plain", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("v1 snapshot with non-JSON body: status %d, want 200 (lenient shim)", resp.StatusCode)
	}
}

// TestV2StatsAndNamespaceStats: per-tenant stats isolate counters; the
// daemon stats roll up tenant summaries.
func TestV2StatsAndNamespaceStats(t *testing.T) {
	ts := newTestServer(t, testConfig())
	post(t, ts.URL+"/v2/namespaces", map[string]any{"name": "t"}, 201, nil)
	keys := make([]string, 10)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	post(t, ts.URL+"/v2/namespaces/t/membership/add", map[string]any{"keys": keys}, 200, nil)

	var st Stats
	get(t, ts.URL+"/v2/namespaces/t/stats", &st)
	if st.Membership.N != 10 || st.Queries["membership_add"] != 10 {
		t.Fatalf("tenant stats: n=%d queries=%v", st.Membership.N, st.Queries)
	}
	get(t, ts.URL+"/v1/stats", &st)
	if st.Membership.N != 0 || st.Queries["membership_add"] != 0 {
		t.Fatalf("tenant counters leaked into default: n=%d queries=%v", st.Membership.N, st.Queries)
	}
	var daemon struct {
		UptimeSeconds float64         `json:"uptime_seconds"`
		Namespaces    []NamespaceInfo `json:"namespaces"`
	}
	get(t, ts.URL+"/v2/stats", &daemon)
	if len(daemon.Namespaces) != 2 {
		t.Fatalf("daemon stats lists %d namespaces, want 2", len(daemon.Namespaces))
	}
	for _, in := range daemon.Namespaces {
		if in.Name == "t" && in.MembershipN != 10 {
			t.Fatalf("summary n = %d, want 10", in.MembershipN)
		}
	}
}

// TestClassifyMaskOnlyInV2: the raw region mask is a v2 addition; the
// frozen v1 response must not carry it.
func TestClassifyMaskOnlyInV2(t *testing.T) {
	ts := newTestServer(t, testConfig())
	post(t, ts.URL+"/v1/association/add", map[string]any{"set": 1, "keys": []string{"k"}}, 200, nil)
	var raw map[string]any
	post(t, ts.URL+"/v1/association/classify", map[string]any{"keys": []string{"k"}}, 200, &raw)
	first := raw["results"].([]any)[0].(map[string]any)
	if _, ok := first["mask"]; ok {
		t.Fatal("v1 classify response grew a mask field")
	}
	post(t, ts.URL+"/v2/namespaces/default/association/classify", map[string]any{"keys": []string{"k"}}, 200, &raw)
	first = raw["results"].([]any)[0].(map[string]any)
	mask, ok := first["mask"].(float64)
	if !ok {
		t.Fatalf("v2 classify response missing mask: %v", first)
	}
	if int(mask)&1 == 0 { // RegionS1Only bit
		t.Fatalf("mask %v missing s1-only candidate", mask)
	}
}

// TestNamespaceCreateDecodesStrictly: both transports decode a
// namespace config strictly, so a misspelt field is the same 400 over
// ShBP as over HTTP instead of a tenant built without it.
func TestNamespaceCreateDecodesStrictly(t *testing.T) {
	srv, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	const body = `{"name":"t","window_generation":3}`
	const msg = `decoding request: json: unknown field "window_generation"`

	want, err := json.Marshal(map[string]string{"error": msg})
	if err != nil {
		t.Fatal(err)
	}
	if status, got := rawPost(t, ts.URL+"/v2/namespaces", body); status != 400 || string(got) != string(want)+"\n" {
		t.Fatalf("HTTP: %d %s, want 400 %s", status, got, want)
	}
	var (
		resp wire.Response
		sc   dispatchScratch
	)
	srv.handleFrame(&wire.Request{Op: wire.OpNamespaceCreate, Blob: []byte(body)}, &resp, &sc)
	if resp.Status != wire.StatusBadRequest || resp.Msg != msg {
		t.Fatalf("ShBP: status %d %q, want bad-request %q", resp.Status, resp.Msg, msg)
	}
	if names := srv.Namespaces(); len(names) != 1 {
		t.Fatalf("namespaces after two refused creates: %v", names)
	}
}
