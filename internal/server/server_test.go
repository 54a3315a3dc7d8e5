package server

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"shbf"
)

// testConfig is small enough for fast tests but large enough that
// false positives don't perturb exact-answer assertions.
func testConfig() Config {
	return Config{
		MembershipBits:   1 << 18,
		MembershipK:      8,
		AssociationBits:  1 << 18,
		AssociationK:     8,
		MultiplicityBits: 1 << 19,
		MultiplicityK:    8,
		MaxCount:         16,
		Shards:           4,
		Seed:             7,
	}
}

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// post sends body as JSON and decodes the response into out (unless
// nil), failing the test on a non-wantStatus reply.
func post(t *testing.T, url string, body any, wantStatus int, out any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d (want %d): %s", url, resp.StatusCode, wantStatus, buf.String())
	}
	if out != nil {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("decoding response %q: %v", buf.String(), err)
		}
	}
}

func get(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func TestMembershipRoundTrip(t *testing.T) {
	ts := newTestServer(t, testConfig())
	keys := []string{"alpha", "beta", "gamma"}
	var added struct {
		Added int `json:"added"`
	}
	post(t, ts.URL+"/v1/membership/add", map[string]any{"keys": keys}, 200, &added)
	if added.Added != 3 {
		t.Fatalf("added = %d, want 3", added.Added)
	}
	var res struct {
		Results []bool `json:"results"`
	}
	post(t, ts.URL+"/v1/membership/contains",
		map[string]any{"keys": []string{"alpha", "beta", "gamma", "delta"}}, 200, &res)
	want := []bool{true, true, true, false}
	for i, w := range want {
		if res.Results[i] != w {
			t.Fatalf("contains[%d] = %v, want %v", i, res.Results[i], w)
		}
	}
}

func TestMembershipBase64Keys(t *testing.T) {
	ts := newTestServer(t, testConfig())
	// A binary 13-byte flow ID, as the paper's workloads use.
	flowID := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
	enc := base64.StdEncoding.EncodeToString(flowID)
	post(t, ts.URL+"/v1/membership/add",
		map[string]any{"keys": []string{enc}, "encoding": "base64"}, 200, nil)
	var res struct {
		Results []bool `json:"results"`
	}
	post(t, ts.URL+"/v1/membership/contains",
		map[string]any{"keys": []string{enc}, "encoding": "base64"}, 200, &res)
	if !res.Results[0] {
		t.Fatal("base64 round trip lost the element")
	}
	post(t, ts.URL+"/v1/membership/contains",
		map[string]any{"keys": []string{"!!!not-base64"}, "encoding": "base64"}, 400, nil)
}

func TestAssociationClassify(t *testing.T) {
	ts := newTestServer(t, testConfig())
	post(t, ts.URL+"/v1/association/add", map[string]any{"set": 1, "keys": []string{"only1", "shared"}}, 200, nil)
	post(t, ts.URL+"/v1/association/add", map[string]any{"set": 2, "keys": []string{"only2", "shared"}}, 200, nil)
	var res struct {
		Results []struct {
			Region     string   `json:"region"`
			Candidates []string `json:"candidates"`
			Clear      bool     `json:"clear"`
			InS1       bool     `json:"in_s1"`
			InS2       bool     `json:"in_s2"`
		} `json:"results"`
	}
	post(t, ts.URL+"/v1/association/classify",
		map[string]any{"keys": []string{"only1", "shared", "only2", "neither"}}, 200, &res)
	// Soundness: the truth must be among the candidates.
	mustHave := func(i int, want string) {
		t.Helper()
		for _, c := range res.Results[i].Candidates {
			if c == want {
				return
			}
		}
		t.Fatalf("key %d: candidates %v missing truth %q", i, res.Results[i].Candidates, want)
	}
	mustHave(0, "s1-only")
	mustHave(1, "both")
	mustHave(2, "s2-only")
	if len(res.Results[3].Candidates) != 0 || res.Results[3].InS1 || res.Results[3].InS2 {
		// At this tiny occupancy a false positive is essentially
		// impossible with k = 8.
		t.Fatalf("non-member classified as %+v", res.Results[3])
	}
	// Remove from S1 moves "shared" to s2-only.
	post(t, ts.URL+"/v1/association/remove", map[string]any{"set": 1, "keys": []string{"shared"}}, 200, nil)
	post(t, ts.URL+"/v1/association/classify", map[string]any{"keys": []string{"shared"}}, 200, &res)
	mustHave(0, "s2-only")
	// Bad set numbers are rejected.
	post(t, ts.URL+"/v1/association/add", map[string]any{"set": 3, "keys": []string{"x"}}, 400, nil)
	// Deleting an absent element is a client-visible conflict.
	post(t, ts.URL+"/v1/association/remove", map[string]any{"set": 1, "keys": []string{"absent"}}, 409, nil)
}

func TestMultiplicityCount(t *testing.T) {
	ts := newTestServer(t, testConfig())
	post(t, ts.URL+"/v1/multiplicity/add", map[string]any{"items": []map[string]any{
		{"key": "once"},
		{"key": "thrice", "count": 3},
	}}, 200, nil)
	var res struct {
		Counts []int `json:"counts"`
	}
	post(t, ts.URL+"/v1/multiplicity/count",
		map[string]any{"keys": []string{"once", "thrice", "never"}}, 200, &res)
	// Counts never underestimate; at this occupancy they are exact.
	if res.Counts[0] != 1 || res.Counts[1] != 3 || res.Counts[2] != 0 {
		t.Fatalf("counts = %v, want [1 3 0]", res.Counts)
	}
	// Remove one of three.
	post(t, ts.URL+"/v1/multiplicity/remove", map[string]any{"items": []map[string]any{
		{"key": "thrice"},
	}}, 200, nil)
	post(t, ts.URL+"/v1/multiplicity/count", map[string]any{"keys": []string{"thrice"}}, 200, &res)
	if res.Counts[0] != 2 {
		t.Fatalf("count after remove = %d, want 2", res.Counts[0])
	}
	// Exceeding c is a conflict, and the error reports progress.
	var conflict struct {
		Error   string `json:"error"`
		Applied int    `json:"applied"`
	}
	post(t, ts.URL+"/v1/multiplicity/add", map[string]any{"items": []map[string]any{
		{"key": "big", "count": 20},
	}}, 409, &conflict)
	if conflict.Applied != 16 {
		t.Fatalf("applied = %d before overflow, want 16 (= c)", conflict.Applied)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts := newTestServer(t, testConfig())
	keys := make([]string, 500)
	for i := range keys {
		keys[i] = fmt.Sprintf("element-%04d", i)
	}
	post(t, ts.URL+"/v1/membership/add", map[string]any{"keys": keys}, 200, nil)
	post(t, ts.URL+"/v1/membership/contains", map[string]any{"keys": keys[:10]}, 200, nil)
	var st Stats
	get(t, ts.URL+"/v1/stats", &st)
	if st.Membership.N != 500 {
		t.Fatalf("stats membership n = %d, want 500", st.Membership.N)
	}
	if st.Membership.Shards != 4 || len(st.Membership.PerShard) != 4 {
		t.Fatalf("stats shards = %d/%d, want 4", st.Membership.Shards, len(st.Membership.PerShard))
	}
	if st.Membership.EstimatedFPR <= 0 || st.Membership.EstimatedFPR >= 1 {
		t.Fatalf("estimated FPR = %g, want (0,1)", st.Membership.EstimatedFPR)
	}
	if st.Membership.FillRatio <= 0 {
		t.Fatal("fill ratio not reported")
	}
	perShardN := 0
	for _, sh := range st.Membership.PerShard {
		perShardN += sh.N
	}
	if perShardN != 500 {
		t.Fatalf("per-shard n sums to %d, want 500", perShardN)
	}
	if st.Queries["membership_add"] != 500 || st.Queries["membership_contains"] != 10 {
		t.Fatalf("query counters = %v", st.Queries)
	}
	if st.Association.ClearProb <= 0.9 {
		// (1−0.5^8)² ≈ 0.992 at k = 8.
		t.Fatalf("clear prob = %g, want ≈0.992", st.Association.ClearProb)
	}
}

func TestSnapshotSurvivesRestart(t *testing.T) {
	cfg := testConfig()
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "state.shbf")
	ts := newTestServer(t, cfg)

	memberKeys := []string{"m1", "m2", "m3"}
	post(t, ts.URL+"/v1/membership/add", map[string]any{"keys": memberKeys}, 200, nil)
	post(t, ts.URL+"/v1/association/add", map[string]any{"set": 1, "keys": []string{"a1", "ab"}}, 200, nil)
	post(t, ts.URL+"/v1/association/add", map[string]any{"set": 2, "keys": []string{"a2", "ab"}}, 200, nil)
	post(t, ts.URL+"/v1/multiplicity/add", map[string]any{"items": []map[string]any{
		{"key": "x", "count": 5},
	}}, 200, nil)

	var snap struct {
		Path  string `json:"path"`
		Bytes int    `json:"bytes"`
	}
	post(t, ts.URL+"/v1/snapshot", map[string]any{}, 200, &snap)
	if snap.Bytes <= 0 {
		t.Fatalf("snapshot wrote %d bytes", snap.Bytes)
	}

	// "Restart": a brand-new Server from the same config restores the
	// snapshot at startup and must answer identically.
	ts2 := newTestServer(t, cfg)
	var res struct {
		Results []bool `json:"results"`
	}
	post(t, ts2.URL+"/v1/membership/contains",
		map[string]any{"keys": append(memberKeys, "absent")}, 200, &res)
	for i := 0; i < 3; i++ {
		if !res.Results[i] {
			t.Fatalf("restart lost member %q", memberKeys[i])
		}
	}
	if res.Results[3] {
		t.Fatal("restart invented a member")
	}
	var cls struct {
		Results []struct {
			Clear bool `json:"clear"`
			InS1  bool `json:"in_s1"`
			InS2  bool `json:"in_s2"`
		} `json:"results"`
	}
	post(t, ts2.URL+"/v1/association/classify", map[string]any{"keys": []string{"a1", "ab", "a2"}}, 200, &cls)
	if !cls.Results[0].InS1 || cls.Results[0].InS2 {
		t.Fatalf("a1 after restart: %+v", cls.Results[0])
	}
	if !cls.Results[1].InS1 || !cls.Results[1].InS2 {
		t.Fatalf("ab after restart: %+v", cls.Results[1])
	}
	var cnt struct {
		Counts []int `json:"counts"`
	}
	post(t, ts2.URL+"/v1/multiplicity/count", map[string]any{"keys": []string{"x"}}, 200, &cnt)
	if cnt.Counts[0] != 5 {
		t.Fatalf("count after restart = %d, want 5", cnt.Counts[0])
	}
	// And the restored filters still accept updates.
	post(t, ts2.URL+"/v1/multiplicity/add", map[string]any{"items": []map[string]any{{"key": "x"}}}, 200, nil)
	post(t, ts2.URL+"/v1/multiplicity/count", map[string]any{"keys": []string{"x"}}, 200, &cnt)
	if cnt.Counts[0] != 6 {
		t.Fatalf("count after restored update = %d, want 6", cnt.Counts[0])
	}
}

// TestSnapshotV1Compat: a pre-envelope snapshot (version 1: three bare
// length-prefixed blobs in fixed order) is refused with an error that
// names the digest-pipeline determinism reset, and the daemon keeps its
// state. Every real v1 file predates that reset, so restoring one would
// serve silent false negatives. (The container below wraps current-
// pipeline blobs, which no daemon ever wrote as v1; only the version
// byte matters.)
func TestSnapshotV1Compat(t *testing.T) {
	cfg := testConfig()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	def := srv.defaultNS()
	def.mem.Add([]byte("v1-member"))

	buf := append([]byte(daemonSnapMagic), daemonSnapVersionV1)
	for _, m := range []interface{ MarshalBinary() ([]byte, error) }{def.mem, def.assoc, def.mult} {
		blob, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		buf = binary.AppendUvarint(buf, uint64(len(blob)))
		buf = append(buf, blob...)
	}
	path := filepath.Join(t.TempDir(), "v1.shbf")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	restored, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	restored.defaultNS().mem.Add([]byte("live"))
	err = restored.LoadSnapshot(path)
	if err == nil || !strings.Contains(err.Error(), "digest-pipeline determinism reset") {
		t.Fatalf("v1 snapshot: got %v, want a refusal naming the digest-pipeline reset", err)
	}
	if ns := restored.defaultNS(); !ns.mem.Contains([]byte("live")) || ns.mem.Contains([]byte("v1-member")) {
		t.Fatal("a refused v1 snapshot replaced the live state")
	}
	cfg.SnapshotPath = path
	if _, err := New(cfg); err == nil {
		t.Fatal("a daemon started on a v1 snapshot")
	}
}

// TestSnapshotRejectsDuplicateKinds: a namespace's snapshot section
// must hold exactly one filter of each kind; a duplicate would leave
// another slot silently empty. Exercised in both the pre-namespace v2
// container and a v3 namespace section, and for a filter no slot takes
// and for two membership filters of different forms.
func TestSnapshotRejectsDuplicateKinds(t *testing.T) {
	cfg := testConfig()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	def := srv.defaultNS()
	dupes := func(buf []byte) []byte {
		t.Helper()
		for _, f := range []shbf.Filter{def.mem, def.mem, def.assoc} {
			if buf, err = shbf.AppendDump(buf, f); err != nil {
				t.Fatal(err)
			}
		}
		return buf
	}
	v2 := dupes(append([]byte(daemonSnapMagic), daemonSnapVersionV2))
	v3 := append([]byte(daemonSnapMagic), daemonSnapVersion)
	v3 = binary.AppendUvarint(v3, 1)
	v3 = binary.AppendUvarint(v3, uint64(len(DefaultNamespace)))
	v3 = dupes(append(v3, DefaultNamespace...))
	for name, snap := range map[string][]byte{"v2": v2, "v3": v3} {
		path := filepath.Join(t.TempDir(), "dup.shbf")
		if err := os.WriteFile(path, snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := srv.LoadSnapshot(path); err == nil {
			t.Fatalf("%s snapshot with duplicate kinds accepted", name)
		}
	}

	// The slots take the filters by their serving surface, so neither an
	// unsharded filter nor a second membership filter in its other
	// (windowed) form may slip in.
	plain, err := shbf.New(shbf.Spec{Kind: shbf.KindMembership, M: 1 << 12, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	windowed, err := shbf.NewWindow(def.mem.Spec(), shbf.WindowOpts{Generations: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		filters []shbf.Filter
		want    string
	}{
		{"unsharded membership", []shbf.Filter{plain, def.assoc, def.mult}, "holds unexpected membership filter"},
		{"classic and windowed membership", []shbf.Filter{def.mem, windowed, def.assoc}, "holds two membership filters"},
	} {
		snap := append([]byte(daemonSnapMagic), daemonSnapVersion)
		snap = binary.AppendUvarint(snap, 1)
		snap = binary.AppendUvarint(snap, uint64(len(DefaultNamespace)))
		snap = append(snap, DefaultNamespace...)
		for _, f := range c.filters {
			if snap, err = shbf.AppendDump(snap, f); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(t.TempDir(), "slots.shbf")
		if err := os.WriteFile(path, snap, 0o644); err != nil {
			t.Fatal(err)
		}
		err := srv.LoadSnapshot(path)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: LoadSnapshot error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

func TestSnapshotWithoutPathIsConflict(t *testing.T) {
	ts := newTestServer(t, testConfig())
	post(t, ts.URL+"/v1/snapshot", map[string]any{}, 409, nil)
}

func TestMalformedRequests(t *testing.T) {
	ts := newTestServer(t, testConfig())
	resp, err := http.Post(ts.URL+"/v1/membership/add", "application/json",
		bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
	// Unknown fields are rejected, catching typoed batch shapes.
	post(t, ts.URL+"/v1/membership/add", map[string]any{"keyz": []string{"a"}}, 400, nil)
	// Wrong method.
	resp, err = http.Get(ts.URL + "/v1/membership/add")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on POST route: status %d, want 405", resp.StatusCode)
	}
}

func TestConcurrentClients(t *testing.T) {
	// Smoke test under -race: concurrent writers and readers across all
	// three filter kinds through the full HTTP stack.
	ts := newTestServer(t, testConfig())
	client := ts.Client()
	do := func(path string, body any) error {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			return fmt.Errorf("%s: status %d", path, resp.StatusCode)
		}
		return nil
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				key := fmt.Sprintf("w%d-i%d", w, i)
				if err := do("/v1/membership/add", map[string]any{"keys": []string{key}}); err != nil {
					t.Error(err)
					return
				}
				if err := do("/v1/membership/contains", map[string]any{"keys": []string{key}}); err != nil {
					t.Error(err)
					return
				}
				set := w%2 + 1
				if err := do("/v1/association/add", map[string]any{"set": set, "keys": []string{key}}); err != nil {
					t.Error(err)
					return
				}
				if err := do("/v1/association/classify", map[string]any{"keys": []string{key}}); err != nil {
					t.Error(err)
					return
				}
				if err := do("/v1/multiplicity/add", map[string]any{"items": []map[string]any{{"key": key}}}); err != nil {
					t.Error(err)
					return
				}
				if err := do("/v1/multiplicity/count", map[string]any{"keys": []string{key}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var st Stats
	get(t, ts.URL+"/v1/stats", &st)
	if want := uint64(workers * 40); st.Queries["membership_add"] != want {
		t.Fatalf("membership_add counter = %d, want %d", st.Queries["membership_add"], want)
	}
	if st.Membership.N != workers*40 {
		t.Fatalf("membership n = %d, want %d", st.Membership.N, workers*40)
	}
}
