package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"shbf/client"
)

// startDaemon runs the daemon with args plus a port-0 listener and
// returns its base URL and a stop function that waits for graceful
// shutdown.
func startDaemon(t *testing.T, args ...string) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		// Port-0 defaults for both listeners; later args override (the
		// last occurrence of a flag wins).
		errc <- run(ctx, append([]string{"-addr", "127.0.0.1:0", "-shbp-addr", "127.0.0.1:0"}, args...), ready)
	}()
	select {
	case addr := <-ready:
		return "http://" + addr, func() error {
			cancel()
			select {
			case err := <-errc:
				return err
			case <-time.After(10 * time.Second):
				return fmt.Errorf("daemon did not shut down")
			}
		}
	case err := <-errc:
		cancel()
		t.Fatalf("daemon failed to start: %v", err)
		return "", nil
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatal("daemon did not become ready")
		return "", nil
	}
}

func postJSON(t *testing.T, url string, body any, out any) {
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
	if resp.StatusCode != 200 {
		t.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFlagValidation(t *testing.T) {
	if err := run(context.Background(), []string{"-snapshot-every", "1s"}, nil); err == nil {
		t.Fatal("accepted -snapshot-every without -snapshot")
	}
	if err := run(context.Background(), []string{"-member-k", "7", "-addr", "127.0.0.1:0"}, nil); err == nil {
		t.Fatal("accepted odd membership k")
	}
}

// TestGCPercentPolicy: with GOGC unset, the daemon paces its collector
// at gcPercent; with GOGC set ("off" included), the percent the runtime
// took from it is left alone.
func TestGCPercentPolicy(t *testing.T) {
	const preset = 77 // stands in for the percent a GOGC value gave the runtime
	orig := debug.SetGCPercent(preset)
	t.Cleanup(func() { debug.SetGCPercent(orig) })

	for _, v := range []string{"off", "200"} {
		line := setGCPercent(func(key string) (string, bool) { return v, key == "GOGC" })
		if got := debug.SetGCPercent(preset); got != preset {
			t.Errorf("GOGC=%s: percent %d after setGCPercent, want %d left alone", v, got, preset)
		}
		if !strings.Contains(line, "GOGC="+v) {
			t.Errorf("GOGC=%s: log line %q does not name it", v, line)
		}
	}

	line := setGCPercent(func(string) (string, bool) { return "", false })
	if got := debug.SetGCPercent(preset); got != gcPercent {
		t.Errorf("GOGC unset: percent %d after setGCPercent, want %d", got, gcPercent)
	}
	if !strings.Contains(line, fmt.Sprintf("GOGC=%d", gcPercent)) {
		t.Errorf("GOGC unset: log line %q does not name %d", line, gcPercent)
	}
}

func TestPprofEndpoint(t *testing.T) {
	// Reserve a port for the profiling listener (closed again before
	// the daemon starts; the small reuse race is acceptable in a test),
	// then check the pprof index is served there and NOT on the query
	// port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pprofAddr := ln.Addr().String()
	ln.Close()

	url, stop := startDaemon(t,
		"-member-bits", "65536", "-assoc-bits", "65536", "-mult-bits", "131072",
		"-shards", "4", "-pprof-addr", pprofAddr)
	defer stop()

	resp, err := http.Get("http://" + pprofAddr + "/debug/pprof/")
	if err != nil {
		t.Fatalf("pprof index: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof index: status %d", resp.StatusCode)
	}

	resp, err = http.Get(url + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == 200 {
		t.Fatal("pprof endpoints must not be reachable on the query port")
	}
}

func TestServeAndGracefulSnapshot(t *testing.T) {
	// Small filters keep the test fast; the snapshot written on
	// SIGTERM-equivalent shutdown must seed an identical second run.
	snap := filepath.Join(t.TempDir(), "state.shbf")
	size := []string{
		"-member-bits", "65536", "-assoc-bits", "65536", "-mult-bits", "131072",
		"-shards", "4", "-snapshot", snap,
	}
	url, stop := startDaemon(t, size...)

	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	postJSON(t, url+"/v1/membership/add", map[string]any{"keys": []string{"persisted"}}, nil)
	postJSON(t, url+"/v1/multiplicity/add",
		map[string]any{"items": []map[string]any{{"key": "persisted", "count": 3}}}, nil)
	if err := stop(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}

	// Second daemon, same snapshot: answers must survive the restart.
	url2, stop2 := startDaemon(t, size...)
	defer stop2()
	var res struct {
		Results []bool `json:"results"`
	}
	postJSON(t, url2+"/v1/membership/contains", map[string]any{"keys": []string{"persisted", "other"}}, &res)
	if !res.Results[0] || res.Results[1] {
		t.Fatalf("after restart: contains = %v, want [true false]", res.Results)
	}
	var cnt struct {
		Counts []int `json:"counts"`
	}
	postJSON(t, url2+"/v1/multiplicity/count", map[string]any{"keys": []string{"persisted"}}, &cnt)
	if cnt.Counts[0] != 3 {
		t.Fatalf("after restart: count = %d, want 3", cnt.Counts[0])
	}
}

// TestShBPListener: the binary-protocol listener serves alongside
// HTTP — a ShBP write is visible to an HTTP read and vice versa, and
// namespaces created over ShBP persist through the graceful-shutdown
// snapshot.
func TestShBPListener(t *testing.T) {
	// Reserve a port for the binary listener (freed before the daemon
	// starts; the reuse race is acceptable in a test, as with pprof).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	shbpAddr := ln.Addr().String()
	ln.Close()

	snap := filepath.Join(t.TempDir(), "state.shbf")
	size := []string{
		"-member-bits", "65536", "-assoc-bits", "65536", "-mult-bits", "131072",
		"-shards", "4", "-snapshot", snap, "-shbp-addr", shbpAddr,
	}
	url, stop := startDaemon(t, size...)

	c, err := client.Dial("shbp://" + shbpAddr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateNamespace(client.NamespaceConfig{Name: "tenant"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Namespace("").Set().AddAll([][]byte{[]byte("via-shbp")}); err != nil {
		t.Fatal(err)
	}
	if err := c.Namespace("tenant").Set().AddAll([][]byte{[]byte("tenant-key")}); err != nil {
		t.Fatal(err)
	}
	var res struct {
		Results []bool `json:"results"`
	}
	postJSON(t, url+"/v1/membership/contains", map[string]any{"keys": []string{"via-shbp"}}, &res)
	if !res.Results[0] {
		t.Fatal("ShBP write invisible over HTTP")
	}
	c.Close()
	if err := stop(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}

	// Restart on the same snapshot: both namespaces and their keys
	// must survive.
	url2, stop2 := startDaemon(t, size...)
	defer stop2()
	c2, err := client.Dial("shbp://" + shbpAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if !c2.Namespace("").Set().Contains([]byte("via-shbp")) {
		t.Fatal("default namespace state lost across restart")
	}
	if !c2.Namespace("tenant").Set().Contains([]byte("tenant-key")) {
		t.Fatal("tenant namespace lost across restart")
	}
	_ = url2
}

// TestWindowFlags: -tick requires -window, and a windowed daemon
// rotates on its ticker so fresh keys expire without any /v1/rotate
// call.
func TestWindowFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-tick", "1s"}, nil); err == nil {
		t.Fatal("accepted -tick without -window")
	}
	if err := run(context.Background(), []string{"-window", "1", "-addr", "127.0.0.1:0"}, nil); err == nil {
		t.Fatal("accepted a one-generation window")
	}

	url, stop := startDaemon(t,
		"-member-bits", "65536", "-assoc-bits", "65536", "-mult-bits", "131072",
		"-shards", "4", "-window", "2", "-tick", "150ms")
	defer stop()

	postJSON(t, url+"/v1/membership/add", map[string]any{"keys": []string{"ticker-key"}}, nil)
	var res struct {
		Results []bool `json:"results"`
	}
	postJSON(t, url+"/v1/membership/contains", map[string]any{"keys": []string{"ticker-key"}}, &res)
	if !res.Results[0] {
		t.Fatal("fresh key invisible")
	}
	// After ≥ 2 ticks (two rotations of a G = 2 ring) the key must be
	// gone. Poll rather than sleep a fixed worst case.
	deadline := time.Now().Add(5 * time.Second)
	for {
		postJSON(t, url+"/v1/membership/contains", map[string]any{"keys": []string{"ticker-key"}}, &res)
		if !res.Results[0] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ticker never expired the key")
		}
		time.Sleep(50 * time.Millisecond)
	}
	var st struct {
		Membership struct {
			Window *struct {
				Generations int    `json:"generations"`
				Epoch       uint64 `json:"epoch"`
			} `json:"window"`
		} `json:"membership"`
	}
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Membership.Window == nil || st.Membership.Window.Generations != 2 {
		t.Fatalf("stats window metadata missing: %+v", st.Membership.Window)
	}
	if st.Membership.Window.Epoch < 2 {
		t.Fatalf("ticker produced only %d rotations", st.Membership.Window.Epoch)
	}
}
