//go:build !race

// (The race detector adds shadow-state allocations, so allocs/op is
// meaningless under -race; the race CI row still runs everything else
// in this package.)

package server

import (
	"bytes"
	"fmt"
	"testing"

	"shbf/internal/wire"
)

// Zero-allocation guards for the instrumented ShBP dispatch path: the
// metrics layer must cost the hot loop only atomic adds — recording a
// frame is two array loads (op-indexed instrument tables) plus a
// histogram Observe, none of which may allocate. The first AllocsPerRun
// invocation is discarded, which is when the dispatch scratch and the
// filter plan pools reach steady size.

func requireZeroAllocs(t *testing.T, name string, runs int, fn func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(runs, fn); avg != 0 {
		t.Errorf("%s: %.2f allocs/op, want 0", name, avg)
	}
}

func TestInstrumentedDispatchAllocFree(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInflightFrames = 64 // include the frame-gate branch in the measured path
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.met == nil {
		t.Fatal("metrics unexpectedly disabled")
	}

	keys := make([][]byte, 256)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("alloc-flow-%08d", i))
	}
	var resp wire.Response
	var sc dispatchScratch

	addReq := wire.Request{Op: wire.OpMembershipAdd, Keys: keys}
	containsReq := wire.Request{Op: wire.OpMembershipContains, Keys: keys}
	countReq := wire.Request{Op: wire.OpMultiplicityCount, Keys: keys}
	classifyReq := wire.Request{Op: wire.OpAssociationQuery, Keys: keys[:16]}
	pingReq := wire.Request{Op: wire.OpPing}

	// Warm the pools and scratch outside the measurement.
	s.handleFrame(&addReq, &resp, &sc)
	if resp.Status != wire.StatusOK {
		t.Fatalf("warm-up add: status %d (%s)", resp.Status, resp.Msg)
	}
	s.handleFrame(&containsReq, &resp, &sc)
	s.handleFrame(&countReq, &resp, &sc)
	s.handleFrame(&classifyReq, &resp, &sc)

	requireZeroAllocs(t, "handleFrame/membership-add", 100, func() {
		s.handleFrame(&addReq, &resp, &sc)
	})
	requireZeroAllocs(t, "handleFrame/membership-contains", 100, func() {
		s.handleFrame(&containsReq, &resp, &sc)
	})
	requireZeroAllocs(t, "handleFrame/multiplicity-count", 100, func() {
		s.handleFrame(&countReq, &resp, &sc)
	})
	requireZeroAllocs(t, "handleFrame/association-query", 100, func() {
		s.handleFrame(&classifyReq, &resp, &sc)
	})
	requireZeroAllocs(t, "handleFrame/ping", 100, func() {
		s.handleFrame(&pingReq, &resp, &sc)
	})
	if resp.Status != wire.StatusOK {
		t.Fatalf("status %d after measurement (%s)", resp.Status, resp.Msg)
	}

	// A frame as serveShBPConn takes it, on a connection that keeps
	// addressing one created tenant: ReadFrame into a reused buffer,
	// DecodeRequest into a reused Request, then handleFrame. Neither
	// the length prefix nor the namespace may allocate.
	s.handleFrame(&wire.Request{Op: wire.OpNamespaceCreate, Blob: []byte(`{"name":"alloc-tenant"}`)}, &resp, &sc)
	if resp.Status != wire.StatusOK {
		t.Fatalf("namespace create: status %d (%s)", resp.Status, resp.Msg)
	}
	frame, err := wire.AppendRequest(nil, &wire.Request{
		Op: wire.OpMembershipContains, Namespace: "alloc-tenant", KeyWidth: len(keys[0]), Keys: keys[:16]})
	if err != nil {
		t.Fatal(err)
	}
	var (
		rd  = bytes.NewReader(frame)
		buf []byte
		req wire.Request
	)
	readAndHandle := func() {
		rd.Reset(frame)
		var err error
		if buf, err = wire.ReadFrame(rd, buf); err != nil {
			t.Fatal(err)
		}
		if err = wire.DecodeRequest(&req, buf); err != nil {
			t.Fatal(err)
		}
		s.handleFrame(&req, &resp, &sc)
	}
	readAndHandle()
	requireZeroAllocs(t, "ReadFrame+DecodeRequest+handleFrame/namespace-contains", 100, readAndHandle)
	if resp.Status != wire.StatusOK || len(resp.Bools) != 16 {
		t.Fatalf("namespace contains: status %d (%s), %d answers", resp.Status, resp.Msg, len(resp.Bools))
	}
}
