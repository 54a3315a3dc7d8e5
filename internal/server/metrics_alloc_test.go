//go:build !race

// (The race detector adds shadow-state allocations, so allocs/op is
// meaningless under -race; the race CI row still runs everything else
// in this package.)

package server

import (
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
}
