package ingest_test

import (
	"io"
	"testing"

	"shbf"
	"shbf/internal/flowkeys"
	"shbf/internal/ingest"
	"shbf/internal/server"
)

// TestGateEnvelopeWireRatio: at 100k keys per flush, a cumulative
// envelope flush costs ≥ 5× fewer wire bytes per key than direct
// add-batches, the reason the pre-aggregating tier exists. The envelope
// filter is the daemon's default membership geometry at 1 Mibit, about
// what shbf.PlanMembership gives for 100k keys at 1% FPR (OPERATIONS
// §14's sizing rule for edge agents). Byte counts come from the agents'
// own accounting, so the ratio is exact and the same on every host.
func TestGateEnvelopeWireRatio(t *testing.T) {
	const flushKeys = 100_000
	cfg := server.DefaultConfig()
	cfg.MembershipBits = 1 << 20
	memSpec, _, _ := cfg.Specs()
	keys := flowkeys.Keys(flushKeys)

	bytesPerKey := func(acfg ingest.AgentConfig) float64 {
		a, err := ingest.NewAgent(io.Discard, acfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.AddAll(keys); err != nil {
			t.Fatal(err)
		}
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
		return float64(a.Stats().BytesSent) / flushKeys
	}
	filter, err := shbf.New(memSpec)
	if err != nil {
		t.Fatal(err)
	}
	direct := bytesPerKey(ingest.AgentConfig{Namespace: server.DefaultNamespace, Source: 1, Mode: ingest.ModeKeys})
	envelope := bytesPerKey(ingest.AgentConfig{Namespace: server.DefaultNamespace, Source: 2, Mode: ingest.ModeEnvelope, Filter: filter})
	got := direct / envelope
	t.Logf("direct %.2f ÷ envelope %.2f wire B/key at %d keys/flush: %.2f×", direct, envelope, flushKeys, got)
	if got < 5 {
		t.Errorf("envelope flush saves %.2f× wire bytes/key, below the 5× gate", got)
	}
}
