//go:build perfgate

package client_test

// gate_test.go holds the serving layer's timing gates. A wall-clock
// ratio is a property of the host as much as of the code, so they run
// only with -tags perfgate, in CI's bench job:
//
//	go test -tags perfgate -run '^TestGate' -count=1 -v ./...
//
// Each gate times its sides call by call and gates on the median of
// the per-round values (medianRatio): adjacent calls see the same
// frequency, steal and co-tenants, and the median ignores the rounds a
// preemption lands in. Every daemon runs server.DefaultConfig() in
// process, over loopback TCP.

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"shbf/client"
	"shbf/internal/clustertest"
	"shbf/internal/flowkeys"
	"shbf/internal/hashing"
	"shbf/internal/server"
)

// medianRatio runs the given number of rounds. Each round calls every
// side once and times each call; which side goes first rotates by one
// each round (AB, BA, ... for two sides), so no side always runs in
// another's wake. ratio maps one round's call times in nanoseconds, in
// side order, to the gated value, and medianRatio returns the median
// of those values.
func medianRatio(t *testing.T, rounds int, ratio func(ns []float64) float64, sides ...func() error) float64 {
	t.Helper()
	ns := make([]float64, len(sides))
	vals := make([]float64, rounds)
	for r := range vals {
		for i := range sides {
			s := (r + i) % len(sides)
			start := time.Now()
			if err := sides[s](); err != nil {
				t.Fatal(err)
			}
			ns[s] = float64(time.Since(start))
		}
		vals[r] = ratio(ns)
	}
	sort.Float64s(vals)
	return vals[rounds/2]
}

// gateKeys is the serving gates' workload: 64Ki 13-byte flow-ID
// members, and 64Ki probes that alternate member and non-member.
func gateKeys() (members, probes [][]byte) {
	const nMembers = 1 << 16
	pool := flowkeys.Keys(2 * nMembers)
	members = pool[:nMembers]
	probes = append([][]byte{}, pool[nMembers:]...)
	for i := 0; i < len(probes); i += 2 {
		probes[i] = members[i]
	}
	return members, probes
}

// gateSets starts a daemon with cfg, preloads members, and returns
// the default namespace's membership handle on each transport.
func gateSets(t *testing.T, cfg server.Config, members [][]byte) (shbp, json *client.Set) {
	t.Helper()
	cl := startDaemon(t, cfg).clients(t)
	shbp, json = cl["shbp"].Namespace("").Set(), cl["http"].Namespace("").Set()
	if err := shbp.AddAll(members); err != nil {
		t.Fatal(err)
	}
	return shbp, json
}

// TestGateShBPvsJSON: ShBP ContainsAll at 256-key batches serves ≥ 3×
// the HTTP/JSON path's keys/s, the binary protocol's reason to exist.
func TestGateShBPvsJSON(t *testing.T) {
	members, probes := gateKeys()
	shbp, json := gateSets(t, server.DefaultConfig(), members)
	query := probes[:256]
	got := medianRatio(t, 1000, func(ns []float64) float64 { return ns[1] / ns[0] },
		func() error { _, err := shbp.Check(query); return err },
		func() error { _, err := json.Check(query); return err })
	t.Logf("ShBP ÷ JSON ContainsAll@256 keys/s: %.2f× (cpus=%d)", got, runtime.NumCPU())
	if got < 3 {
		t.Errorf("ShBP ContainsAll@256 is %.2f× JSON keys/s, below the 3× gate", got)
	}
}

// TestGateMetricsOverhead: the metrics layer costs ≤ 5% of ShBP
// ContainsAll@256 keys/s against an identically loaded daemon with
// Config.NoMetrics set.
func TestGateMetricsOverhead(t *testing.T) {
	members, probes := gateKeys()
	bareCfg := server.DefaultConfig()
	bareCfg.NoMetrics = true
	inst, _ := gateSets(t, server.DefaultConfig(), members)
	bare, _ := gateSets(t, bareCfg, members)
	query := probes[:256]
	got := medianRatio(t, 4000, func(ns []float64) float64 { return ns[1] / ns[0] },
		func() error { _, err := inst.Check(query); return err },
		func() error { _, err := bare.Check(query); return err })
	t.Logf("instrumented ÷ NoMetrics ShBP ContainsAll@256 keys/s: %.3f (cpus=%d)", got, runtime.NumCPU())
	if got < 0.95 {
		t.Errorf("instrumented daemon serves %.3f× the NoMetrics daemon's keys/s, below the 0.95 floor", got)
	}
}

// TestGateClusterCapacity: a 3-node R=1 cluster offers ≥ 2× one node's
// ContainsAll keys/s at 4096-key batches. Each node serves its own
// share of the probes over a direct client, and the per-node keys/s
// are summed. Cluster nodes deploy on separate machines, so the sum is
// the cluster's capacity whatever this host's core count; a fan-out
// wall-clock ratio would need ≥ 3 idle cores to show it.
func TestGateClusterCapacity(t *testing.T) {
	const batch = 4096
	members, probes := gateKeys()
	cfg := server.DefaultConfig()
	single, _ := gateSets(t, cfg, members)
	tc := clustertest.Start(t, clustertest.Options{Nodes: 3, Replication: 1, Config: cfg})
	cl, err := client.DialCluster(tc.SeedAddr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if err := cl.Namespace("default").AddAll(members); err != nil {
		t.Fatal(err)
	}
	// Route each probe as the cluster does: digest high lane against the
	// map's ranges.
	shares := map[string][][]byte{}
	for _, k := range probes {
		id := tc.Map.RangeFor(hashing.KeyDigest(k).Hi).Owners[0]
		shares[id] = append(shares[id], k)
	}
	query := probes[:batch]
	sides := []func() error{func() error { _, err := single.Check(query); return err }}
	for _, n := range tc.Nodes {
		share := shares[n.ID]
		if len(share) < batch {
			t.Fatalf("node %s owns %d probes, fewer than a %d-key batch", n.ID, len(share), batch)
		}
		set := cl.Client(n.ID).Namespace("default").Set()
		sides = append(sides, func() error { _, err := set.Check(share[:batch]); return err })
	}
	got := medianRatio(t, 300, func(ns []float64) float64 {
		var sum float64
		for _, node := range ns[1:] {
			sum += ns[0] / node
		}
		return sum
	}, sides...)
	t.Logf("Σ per-node ÷ single-node ContainsAll@%d keys/s: %.2f× (cpus=%d)", batch, got, runtime.NumCPU())
	if got < 2 {
		t.Errorf("3-node capacity is %.2f× single-node keys/s, below the 2× gate", got)
	}
}
