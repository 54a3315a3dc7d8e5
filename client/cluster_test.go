package client_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"shbf"
	"shbf/client"
	"shbf/internal/clustertest"
	"shbf/internal/hashing"
	"shbf/internal/wire"
)

// The multi-node suite: every test boots real servers on loopback
// (internal/clustertest) and drives them through the routing client,
// so splitting, fan-out, reassembly and the error paths run over the
// actual transports.

// clusterKeys builds n distinct variable-width keys under a prefix.
func clusterKeys(prefix string, n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("%s-%05d", prefix, i))
	}
	return keys
}

// dialTestCluster boots nodes and dials the routing client from one
// seed address, the way an operator-facing tool would.
func dialTestCluster(t *testing.T, nodes, replication int) (*clustertest.Cluster, *client.Cluster) {
	t.Helper()
	tc := clustertest.Start(t, clustertest.Options{Nodes: nodes, Replication: replication})
	cl, err := client.DialCluster(tc.SeedAddr())
	if err != nil {
		t.Fatalf("DialCluster: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	return tc, cl
}

// localMembership builds the library filter a node's membership is
// byte-comparable against: same Spec, same seed, built from
// clustertest's per-node config exactly as the server builds it.
func localMembership(t *testing.T) shbf.Set {
	t.Helper()
	memSpec, _, _ := clustertest.DefaultConfig().Specs()
	f, err := shbf.New(memSpec)
	if err != nil {
		t.Fatal(err)
	}
	return f.(shbf.Set)
}

// primaryOf resolves a key's primary owner the same way the router
// does: digest high lane against the map's ranges.
func primaryOf(m *client.ClusterMap, key []byte) string {
	return m.RangeFor(hashing.KeyDigest(key).Hi).Owners[0]
}

// TestClusterFullReplicationMatchesLocal is the acceptance property:
// at R = N every node holds every key, and both the cluster's batch
// answers and each node's serialized membership must be byte-
// equivalent to one local library filter of the same Spec — remote ≡
// local, including the false-positive pattern.
func TestClusterFullReplicationMatchesLocal(t *testing.T) {
	tc, cl := dialTestCluster(t, 3, 3)
	keys := clusterKeys("present", 1500)
	absent := clusterKeys("absent", 1500)

	cns := cl.Namespace("default")
	if err := cns.AddAll(keys); err != nil {
		t.Fatalf("cluster AddAll: %v", err)
	}
	local := localMembership(t)
	if err := local.AddAll(keys); err != nil {
		t.Fatal(err)
	}

	probe := append(append([][]byte{}, keys...), absent...)
	got, err := cns.Check(probe)
	if err != nil {
		t.Fatalf("cluster Check: %v", err)
	}
	want := local.ContainsAll(nil, probe)
	for i := range probe {
		if got[i] != want[i] {
			t.Fatalf("key %q: cluster=%v local=%v — remote diverged from local", probe[i], got[i], want[i])
		}
	}

	// Every replica's serialized membership is byte-identical to the
	// local filter (writes reached all R owners, same one-pass digests,
	// same bit layout).
	wantEnv, err := shbf.AppendDump(nil, local.(shbf.Filter))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range tc.Nodes {
		env, err := cl.Client(n.ID).Namespace("default").MembershipEnvelope()
		if err != nil {
			t.Fatalf("%s: envelope: %v", n.ID, err)
		}
		if !bytes.Equal(env, wantEnv) {
			t.Fatalf("%s: membership envelope differs from local filter (%d vs %d bytes)",
				n.ID, len(env), len(wantEnv))
		}
	}
}

// TestClusterRoutingSplitsByOwner checks the R=1 partitioning: each
// key lands only on its primary owner, every node gets a share, and
// batch answers come back reassembled at the original positions.
func TestClusterRoutingSplitsByOwner(t *testing.T) {
	_, cl := dialTestCluster(t, 3, 1)
	keys := clusterKeys("routed", 900)
	cns := cl.Namespace("default")
	if err := cns.AddAll(keys); err != nil {
		t.Fatalf("cluster AddAll: %v", err)
	}

	// Independently recompute the expected split from the map and the
	// one-pass digests.
	expected := map[string][][]byte{}
	for _, k := range keys {
		id := primaryOf(cl.Map(), k)
		expected[id] = append(expected[id], k)
	}
	for _, n := range cl.Map().Nodes {
		share := expected[n.ID]
		if len(share) == 0 {
			t.Fatalf("%s: no keys routed (degenerate split)", n.ID)
		}
		nc := cl.Client(n.ID).Namespace("default")
		// The node holds exactly its share: membership N counts only the
		// keys routed there...
		st, err := nc.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Membership.N != len(share) {
			t.Fatalf("%s: membership N = %d, want %d (keys leaked across the split)",
				n.ID, st.Membership.N, len(share))
		}
		// ...and answers positively for all of them when asked directly.
		res, err := nc.Set().Check(share)
		if err != nil {
			t.Fatal(err)
		}
		for i, ok := range res {
			if !ok {
				t.Fatalf("%s: routed key %q missing", n.ID, share[i])
			}
		}
	}

	// Reassembly: per-key counts are position-distinguishable, so a
	// misplaced answer cannot cancel out.
	counts := make([]int, len(keys))
	for i := range counts {
		counts[i] = i%5 + 1
	}
	if err := cns.CounterAdd(keys, counts); err != nil {
		t.Fatalf("cluster CounterAdd: %v", err)
	}
	got, err := cns.Counts(keys)
	if err != nil {
		t.Fatalf("cluster Counts: %v", err)
	}
	for i := range keys {
		if got[i] != counts[i] {
			t.Fatalf("key %d: count %d, want %d — answers reassembled out of order", i, got[i], counts[i])
		}
	}

	// Association answers route to the same primaries: cluster Classify
	// must agree with asking each key's primary directly.
	s1 := keys[:300]
	byNode := map[string][][]byte{}
	for _, k := range s1 {
		id := primaryOf(cl.Map(), k)
		byNode[id] = append(byNode[id], k)
	}
	for id, share := range byNode {
		if err := cl.Client(id).Namespace("default").Associator().InsertAll(1, share); err != nil {
			t.Fatal(err)
		}
	}
	fromCluster, err := cns.Classify(keys[:600])
	if err != nil {
		t.Fatalf("cluster Classify: %v", err)
	}
	for i, k := range keys[:600] {
		direct, err := cl.Client(primaryOf(cl.Map(), k)).Namespace("default").Associator().Classify([][]byte{k})
		if err != nil {
			t.Fatal(err)
		}
		if fromCluster[i] != direct[0] {
			t.Fatalf("key %d: cluster region %v, primary node says %v", i, fromCluster[i], direct[0])
		}
	}
}

// TestClusterKillNodeReportsPerNodeFailure kills one node and checks
// the fan-out degrades into a precise per-node error: exactly the
// killed node fails, and its Indices are exactly the batch positions
// the map routed there — recomputed here independently.
func TestClusterKillNodeReportsPerNodeFailure(t *testing.T) {
	tc, cl := dialTestCluster(t, 3, 1)
	keys := clusterKeys("fault", 600)
	cns := cl.Namespace("default")
	if err := cns.AddAll(keys); err != nil {
		t.Fatal(err)
	}

	victim := tc.Nodes[1] // "n2"
	victim.Kill()

	var wantIdx []int
	for i, k := range keys {
		if primaryOf(cl.Map(), k) == victim.ID {
			wantIdx = append(wantIdx, i)
		}
	}
	if len(wantIdx) == 0 {
		t.Fatal("no keys routed to the victim; test fixture degenerate")
	}

	for name, call := range map[string]func() error{
		"read":  func() error { _, err := cns.Check(keys); return err },
		"write": func() error { return cns.AddAll(keys) },
	} {
		err := call()
		if err == nil {
			t.Fatalf("%s with a dead node succeeded", name)
		}
		var ce *client.ClusterError
		if !errors.As(err, &ce) {
			t.Fatalf("%s error is not a ClusterError: %v", name, err)
		}
		if len(ce.Errs) != 1 {
			t.Fatalf("%s: %d nodes failed, want 1: %v", name, len(ce.Errs), err)
		}
		ne := ce.Errs[0]
		if ne.Node != victim.ID {
			t.Fatalf("%s: failed node %s, want %s", name, ne.Node, victim.ID)
		}
		if len(ne.Indices) != len(wantIdx) {
			t.Fatalf("%s: %d failed indices, want %d", name, len(ne.Indices), len(wantIdx))
		}
		for i := range wantIdx {
			if ne.Indices[i] != wantIdx[i] {
				t.Fatalf("%s: failed index[%d] = %d, want %d", name, i, ne.Indices[i], wantIdx[i])
			}
		}
		// A dead TCP peer is not a daemon-reported status.
		if client.IsConflict(err) || client.IsNotFound(err) {
			t.Fatalf("%s: transport failure misread as a daemon status: %v", name, err)
		}
	}

	// The surviving nodes still answer batches that avoid the victim.
	var alive [][]byte
	for _, k := range keys {
		if primaryOf(cl.Map(), k) != victim.ID {
			alive = append(alive, k)
		}
	}
	res, err := cns.Check(alive)
	if err != nil {
		t.Fatalf("check on survivors: %v", err)
	}
	for i, ok := range res {
		if !ok {
			t.Fatalf("survivor key %q lost", alive[i])
		}
	}
}

// TestClusterConflictAppliedParity drives a deterministic mid-batch
// multiplicity overflow through the cluster over both transports: the
// failing node's NodeError must carry the node-reported applied split
// point, IsConflict must see through the ClusterError, and ShBP and
// HTTP must agree on both.
func TestClusterConflictAppliedParity(t *testing.T) {
	tc := clustertest.Start(t, clustertest.Options{Nodes: 3, Replication: 1})

	shbpCl, err := client.DialCluster(tc.SeedAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer shbpCl.Close()
	// Same cluster, HTTP-only map: clearing Addr makes DialClusterMap
	// fall back to each node's HTTP listener.
	hm := *tc.Map
	hm.Nodes = append([]client.ClusterNode(nil), tc.Map.Nodes...)
	for i := range hm.Nodes {
		hm.Nodes[i].Addr = ""
	}
	httpCl, err := client.DialClusterMap(&hm)
	if err != nil {
		t.Fatal(err)
	}
	defer httpCl.Close()

	type outcome struct {
		node    string
		applied uint64
	}
	var got map[string]outcome = map[string]outcome{}
	for transport, cl := range map[string]*client.Cluster{"shbp": shbpCl, "http": httpCl} {
		nsName := "parity-" + transport
		if err := cl.CreateNamespace(client.NamespaceConfig{Name: nsName}); err != nil {
			t.Fatal(err)
		}
		cns := cl.Namespace(nsName)

		// Three keys that all route to one node, so the whole batch is a
		// single sub-batch with a deterministic split point.
		target := primaryOf(cl.Map(), []byte(transport+"-conflict-seed"))
		var batch [][]byte
		for i := 0; len(batch) < 3; i++ {
			k := []byte(fmt.Sprintf("%s-conflict-%04d", transport, i))
			if primaryOf(cl.Map(), k) == target {
				batch = append(batch, k)
			}
		}
		// Pre-load the middle key near MaxCount (16), then overflow it
		// mid-batch. Multiplicity Applied counts increments: key 0's 5
		// land, key 1 takes 6 more before the 17th increment conflicts —
		// the split point is exactly 11 on both transports.
		if err := cns.CounterAdd(batch[1:2], []int{10}); err != nil {
			t.Fatal(err)
		}
		err := cns.CounterAdd(batch, []int{5, 10, 5})
		if err == nil {
			t.Fatalf("%s: overflow batch succeeded", transport)
		}
		if !client.IsConflict(err) {
			t.Fatalf("%s: overflow is not IsConflict: %v", transport, err)
		}
		var ce *client.ClusterError
		if !errors.As(err, &ce) || len(ce.Errs) != 1 {
			t.Fatalf("%s: want a single-node ClusterError, got %v", transport, err)
		}
		ne := ce.Errs[0]
		if ne.Node != target {
			t.Fatalf("%s: failed node %s, want %s", transport, ne.Node, target)
		}
		if ne.Applied != 11 {
			t.Fatalf("%s: applied split point %d, want 11", transport, ne.Applied)
		}
		got[transport] = outcome{ne.Node, ne.Applied}
	}
	if got["shbp"] != got["http"] {
		t.Fatalf("transports disagree: shbp=%+v http=%+v", got["shbp"], got["http"])
	}
}

// TestClusterCountedAddResumesInIncrements: a counted sub-batch that
// overflows midway reports its split point in increments, more than
// the sub-batch has keys, and NodeError.Applied's recipe finds the key
// each owner stopped at and how many of its increments landed.
// Resuming every failed node after that key leaves each owner holding
// every key at its target count.
func TestClusterCountedAddResumesInIncrements(t *testing.T) {
	_, cl := dialTestCluster(t, 3, 2)
	cns := cl.Namespace("default")
	keys := clusterKeys("counted", 60)
	counts := make([]int, len(keys))
	for i := range counts {
		counts[i] = 3
	}
	// MaxCount is 16: 16 of this key's 20 increments land on each
	// owner before the 17th conflicts.
	const over, landed = 45, 16
	counts[over] = 20

	err := cns.CounterAdd(keys, counts)
	var ce *client.ClusterError
	if !client.IsConflict(err) || !errors.As(err, &ce) {
		t.Fatalf("want a ClusterError conflict, got %v", err)
	}
	owners := cl.Map().RangeFor(hashing.KeyDigest(keys[over]).Hi).Owners
	if len(ce.Errs) != len(owners) {
		t.Fatalf("%d failed nodes, want the key's %d owners: %v", len(ce.Errs), len(owners), err)
	}
	for _, ne := range ce.Errs {
		if ne.Applied <= uint64(len(ne.Indices)) {
			t.Fatalf("%s: applied %d within %d keys; counted adds report increments", ne.Node, ne.Applied, len(ne.Indices))
		}
		// The recipe of NodeError.Applied.
		j, rest := 0, int(ne.Applied)
		for ; j < len(ne.Indices) && rest >= counts[ne.Indices[j]]; j++ {
			rest -= counts[ne.Indices[j]]
		}
		if j == len(ne.Indices) || ne.Indices[j] != over || rest != landed {
			t.Fatalf("%s: recipe stops at position %d with %d increments, want key %d with %d",
				ne.Node, j, rest, over, landed)
		}
		// The stopped key's rest would overflow again; resume after it.
		node := cl.Client(ne.Node).Namespace("default").Counter()
		for _, idx := range ne.Indices[j+1:] {
			if err := node.InsertCount(keys[idx], counts[idx]); err != nil {
				t.Fatal(err)
			}
		}
	}

	counts[over] = landed
	for i, k := range keys {
		for _, owner := range cl.Map().RangeFor(hashing.KeyDigest(k).Hi).Owners {
			got, err := cl.Client(owner).Namespace("default").Counter().Counts([][]byte{k})
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != counts[i] {
				t.Fatalf("key %d on %s: count %d, want %d", i, owner, got[0], counts[i])
			}
		}
	}
}

// TestClusterInFlightKillDoesNotHang is the accepted-then-shutdown
// regression at cluster scope: batches keep flowing while a node dies
// under them; every call must return (success or error), never hang.
func TestClusterInFlightKillDoesNotHang(t *testing.T) {
	tc, cl := dialTestCluster(t, 3, 1)
	keys := clusterKeys("inflight", 400)
	cns := cl.Namespace("default")
	if err := cns.AddAll(keys); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 60; i++ {
			cns.Check(keys)  // errors expected once the node dies
			cns.AddAll(keys) // idempotent membership writes
		}
	}()
	time.Sleep(10 * time.Millisecond)
	tc.Nodes[2].Kill()

	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cluster calls hung across a node kill")
	}
}

// TestClusterAntiEntropyMerge diverges two full replicas, ships each
// one's envelope to the other, and checks both converge to the same
// bytes — and to the same bytes as a local filter that held both key
// sets all along.
func TestClusterAntiEntropyMerge(t *testing.T) {
	_, cl := dialTestCluster(t, 2, 2)
	keysA := clusterKeys("replica-a", 400)
	keysB := clusterKeys("replica-b", 400)

	n1 := cl.Client("n1").Namespace("default")
	n2 := cl.Client("n2").Namespace("default")
	// Diverge the replicas behind the router's back, as a network
	// partition would.
	if err := n1.Set().AddAll(keysA); err != nil {
		t.Fatal(err)
	}
	if err := n2.Set().AddAll(keysB); err != nil {
		t.Fatal(err)
	}
	env1, err := n1.MembershipEnvelope()
	if err != nil {
		t.Fatal(err)
	}
	env2, err := n2.MembershipEnvelope()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(env1, env2) {
		t.Fatal("replicas did not diverge; fixture broken")
	}

	// Cross-merge the pre-divergence envelopes.
	if merged, err := n1.Merge(env2); err != nil || merged != uint64(len(keysB)) {
		t.Fatalf("n1.Merge = %d, %v; want %d", merged, err, len(keysB))
	}
	if merged, err := n2.Merge(env1); err != nil || merged != uint64(len(keysA)) {
		t.Fatalf("n2.Merge = %d, %v; want %d", merged, err, len(keysA))
	}

	// Both replicas and a from-scratch local filter agree byte for
	// byte.
	local := localMembership(t)
	if err := local.AddAll(keysA); err != nil {
		t.Fatal(err)
	}
	if err := local.AddAll(keysB); err != nil {
		t.Fatal(err)
	}
	wantEnv, err := shbf.AppendDump(nil, local.(shbf.Filter))
	if err != nil {
		t.Fatal(err)
	}
	for name, ns := range map[string]*client.Namespace{"n1": n1, "n2": n2} {
		env, err := ns.MembershipEnvelope()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(env, wantEnv) {
			t.Fatalf("%s: merged envelope differs from direct construction", name)
		}
	}

	// And the cluster answers the union, from either primary.
	probe := append(append([][]byte{}, keysA...), keysB...)
	res, err := cl.Namespace("default").Check(probe)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range res {
		if !ok {
			t.Fatalf("merged key %q missing", probe[i])
		}
	}
}

// TestMergeRejections drives the merge endpoint's refusal paths over
// both transports: garbage is a bad request, incompatible geometry or
// seed is a conflict, windowed tenants refuse, and unknown namespaces
// are not found. Both transports must report identical statuses.
func TestMergeRejections(t *testing.T) {
	d := startDaemon(t, testConfig())
	for transport, c := range d.clients(t) {
		t.Run(transport, func(t *testing.T) {
			def := c.Namespace("default")
			if err := def.Set().AddAll(clusterKeys(transport+"-seeded", 50)); err != nil {
				t.Fatal(err)
			}
			goodEnv, err := def.MembershipEnvelope()
			if err != nil {
				t.Fatal(err)
			}

			// Garbage body: bad request on both transports.
			_, err = def.Merge([]byte("definitely not a ShBE envelope"))
			var de *client.Error
			if !errors.As(err, &de) || de.Status != wire.StatusBadRequest {
				t.Fatalf("garbage merge: %v, want bad request", err)
			}

			// Geometry mismatch: conflict.
			if err := c.CreateNamespace(client.NamespaceConfig{
				Name: "big-" + transport, MembershipBits: 1 << 19}); err != nil {
				t.Fatal(err)
			}
			bigEnv, err := c.Namespace("big-" + transport).MembershipEnvelope()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := def.Merge(bigEnv); !client.IsConflict(err) {
				t.Fatalf("geometry-mismatched merge: %v, want conflict", err)
			}

			// Seed mismatch: conflict (same geometry, different hashes —
			// the union would be silent corruption).
			seed := uint64(99)
			if err := c.CreateNamespace(client.NamespaceConfig{
				Name: "seeded-" + transport, Seed: &seed}); err != nil {
				t.Fatal(err)
			}
			seededEnv, err := c.Namespace("seeded-" + transport).MembershipEnvelope()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := def.Merge(seededEnv); !client.IsConflict(err) {
				t.Fatalf("seed-mismatched merge: %v, want conflict", err)
			}

			// Windowed destination: conflict (generation rings don't
			// union; epoch alignment is a rebalancing concern).
			if err := c.CreateNamespace(client.NamespaceConfig{
				Name: "win-" + transport, WindowGenerations: intP(3)}); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Namespace("win-" + transport).Merge(goodEnv); !client.IsConflict(err) {
				t.Fatalf("merge into windowed tenant: %v, want conflict", err)
			}

			// Unknown namespace: not found.
			if _, err := c.Namespace("absent-" + transport).Merge(goodEnv); !client.IsNotFound(err) {
				t.Fatalf("merge into unknown namespace: %v, want not found", err)
			}
		})
	}
}

// TestClusterMapNotFoundOutsideClusterMode: a daemon started without
// -cluster-file answers the map endpoints not-found on both
// transports, and DialCluster against it fails cleanly.
func TestClusterMapNotFoundOutsideClusterMode(t *testing.T) {
	d := startDaemon(t, testConfig())
	for transport, c := range d.clients(t) {
		if _, err := c.ClusterMap(); !client.IsNotFound(err) {
			t.Fatalf("%s: ClusterMap on non-cluster daemon: %v, want not found", transport, err)
		}
	}
	if _, err := client.DialCluster(d.shbp.Addr().String()); !client.IsNotFound(err) {
		t.Fatalf("DialCluster against non-cluster daemon: %v, want not found", err)
	}
}

// TestDialClusterWithDeadNode: a node that is already down when the
// client dials must not block the fleet dial — per-node connections
// are lazy, so the dead node degrades to a NodeError on the batches it
// owns while the survivors keep answering.
func TestDialClusterWithDeadNode(t *testing.T) {
	tc := clustertest.Start(t, clustertest.Options{Nodes: 3, Replication: 1})
	keys := clusterKeys("lazy", 600)

	boot, err := client.DialCluster(tc.SeedAddr())
	if err != nil {
		t.Fatalf("DialCluster: %v", err)
	}
	if err := boot.Namespace("default").AddAll(keys); err != nil {
		t.Fatal(err)
	}
	boot.Close()

	victim := tc.Nodes[2]
	victim.Kill()

	// A fresh dial from a surviving seed succeeds with the node down.
	cl, err := client.DialCluster(tc.SeedAddr())
	if err != nil {
		t.Fatalf("DialCluster with a dead node: %v", err)
	}
	defer cl.Close()

	var alive, dead [][]byte
	for _, k := range keys {
		if primaryOf(cl.Map(), k) == victim.ID {
			dead = append(dead, k)
		} else {
			alive = append(alive, k)
		}
	}
	if len(dead) == 0 || len(alive) == 0 {
		t.Fatalf("degenerate split: %d dead, %d alive", len(dead), len(alive))
	}

	// Batches avoiding the dead node's ranges answer fully.
	hits, err := cl.Namespace("default").Check(alive)
	if err != nil {
		t.Fatalf("Check on surviving nodes: %v", err)
	}
	for i, hit := range hits {
		if !hit {
			t.Fatalf("key %d lost after node death", i)
		}
	}

	// Batches touching the dead node report exactly that node.
	_, err = cl.Namespace("default").Check(keys)
	var ne *client.NodeError
	if !errors.As(err, &ne) {
		t.Fatalf("Check including dead node: %v, want NodeError", err)
	}
	if ne.Node != victim.ID {
		t.Fatalf("failed node = %q, want %q", ne.Node, victim.ID)
	}
	if len(ne.Indices) != len(dead) {
		t.Fatalf("failed indices = %d, want %d", len(ne.Indices), len(dead))
	}
}

// TestMultiplicityMergeAcrossTransports diverges two tenants' counting
// filters, ships one's multiplicity envelope into the other over both
// transports, and checks the merged filter reports at least the larger
// of the two sides' multiplicities — the counting-union contract edge
// agents pre-aggregate against — and that re-merging the same envelope
// changes no reported count.
func TestMultiplicityMergeAcrossTransports(t *testing.T) {
	d := startDaemon(t, testConfig())
	for transport, c := range d.clients(t) {
		t.Run(transport, func(t *testing.T) {
			nsA, nsB := "count-a-"+transport, "count-b-"+transport
			for _, name := range []string{nsA, nsB} {
				if err := c.CreateNamespace(client.NamespaceConfig{Name: name}); err != nil {
					t.Fatal(err)
				}
			}
			a, b := c.Namespace(nsA).Counter(), c.Namespace(nsB).Counter()
			keys := clusterKeys(transport+"-count", 60)
			for i, k := range keys {
				if err := a.InsertCount(k, 1+i%3); err != nil {
					t.Fatal(err)
				}
				if err := b.InsertCount(k, 1+(i*2)%5); err != nil {
					t.Fatal(err)
				}
			}
			env, err := c.Namespace(nsB).MultiplicityEnvelope()
			if err != nil {
				t.Fatal(err)
			}
			merged, err := c.Namespace(nsA).MergeMultiplicity(env)
			if err != nil {
				t.Fatalf("MergeMultiplicity: %v", err)
			}
			if merged != uint64(len(keys)) {
				t.Fatalf("merged = %d, want %d", merged, len(keys))
			}
			first, err := a.Counts(keys)
			if err != nil {
				t.Fatal(err)
			}
			for i := range keys {
				want := 1 + i%3
				if w2 := 1 + (i*2)%5; w2 > want {
					want = w2
				}
				if first[i] < want {
					t.Fatalf("key %d: merged count %d underestimates %d", i, first[i], want)
				}
			}
			// Duplicate delivery of the same envelope (a retry, a UDP
			// re-send) must not change any reported count.
			if _, err := c.Namespace(nsA).MergeMultiplicity(env); err != nil {
				t.Fatalf("re-merge: %v", err)
			}
			again, err := a.Counts(keys)
			if err != nil {
				t.Fatal(err)
			}
			for i := range keys {
				if first[i] != again[i] {
					t.Fatalf("key %d: count changed %d → %d on re-merge", i, first[i], again[i])
				}
			}
		})
	}
}

// TestMultiplicityMergeRejections drives the counting merge's refusal
// paths over both transports, including the kind cross-checks: a
// membership envelope posted to the multiplicity merge (and vice
// versa) is a bad request, not a silent corruption.
func TestMultiplicityMergeRejections(t *testing.T) {
	d := startDaemon(t, testConfig())
	for transport, c := range d.clients(t) {
		t.Run(transport, func(t *testing.T) {
			def := c.Namespace("default")
			if err := def.Counter().AddAll(clusterKeys(transport+"-mseed", 40)); err != nil {
				t.Fatal(err)
			}
			goodEnv, err := def.MultiplicityEnvelope()
			if err != nil {
				t.Fatal(err)
			}

			// Garbage body: bad request.
			var de *client.Error
			if _, err := def.MergeMultiplicity([]byte("not a ShBE envelope")); !errors.As(err, &de) || de.Status != wire.StatusBadRequest {
				t.Fatalf("garbage merge: %v, want bad request", err)
			}

			// Kind cross-checks: each merge endpoint refuses the other
			// side's envelope.
			memEnv, err := def.MembershipEnvelope()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := def.MergeMultiplicity(memEnv); !errors.As(err, &de) || de.Status != wire.StatusBadRequest {
				t.Fatalf("membership envelope into multiplicity merge: %v, want bad request", err)
			}
			if _, err := def.Merge(goodEnv); !errors.As(err, &de) || de.Status != wire.StatusBadRequest {
				t.Fatalf("multiplicity envelope into membership merge: %v, want bad request", err)
			}

			// Geometry mismatch: conflict.
			if err := c.CreateNamespace(client.NamespaceConfig{
				Name: "mbig-" + transport, MultiplicityBits: 1 << 20}); err != nil {
				t.Fatal(err)
			}
			bigEnv, err := c.Namespace("mbig-" + transport).MultiplicityEnvelope()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := def.MergeMultiplicity(bigEnv); !client.IsConflict(err) {
				t.Fatalf("geometry-mismatched merge: %v, want conflict", err)
			}

			// Windowed destination: conflict.
			if err := c.CreateNamespace(client.NamespaceConfig{
				Name: "mwin-" + transport, WindowGenerations: intP(3)}); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Namespace("mwin-" + transport).MergeMultiplicity(goodEnv); !client.IsConflict(err) {
				t.Fatalf("merge into windowed tenant: %v, want conflict", err)
			}

			// Unknown namespace: not found.
			if _, err := c.Namespace("mabsent-" + transport).MergeMultiplicity(goodEnv); !client.IsNotFound(err) {
				t.Fatalf("merge into unknown namespace: %v, want not found", err)
			}
		})
	}
}
