package client

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"shbf"
	"shbf/internal/cluster"
	"shbf/internal/hashing"
	"shbf/internal/wire"
)

// Cluster-mode client: one logical handle over N shbfd nodes. The
// cluster map (internal/cluster) partitions the 64-bit digest ring
// across nodes; every batch is split by owner — each key's one-pass
// digest high lane looked up against the map's ranges, the same lane
// whose low bits route to lock-striped shards inside a node — fanned
// out to the owner nodes' per-node [Client]s in parallel, and the
// per-node answers reassembled in the batch's original key order.
// Reads route to each range's primary (first owner); writes go to all
// R owners, which is what keeps replicas convergent enough for the
// envelope-merge anti-entropy to close the gaps (see
// [Namespace.Merge]).
//
// Reads fail over: when a range's primary is unreachable, times out,
// or sheds the request ([IsOverloaded]), the sub-batch is re-sent to
// the next owner in the range's replica list, walking all R owners
// before the failure surfaces. Union replication makes replica reads
// superset-safe — every acked write reached all R owners, so any
// replica answers at least what the primary would (a Bloom filter
// never loses bits; a lagging replica can only be missing unacked
// writes). Writes never fail over: they already address every owner,
// and a per-node failure is reported with its resume point.

// ClusterMap is the cluster document: nodes plus hash-range ownership
// (see shbf/internal/cluster for the format and invariants).
type ClusterMap = cluster.Map

// ClusterNode is one node entry in a ClusterMap.
type ClusterNode = cluster.Node

// ClusterRange is one hash-range entry in a ClusterMap.
type ClusterRange = cluster.Range

// ClusterMap fetches the daemon's cluster map (GET /v2/cluster / the
// cluster-map op). A daemon started without -cluster-file reports
// not-found (IsNotFound).
func (c *Client) ClusterMap() (*ClusterMap, error) {
	resp, err := c.do(&wire.Request{Op: wire.OpClusterMap})
	if err != nil {
		return nil, err
	}
	m, err := cluster.Decode(resp.Blob)
	if err != nil {
		return nil, fmt.Errorf("client: decoding cluster map: %w", err)
	}
	return m, nil
}

// NodeError is one node's failure inside a fanned-out cluster call.
type NodeError struct {
	// Node is the failing node's ID in the cluster map.
	Node string
	// Indices are the original batch positions of the keys routed to
	// this node, in the order they were sent — the node's sub-batch is
	// keys[Indices[0]], keys[Indices[1]], ... of the caller's batch.
	Indices []int
	// Applied is the node-reported mid-batch split point within the
	// node's own sub-batch (daemon-reported failures only): sub-batch
	// updates before it stay applied. Other nodes' sub-batches are
	// reported independently — a fan-out has no global split point.
	//
	// For AddAll and for CounterAdd with nil counts Applied counts
	// keys, so the caller resumes this node from
	// keys[Indices[Applied:]].
	//
	// For counted adds (CounterAdd with counts) the daemon counts
	// increments, not keys, so Applied can exceed len(Indices). Walk
	// the sub-batch in order, subtracting counts[Indices[j]] from
	// Applied while what is left covers the whole count. The key the
	// walk stops at, keys[Indices[j]], had the remaining Applied of its
	// increments applied; resume this node with that key's rest
	// (counts[Indices[j]] minus the remainder), then keys[Indices[j+1:]]
	// with their full counts.
	Applied uint64
	// Err is the underlying failure (*Error for daemon-reported ones).
	Err error
}

// Error implements the error interface.
func (e *NodeError) Error() string {
	return fmt.Sprintf("node %s (%d keys, %d applied): %v", e.Node, len(e.Indices), e.Applied, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *NodeError) Unwrap() error { return e.Err }

// ClusterError aggregates the per-node failures of one fanned-out
// call. Nodes absent from Errs completed their sub-batches. It unwraps
// into every node's error, so IsConflict and IsNotFound see through it
// to the daemon-reported statuses.
type ClusterError struct {
	// Errs holds one entry per failed node, ordered by node ID.
	Errs []*NodeError
}

// Error implements the error interface.
func (e *ClusterError) Error() string {
	msgs := make([]string, len(e.Errs))
	for i, ne := range e.Errs {
		msgs[i] = ne.Error()
	}
	return fmt.Sprintf("client: %d cluster node(s) failed: %s",
		len(e.Errs), strings.Join(msgs, "; "))
}

// Unwrap exposes every node's failure to errors.Is/As.
func (e *ClusterError) Unwrap() []error {
	errs := make([]error, len(e.Errs))
	for i, ne := range e.Errs {
		errs[i] = ne
	}
	return errs
}

// Cluster is a routing client over every node of one cluster map. Safe
// for concurrent use (each per-node Client serializes its own
// connection; run several Clusters for more connection parallelism).
type Cluster struct {
	m     *cluster.Map
	nodes map[string]*Client
	stats *clusterStats // shared by every derived router; see Stats
}

// DialCluster bootstraps from one seed node: it dials the seed with
// [Dial], fetches the cluster map any node serves, then sets up a
// per-node client for every node in the map (ShBP via the node's addr;
// http_addr-only nodes over HTTP). Only the seed must be reachable:
// per-node connections are established lazily on first use, so a node
// that is down at dial time degrades to a NodeError on the batches it
// owns rather than failing the whole fleet dial.
func DialCluster(seed string) (*Cluster, error) {
	c, err := Dial(seed)
	if err != nil {
		return nil, err
	}
	m, err := c.ClusterMap()
	c.Close()
	if err != nil {
		return nil, err
	}
	return DialClusterMap(m)
}

// DialClusterMap builds the router over a known map (e.g. loaded from
// the operator's -cluster-file with cluster.LoadFile). No connections
// are made here — each node is dialed on its first round trip.
func DialClusterMap(m *ClusterMap) (*Cluster, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	nodes := make(map[string]*Client, len(m.Nodes))
	for _, n := range m.Nodes {
		if n.Addr != "" {
			nodes[n.ID] = dialBinaryLazy(strings.TrimPrefix(n.Addr, "shbp://"))
		} else {
			nodes[n.ID] = &Client{t: newHTTPTransport("http://"+n.HTTPAddr, nil), stats: new(clientStats)}
		}
	}
	return &Cluster{m: m, nodes: nodes, stats: newClusterStats(m)}, nil
}

// failover reports whether a read sub-batch's failure is worth
// re-sending to the next replica: transport failures (unreachable,
// reset, a per-call deadline that still leaves context budget) and
// daemon overload qualify; deterministic daemon answers and an
// exhausted caller context do not.
func failover(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var e *Error
	if errors.As(err, &e) {
		return e.Status == wire.StatusOverloaded
	}
	return true // transport-level failure
}

// WithContext returns a router over the same per-node connections
// whose calls are bounded by ctx (see [Client.WithContext]). The
// original router is unchanged.
func (cl *Cluster) WithContext(ctx context.Context) *Cluster {
	nodes := make(map[string]*Client, len(cl.nodes))
	for id, c := range cl.nodes {
		nodes[id] = c.WithContext(ctx)
	}
	return &Cluster{m: cl.m, nodes: nodes, stats: cl.stats}
}

// WithRetry returns a router over the same per-node connections whose
// per-node calls retry per p (see [Client.WithRetry]). Retries happen
// against one node before read failover moves to the next replica.
func (cl *Cluster) WithRetry(p RetryPolicy) *Cluster {
	nodes := make(map[string]*Client, len(cl.nodes))
	for id, c := range cl.nodes {
		nodes[id] = c.WithRetry(p)
	}
	return &Cluster{m: cl.m, nodes: nodes, stats: cl.stats}
}

// Map returns the cluster map the router was built from.
func (cl *Cluster) Map() *ClusterMap { return cl.m }

// Client returns the per-node client for one node ID (nil for unknown
// IDs) — the direct line tests and anti-entropy tooling use to talk to
// one replica.
func (cl *Cluster) Client(nodeID string) *Client { return cl.nodes[nodeID] }

// Close closes every per-node client.
func (cl *Cluster) Close() error {
	var first error
	for _, c := range cl.nodes {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// CreateNamespace creates a tenant on every node (cluster batches
// address one namespace, so it must exist everywhere). Partial failure
// is a ClusterError; already-exists conflicts on some nodes are
// reported, letting the caller treat "exists everywhere" as success.
func (cl *Cluster) CreateNamespace(cfg NamespaceConfig) error {
	return cl.fan(cl.allNodes(), func(c *Client, _ *nodeBatch) error {
		return c.CreateNamespace(cfg)
	})
}

// DeleteNamespace deletes a tenant on every node.
func (cl *Cluster) DeleteNamespace(name string) error {
	return cl.fan(cl.allNodes(), func(c *Client, _ *nodeBatch) error {
		return c.DeleteNamespace(name)
	})
}

// Namespace returns the routing handle on one tenant ("" = default).
func (cl *Cluster) Namespace(name string) *ClusterNamespace {
	if name == "" {
		name = "default"
	}
	return &ClusterNamespace{cl: cl, name: name}
}

// nodeBatch is one node's share of a split batch.
type nodeBatch struct {
	node   string
	owners []string // read batches: the full replica list, failover order
	idx    []int    // original positions of this node's keys
	keys   [][]byte
	counts []int // aligned per-key counts (multiplicity adds)
}

// split groups a batch by owner node: each key's digest high lane
// selects its range, and the key joins the sub-batch of the primary
// owner (replicate=false: reads) or of every owner (replicate=true:
// writes, so all R replicas take the update). Sub-batches preserve the
// batch's relative key order; idx maps each sub-batch position back to
// the original.
//
// Read batches are grouped by the range's full owner tuple, not just
// its primary, so every key in a sub-batch shares one failover order
// (two ranges with the same primary but different replicas stay in
// separate sub-batches and fail over independently).
func (cl *Cluster) split(keys [][]byte, counts []int, replicate bool) []*nodeBatch {
	byNode := make(map[string]*nodeBatch)
	var order []string
	for i, k := range keys {
		owners := cl.m.RangeFor(hashing.KeyDigest(k).Hi).Owners
		if !replicate {
			tuple := strings.Join(owners, "\x00")
			b := byNode[tuple]
			if b == nil {
				b = &nodeBatch{node: owners[0], owners: owners}
				byNode[tuple] = b
				order = append(order, tuple)
			}
			b.idx = append(b.idx, i)
			b.keys = append(b.keys, k)
			continue
		}
		for _, id := range owners {
			b := byNode[id]
			if b == nil {
				b = &nodeBatch{node: id}
				byNode[id] = b
				order = append(order, id)
			}
			b.idx = append(b.idx, i)
			b.keys = append(b.keys, k)
			if counts != nil {
				b.counts = append(b.counts, counts[i])
			}
		}
	}
	out := make([]*nodeBatch, len(order))
	for i, id := range order {
		out[i] = byNode[id]
	}
	return out
}

// allNodes builds one empty batch per node, for control-plane fan-outs.
func (cl *Cluster) allNodes() []*nodeBatch {
	out := make([]*nodeBatch, 0, len(cl.m.Nodes))
	for _, n := range cl.m.Nodes {
		out = append(out, &nodeBatch{node: n.ID})
	}
	return out
}

// fan runs one call per sub-batch concurrently and aggregates the
// failures into a ClusterError (nil when every node succeeded). Calls
// for different nodes touch disjoint result indices, so result
// reassembly inside the callbacks needs no locking.
//
// A sub-batch carrying a replica list (reads; see split) fails over:
// owners are tried in order, moving on while the failure is worth a
// replica (node unreachable, round trip timed out with context budget
// left, or the node shed the request). Deterministic daemon answers —
// not-found, bad request — and exhausted context budgets surface
// immediately; a replica would answer the same or the caller is out
// of time.
func (cl *Cluster) fan(batches []*nodeBatch, call func(*Client, *nodeBatch) error) error {
	errs := make([]*NodeError, len(batches))
	var wg sync.WaitGroup
	for i, b := range batches {
		wg.Add(1)
		go func(i int, b *nodeBatch) {
			defer wg.Done()
			run := func(id string) error {
				err := call(cl.nodes[id], b)
				if err != nil {
					cl.stats.nodeError(id)
				}
				return err
			}
			node, err := b.node, run(b.node)
			for _, replica := range b.owners {
				if err == nil || replica == node || !failover(err) {
					continue
				}
				cl.stats.failover()
				node, err = replica, run(replica)
			}
			if err != nil {
				ne := &NodeError{Node: node, Indices: b.idx, Err: err}
				var de *Error
				if errors.As(err, &de) {
					ne.Applied = de.Applied
				}
				errs[i] = ne
			}
		}(i, b)
	}
	wg.Wait()
	var failed []*NodeError
	for _, ne := range errs {
		if ne != nil {
			failed = append(failed, ne)
		}
	}
	if len(failed) == 0 {
		return nil
	}
	sort.Slice(failed, func(i, j int) bool { return failed[i].Node < failed[j].Node })
	return &ClusterError{Errs: failed}
}

// ClusterNamespace routes one tenant's batches across the cluster. The
// membership surface satisfies shbf.Set, so query code written against
// the library (or against a single-daemon [Set]) runs unchanged over N
// nodes.
type ClusterNamespace struct {
	cl   *Cluster
	name string
	err  errBox
}

var _ shbf.Set = (*ClusterNamespace)(nil)

// Name returns the namespace this handle addresses.
func (ns *ClusterNamespace) Name() string { return ns.name }

// AddAll inserts a batch: keys split by owner range and each sub-batch
// written to all R owner nodes in parallel. On partial failure the
// ClusterError reports, per failed node, which original key positions
// were routed there and the node's applied split point.
func (ns *ClusterNamespace) AddAll(keys [][]byte) error {
	return ns.cl.fan(ns.cl.split(keys, nil, true), func(c *Client, b *nodeBatch) error {
		return c.Namespace(ns.name).Set().AddAll(b.keys)
	})
}

// gather answers a read batch: keys split by owner range, each
// sub-batch answered by read on its primary node (failing over to its
// replicas) in parallel, answers reassembled in original key order.
func gather[R any](ns *ClusterNamespace, keys [][]byte, read func(*Namespace, [][]byte) ([]R, error)) ([]R, error) {
	out := make([]R, len(keys))
	err := ns.cl.fan(ns.cl.split(keys, nil, false), func(c *Client, b *nodeBatch) error {
		res, err := read(c.Namespace(ns.name), b.keys)
		if err != nil {
			return err
		}
		for j, i := range b.idx {
			out[i] = res[j]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Check answers membership for a batch: keys split by owner range,
// each sub-batch queried on its primary node in parallel, answers
// reassembled in original key order.
func (ns *ClusterNamespace) Check(keys [][]byte) ([]bool, error) {
	return gather(ns, keys, func(n *Namespace, keys [][]byte) ([]bool, error) { return n.Set().Check(keys) })
}

// ContainsAll is [ClusterNamespace.Check] in the library's dst shape
// (false per key on failure, recorded in [ClusterNamespace.Err]).
func (ns *ClusterNamespace) ContainsAll(dst []bool, keys [][]byte) []bool {
	res, err := ns.Check(keys)
	if err != nil {
		ns.err.record(err)
		res = make([]bool, len(keys))
	}
	return append(dst, res...)
}

// Add inserts one key on all its owner nodes, recording any error
// ([ClusterNamespace.Err]).
func (ns *ClusterNamespace) Add(e []byte) { ns.err.record(ns.AddAll([][]byte{e})) }

// Contains answers one key from its primary node (false on failure,
// recorded in [ClusterNamespace.Err]).
func (ns *ClusterNamespace) Contains(e []byte) bool {
	res, err := ns.Check([][]byte{e})
	if err != nil {
		ns.err.record(err)
		return false
	}
	return res[0]
}

// CounterAdd increments multiplicities across the cluster: counts[i]
// increments for keys[i] (nil counts = one each), written to all R
// owner nodes. Per-node conflicts (count overflow) surface in the
// ClusterError with the node's split point counted in increments;
// [NodeError.Applied] says how to resume from it.
func (ns *ClusterNamespace) CounterAdd(keys [][]byte, counts []int) error {
	if counts != nil && len(counts) != len(keys) {
		return fmt.Errorf("client: %d counts for %d keys", len(counts), len(keys))
	}
	return ns.cl.fan(ns.cl.split(keys, counts, true), func(c *Client, b *nodeBatch) error {
		_, err := c.Namespace(ns.name).do(&wire.Request{
			Op: wire.OpMultiplicityAdd, KeyWidth: wire.KeyWidth(b.keys), Keys: b.keys, Counts: b.counts})
		return err
	})
}

// Counts answers multiplicities for a batch from each key's primary
// node, reassembled in original key order.
func (ns *ClusterNamespace) Counts(keys [][]byte) ([]int, error) {
	return gather(ns, keys, func(n *Namespace, keys [][]byte) ([]int, error) { return n.Counter().Counts(keys) })
}

// CountAll is [ClusterNamespace.Counts] in the library's dst shape
// (0 per key on failure, recorded in [ClusterNamespace.Err]).
func (ns *ClusterNamespace) CountAll(dst []int, keys [][]byte) []int {
	res, err := ns.Counts(keys)
	if err != nil {
		ns.err.record(err)
		res = make([]int, len(keys))
	}
	return append(dst, res...)
}

// Classify answers association regions for a batch from each key's
// primary node, reassembled in original key order.
func (ns *ClusterNamespace) Classify(keys [][]byte) ([]shbf.Region, error) {
	return gather(ns, keys, func(n *Namespace, keys [][]byte) ([]shbf.Region, error) { return n.Associator().Classify(keys) })
}

// QueryAll is [ClusterNamespace.Classify] in the library's dst shape
// (the empty region per key on failure, recorded in
// [ClusterNamespace.Err]).
func (ns *ClusterNamespace) QueryAll(dst []shbf.Region, keys [][]byte) []shbf.Region {
	res, err := ns.Classify(keys)
	if err != nil {
		ns.err.record(err)
		res = make([]shbf.Region, len(keys))
	}
	return append(dst, res...)
}

// Err returns the first error recorded by the error-less interface
// methods (nil if none).
func (ns *ClusterNamespace) Err() error { return ns.err.get() }
