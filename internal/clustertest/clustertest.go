// Package clustertest boots a whole shbfd cluster inside one test
// process: N server instances, each with its own HTTP and ShBP
// listener on loopback and its own temp snapshot path, wired together
// by a uniform cluster map (internal/cluster) — one call up, one call
// down. The multi-node tests of this repo (fault injection,
// anti-entropy, remote≡local equivalence, the cluster capacity gate)
// all run on it, and future cluster work (rebalancing, map push) gets
// its N-node fixture for free.
//
// Nodes are real servers behind real TCP listeners — the client's
// routing, fan-out, reassembly and error paths are exercised over the
// actual transports, not fakes — but in-process, so a test can also
// reach into a node's *server.Server directly, and [Node.Kill] can
// drop a node abruptly for fault injection.
package clustertest

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"shbf/internal/cluster"
	"shbf/internal/server"
)

// Options configures a test cluster. The zero value means 3 nodes,
// replication 1 and a small default geometry.
type Options struct {
	// Nodes is the node count (default 3).
	Nodes int
	// Replication is the owner count per range, R (default 1). Set it
	// to Nodes for full replication — the layout where every node can
	// answer every key and cluster answers are byte-equivalent to one
	// local filter of the same Spec.
	Replication int
	// Config is the per-node base config; the zero value gets a small
	// deterministic test geometry (every node MUST share geometry and
	// seed — that is what makes replicas union-mergeable). SnapshotPath
	// is overridden per node.
	Config server.Config
}

// DefaultConfig is the per-node geometry tests get from the zero
// Options: small enough to boot N nodes in milliseconds, deterministic
// seed so remote filters are byte-comparable to local ones.
func DefaultConfig() server.Config {
	return server.Config{
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

// Node is one running daemon of the test cluster.
type Node struct {
	// ID is the node's id in the cluster map ("n1", "n2", ...).
	ID string
	// Srv is the node's in-process server, for direct (non-transport)
	// assertions.
	Srv *server.Server
	// HTTPAddr and ShBPAddr are the node's loopback listener addresses.
	HTTPAddr string
	ShBPAddr string
	// SnapshotPath is the node's private snapshot file.
	SnapshotPath string

	httpSrv  *http.Server
	httpLn   net.Listener
	shbpLn   net.Listener
	cancel   context.CancelFunc
	shbpDone chan struct{}
	killed   bool

	cfg        server.Config // for Restart
	clusterMap *cluster.Map  // set once the cluster map is installed
}

// Kill drops the node abruptly: both listeners close and every open
// ShBP connection is cut, mid-frame if one is in flight — the fault
// the cluster client must answer with per-node errors rather than
// corrupt reassembly. Idempotent.
func (n *Node) Kill() {
	if n.killed {
		return
	}
	n.killed = true
	n.cancel()        // closes the ShBP listener and its connections
	n.httpSrv.Close() // closes the HTTP listener and its connections
	// http.Server.Close misses a listener that Serve's goroutine has not
	// registered yet; Serve would close it later, on its own goroutine,
	// possibly after Restart has failed to rebind the port. Close it
	// here too (Serve's later close of a closed listener is harmless).
	n.httpLn.Close()
	<-n.shbpDone
}

// Restart brings a killed node back on its original addresses with a
// fresh server built from the node's config: state comes back only
// through the snapshot file, if the test wrote one — exactly a daemon
// restart. The cluster map is re-installed, so the revived node serves
// it again. No-op on a live node.
//
// Unsynced writes are gone after Kill/Restart (Kill is abrupt); the
// chaos tests re-converge replicas with anti-entropy merges, which is
// the production answer too (OPERATIONS.md §"Fault tolerance").
func (n *Node) Restart() error {
	if !n.killed {
		return nil
	}
	srv, err := server.New(n.cfg)
	if err != nil {
		return fmt.Errorf("node %s: restart: %w", n.ID, err)
	}
	if n.clusterMap != nil {
		if err := srv.SetClusterMap(n.clusterMap, n.ID); err != nil {
			return fmt.Errorf("node %s: restart: %w", n.ID, err)
		}
	}
	// Rebind the exact addresses the cluster map (and every client
	// holding it) routes to. The old listeners are fully closed by
	// Kill, and their ports lie below the kernel's ephemeral range
	// (listenLoopback), so no outgoing connection or bind to port 0
	// can have taken them in the gap.
	httpLn, err := net.Listen("tcp", n.HTTPAddr)
	if err != nil {
		return fmt.Errorf("node %s: restart: http listener: %w", n.ID, err)
	}
	shbpLn, err := net.Listen("tcp", n.ShBPAddr)
	if err != nil {
		httpLn.Close()
		return fmt.Errorf("node %s: restart: shbp listener: %w", n.ID, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n.Srv = srv
	n.httpSrv = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	n.httpLn, n.shbpLn = httpLn, shbpLn
	n.cancel = cancel
	n.shbpDone = make(chan struct{})
	n.killed = false
	shbpDone := n.shbpDone
	go func() {
		defer close(shbpDone)
		if err := srv.ServeShBP(ctx, shbpLn); err != nil && ctx.Err() == nil {
			_ = err
		}
	}()
	httpSrv := n.httpSrv
	go func() {
		if err := httpSrv.Serve(httpLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
			_ = err
		}
	}()
	return nil
}

// Cluster is the running node set plus the map that ties it together.
type Cluster struct {
	// Map is the cluster map every node serves (uniform ranges, node i
	// primary for range i).
	Map *cluster.Map
	// Nodes holds the running nodes, index i = map node "n<i+1>".
	Nodes []*Node
}

// Start boots a cluster for a test, with the per-node snapshot paths
// under t.TempDir(), and registers Stop with t.Cleanup.
func Start(t testing.TB, opts Options) *Cluster {
	t.Helper()
	if opts.Nodes == 0 {
		opts.Nodes = 3
	}
	if opts.Replication == 0 {
		opts.Replication = 1
	}
	if opts.Config == (server.Config{}) {
		opts.Config = DefaultConfig()
	}
	dir := t.TempDir()
	c := &Cluster{}
	t.Cleanup(c.Stop) // runs before dir's removal: cleanups are LIFO
	for i := 0; i < opts.Nodes; i++ {
		n, err := startNode(fmt.Sprintf("n%d", i+1), opts.Config, dir)
		if err != nil {
			t.Fatalf("clustertest: %v", err)
		}
		c.Nodes = append(c.Nodes, n)
	}
	entries := make([]cluster.Node, len(c.Nodes))
	for i, n := range c.Nodes {
		entries[i] = cluster.Node{ID: n.ID, Addr: n.ShBPAddr, HTTPAddr: n.HTTPAddr}
	}
	m, err := cluster.Uniform(1, entries, opts.Replication)
	if err != nil {
		t.Fatalf("clustertest: %v", err)
	}
	c.Map = m
	for _, n := range c.Nodes {
		if err := n.Srv.SetClusterMap(m, n.ID); err != nil {
			t.Fatalf("clustertest: %v", err)
		}
		n.clusterMap = m
	}
	return c
}

// startNode builds one server and brings up its two listeners.
func startNode(id string, cfg server.Config, dir string) (*Node, error) {
	cfg.SnapshotPath = filepath.Join(dir, id+".shbf")
	srv, err := server.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("node %s: %w", id, err)
	}
	httpLn, err := listenLoopback()
	if err != nil {
		return nil, fmt.Errorf("node %s: http listener: %w", id, err)
	}
	shbpLn, err := listenLoopback()
	if err != nil {
		httpLn.Close()
		return nil, fmt.Errorf("node %s: shbp listener: %w", id, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &Node{
		ID:           id,
		cfg:          cfg,
		Srv:          srv,
		HTTPAddr:     httpLn.Addr().String(),
		ShBPAddr:     shbpLn.Addr().String(),
		SnapshotPath: cfg.SnapshotPath,
		httpSrv:      &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		httpLn:       httpLn,
		shbpLn:       shbpLn,
		cancel:       cancel,
		shbpDone:     make(chan struct{}),
	}
	go func() {
		defer close(n.shbpDone)
		if err := srv.ServeShBP(ctx, shbpLn); err != nil && ctx.Err() == nil {
			// Listener failures after Kill are expected; anything else
			// would fail the test through its own assertions.
			_ = err
		}
	}()
	// Serve via a local, not n.httpSrv: Restart swaps the field, and
	// this goroutine may still be starting up when it does.
	httpSrv := n.httpSrv
	go func() {
		if err := httpSrv.Serve(httpLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
			_ = err
		}
	}()
	return n, nil
}

// The range of ports listenLoopback draws from: from portFloor, clear
// of the well-known service ports, up to the kernel's ephemeral range.
const (
	portFloor      = 10000
	portRangeFile  = "/proc/sys/net/ipv4/ip_local_port_range"
	maxBindRetries = 100
)

// listenLoopback binds a loopback TCP listener that a killed node can
// rebind. A port from 127.0.0.1:0 comes from the kernel's ephemeral
// range, where any process's outgoing connection or bind to port 0 can
// take it once the node's listener is closed. So the port is drawn at
// random below that range instead, retrying on a port in use; without
// a readable range it falls back to port 0.
func listenLoopback() (net.Listener, error) {
	low := 0
	if b, err := os.ReadFile(portRangeFile); err == nil {
		if f := strings.Fields(string(b)); len(f) == 2 {
			low, _ = strconv.Atoi(f[0])
		}
	}
	if low <= portFloor {
		return net.Listen("tcp", "127.0.0.1:0")
	}
	for range maxBindRetries {
		port := portFloor + rand.IntN(low-portFloor)
		ln, err := net.Listen("tcp", net.JoinHostPort("127.0.0.1", strconv.Itoa(port)))
		if !errors.Is(err, syscall.EADDRINUSE) {
			return ln, err
		}
	}
	return nil, fmt.Errorf("clustertest: no free loopback port in [%d, %d) after %d tries", portFloor, low, maxBindRetries)
}

// CreateNamespace creates a tenant on every live node, as a cluster
// deployment would before routing batches at it.
func (c *Cluster) CreateNamespace(cfg server.NamespaceConfig) error {
	for _, n := range c.Nodes {
		if n.killed {
			continue
		}
		if err := n.Srv.CreateNamespace(cfg); err != nil {
			return fmt.Errorf("node %s: %w", n.ID, err)
		}
	}
	return nil
}

// SeedAddr returns a live node's ShBP address — the one-address
// bootstrap a client.DialCluster starts from.
func (c *Cluster) SeedAddr() string {
	for _, n := range c.Nodes {
		if !n.killed {
			return n.ShBPAddr
		}
	}
	return ""
}

// Stop kills every node. Idempotent; registered via t.Cleanup by
// Start.
func (c *Cluster) Stop() {
	for _, n := range c.Nodes {
		n.Kill()
	}
}
