// Command shbfd is the ShBF query-serving daemon: one process serving
// membership (ShBF_M), association (CShBF_A), and multiplicity
// (CShBF_X) set queries for many tenant namespaces, backed by the
// lock-striped shards of internal/sharded, over two transports: the
// namespace-scoped /v2 HTTP/JSON API (plus the /v1 shims over the
// "default" namespace) and ShBP, a length-prefixed binary batch
// protocol on its own listener for small-batch-heavy serving where
// JSON decode would dominate (see internal/wire and shbf/client).
//
// Usage:
//
//	shbfd [-addr :8137] [-shbp-addr :8138] [-udp-addr ""] [-shards 16] [-seed 1]
//	      [-member-bits N] [-member-k 8]
//	      [-assoc-bits N]  [-assoc-k 8]
//	      [-mult-bits N]   [-mult-k 8] [-c 57]
//	      [-window 0] [-tick 0]
//	      [-snapshot state.shbf] [-snapshot-every 0]
//	      [-pprof-addr localhost:6060]
//	      [-cluster-file cluster.json -node-id n1]
//	      [-max-total-bits 0] [-shbp-max-inflight 0]
//	      [-shbp-idle-timeout 2m]
//	      [-http-read-header-timeout 10s] [-http-idle-timeout 2m]
//	      [-version]
//
// The flags size the default namespace; further namespaces — each with
// its own geometry and window policy — are created at runtime via
// POST /v2/namespaces (or the equivalent ShBP op) and persist through
// snapshots.
//
// With -udp-addr, the daemon also listens for ShBU — the
// fire-and-forget UDP ingest protocol spoken by shbfagent edge agents
// (see internal/ingest and OPERATIONS.md §14). Datagrams carry packed
// key batches or fragments of pre-aggregated filter envelopes, and
// apply through the same per-namespace write gates as the TCP
// transports; since UDP has no reply, refusals, loss, reordering and
// duplication surface in the shbf_udp_* metric families.
//
// With -window G (G ≥ 2), the default namespace's filters run as a
// sliding window of G generations: writes go to the head generation,
// and each rotation — driven every -tick interval, or on demand via
// POST /v1/rotate — retires the oldest, so the daemon answers "seen in
// the last G−1..G ticks" and its memory and false-positive rate stay
// bounded on endless streams (the streaming deployments the paper
// targets). Memory in window mode is G × the configured per-filter
// bits. The -tick loop rotates every windowed namespace.
//
// With -snapshot, state is reloaded from the file at startup (if it
// exists), persisted on POST /v1/snapshot, every -snapshot-every
// interval if set, and on graceful shutdown (SIGINT/SIGTERM) — so
// answers survive restarts; window rings restore with their head
// positions and rotation epochs. With -pprof-addr, the net/http/pprof
// endpoints are served on a second, separate listener (keep it on
// localhost or behind a firewall: profiles expose internals), so the
// daemon's hot paths can be profiled in place:
//
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
//
// The fault-tolerance knobs (OPERATIONS.md §"Fault tolerance"): -max-
// total-bits caps the daemon's aggregate filter memory (creations past
// it shed with 429/StatusOverloaded), -shbp-max-inflight caps
// concurrently-dispatching ShBP frames (writes shed at ¾ of the cap,
// so reads survive a write flood), -shbp-idle-timeout reaps silent
// binary connections, and the -http-* timeouts bound header reads and
// keep-alive idleness so slow or stalled HTTP clients can't pin
// connections open (slowloris).
//
// With -cluster-file and -node-id, the daemon joins a static cluster:
// it validates the map, checks its own id is in it, and serves the map
// over GET /v2/cluster and the ShBP cluster-map op so any node is a
// seed address for client.Cluster, which routes batches by digest
// range. See internal/cluster and OPERATIONS.md §"Cluster mode".
//
// Observability: GET /metrics on the HTTP listener (and the ShBP
// metrics op — same bytes) serves Prometheus text metrics — per-op
// request counters and latency histograms on both transports,
// per-namespace occupancy/FPR/rotation gauges, admission-control shed
// counters, and build/start info. -version prints the daemon version
// and exits. See OPERATIONS.md §13 for the metric reference.
//
// Memory: the daemon runs its garbage collector at GOGC=10, not the
// runtime's 100 (see gcPercent), and logs the percent in force at
// startup. GOGC in the environment overrides it; GOMEMLIMIT works
// alongside it as the Go runtime defines. See OPERATIONS.md §4.
//
// See internal/server for the endpoint list, OPERATIONS.md for running
// the daemon in production, and DESIGN.md for the architecture.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"shbf"
	"shbf/internal/cluster"
	"shbf/internal/server"
)

// gcPercent is the collector's pacing percent when GOGC is unset: a
// cycle starts once garbage reaches a tenth of the live heap, not the
// runtime's default of all of it. Nearly all of the daemon's live heap
// is pointer-free storage that lives as long as its tenant (bit arrays,
// counter arrays, exact-table chunks). A cycle scans only the small
// pointer-bearing rest, so it costs about the same at 10 as at 100,
// while at 100 allocating traffic lets the process hold about twice
// what its filters take (DESIGN §5 "Memory and the collector").
const gcPercent = 10

// setGCPercent sets the collector to gcPercent unless lookupEnv finds
// GOGC, which the runtime has then already applied ("off" included)
// and which is left alone. It returns a line naming the percent in
// force.
func setGCPercent(lookupEnv func(string) (string, bool)) string {
	if v, ok := lookupEnv("GOGC"); ok {
		return "garbage collector at GOGC=" + v + " from the environment"
	}
	debug.SetGCPercent(gcPercent)
	return fmt.Sprintf("garbage collector at GOGC=%d (set GOGC to override)", gcPercent)
}

func main() {
	// In main, not run: the tests that call run, and everything that
	// builds a server.Server in process, keep the runtime's default.
	log.Printf("shbfd: %s", setGCPercent(os.LookupEnv))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "shbfd:", err)
		os.Exit(1)
	}
}

// run parses args, builds the server, and serves until ctx is
// cancelled. When ready is non-nil, the bound address is sent on it
// once the listener is up (used by tests binding port 0).
func run(ctx context.Context, args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("shbfd", flag.ContinueOnError)
	var (
		version   = fs.Bool("version", false, "print the daemon version and exit")
		addr      = fs.String("addr", ":8137", "HTTP listen address")
		shbpAddr  = fs.String("shbp-addr", ":8138", "ShBP binary-protocol listen address (empty = disabled)")
		udpAddr   = fs.String("udp-addr", "", "ShBU UDP ingest listen address (empty = disabled)")
		shards    = fs.Int("shards", 16, "shards per filter (rounded up to a power of two)")
		seed      = fs.Uint64("seed", 1, "hash seed (filters are deterministic per seed)")
		memBits   = fs.Int("member-bits", 12<<20, "total membership filter bits")
		memK      = fs.Int("member-k", 8, "membership bit positions per element (even)")
		assBits   = fs.Int("assoc-bits", 12<<20, "total association filter bits")
		assK      = fs.Int("assoc-k", 8, "association bit positions per element")
		mulBits   = fs.Int("mult-bits", 18<<20, "total multiplicity filter bits")
		mulK      = fs.Int("mult-k", 8, "multiplicity bit positions per element")
		maxCount  = fs.Int("c", 57, "maximum multiplicity")
		windowGen = fs.Int("window", 0, "sliding-window generations per filter (0 = unbounded filters; ≥ 2 enables rotation)")
		tick      = fs.Duration("tick", 0, "rotate the windows on this interval (0 = only via POST /v1/rotate; requires -window)")
		snapPath  = fs.String("snapshot", "", "snapshot file (loaded at startup, written on shutdown and POST /v1/snapshot)")
		snapEvr   = fs.Duration("snapshot-every", 0, "also snapshot on this interval (0 = disabled; requires -snapshot)")
		pprofAddr = fs.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled; keep it private)")
		clusterF  = fs.String("cluster-file", "", "cluster map JSON file (enables cluster mode; requires -node-id)")
		nodeID    = fs.String("node-id", "", "this daemon's node id in the cluster map (requires -cluster-file)")
		maxBits   = fs.Int64("max-total-bits", 0, "daemon-wide filter-memory ceiling in bits across all namespaces (0 = unlimited; creations past it shed with 429)")
		maxFrames = fs.Int("shbp-max-inflight", 0, "max concurrently-dispatching ShBP frames; writes shed at ¾ of the cap (0 = unlimited)")
		shbpIdle  = fs.Duration("shbp-idle-timeout", 2*time.Minute, "close ShBP connections idle this long (0 = never)")
		httpRHT   = fs.Duration("http-read-header-timeout", 10*time.Second, "time allowed to read an HTTP request's headers (slowloris guard; 0 = unlimited)")
		httpIdle  = fs.Duration("http-idle-timeout", 2*time.Minute, "close keep-alive HTTP connections idle this long (0 = unlimited)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Printf("shbfd %s %s %s/%s\n", shbf.Version, runtime.Version(), runtime.GOOS, runtime.GOARCH)
		return nil
	}
	if *snapEvr > 0 && *snapPath == "" {
		return errors.New("-snapshot-every requires -snapshot")
	}
	if *tick > 0 && *windowGen < 2 {
		return errors.New("-tick requires -window ≥ 2")
	}
	if (*clusterF == "") != (*nodeID == "") {
		return errors.New("-cluster-file and -node-id must be set together")
	}

	cfg := server.Config{
		MembershipBits:    *memBits,
		MembershipK:       *memK,
		AssociationBits:   *assBits,
		AssociationK:      *assK,
		MultiplicityBits:  *mulBits,
		MultiplicityK:     *mulK,
		MaxCount:          *maxCount,
		Shards:            *shards,
		Seed:              *seed,
		SnapshotPath:      *snapPath,
		WindowGenerations: *windowGen,
		WindowTick:        *tick,
		MaxTotalBits:      *maxBits,
		MaxInflightFrames: *maxFrames,
		ShBPIdleTimeout:   *shbpIdle,
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}

	// Cluster mode: load the static map and make this daemon one of its
	// nodes. The daemon only has to *serve* the map (any node is a seed
	// address for client.Cluster); batch routing happens client-side.
	if *clusterF != "" {
		m, err := cluster.LoadFile(*clusterF)
		if err != nil {
			return err
		}
		if err := srv.SetClusterMap(m, *nodeID); err != nil {
			return err
		}
		log.Printf("shbfd: cluster mode: node %q in a %d-node map (version %d, replication %d)",
			*nodeID, len(m.Nodes), m.Version, m.Replication)
	}

	// The profiling listener is separate from the serving listener so
	// the pprof endpoints are never reachable through the query port —
	// operators expose -addr and keep -pprof-addr on localhost. A
	// dedicated mux (rather than http.DefaultServeMux, which the pprof
	// package registers on as a side effect) keeps the surface explicit.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{Handler: pmux, ReadHeaderTimeout: 10 * time.Second}
		log.Printf("shbfd: pprof on http://%s/debug/pprof/", pln.Addr())
		go func() {
			if err := psrv.Serve(pln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("shbfd: pprof server: %v", err)
			}
		}()
		defer psrv.Close()
	}

	// The ShBP binary listener serves the same namespaces as HTTP on a
	// dedicated port: length-prefixed batch frames that feed the batch
	// library paths without JSON decode (see internal/wire).
	if *shbpAddr != "" {
		shbpLn, err := net.Listen("tcp", *shbpAddr)
		if err != nil {
			return fmt.Errorf("shbp listener: %w", err)
		}
		log.Printf("shbfd: shbp (binary protocol) on %s", shbpLn.Addr())
		go func() {
			if err := srv.ServeShBP(ctx, shbpLn); err != nil {
				log.Printf("shbfd: shbp server: %v", err)
			}
		}()
	}

	// The UDP ingest listener accepts fire-and-forget ShBU datagrams
	// from shbfagent edge agents (see internal/ingest): packed key
	// batches and pre-aggregated filter envelopes, applied through the
	// same write gates as the TCP transports. UDP has no reply, so
	// refusals and transport loss surface only in the shbf_udp_*
	// metric families.
	if *udpAddr != "" {
		pc, err := net.ListenPacket("udp", *udpAddr)
		if err != nil {
			return fmt.Errorf("udp listener: %w", err)
		}
		log.Printf("shbfd: shbu (udp ingest) on %s", pc.LocalAddr())
		go func() {
			if err := srv.ServeShBU(pc); err != nil {
				log.Printf("shbfd: udp server: %v", err)
			}
		}()
		defer pc.Close()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("shbfd: serving on %s (%d shards/filter)", ln.Addr(), *shards)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: *httpRHT,
		IdleTimeout:       *httpIdle,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	var snapTicker *time.Ticker
	var snapC <-chan time.Time
	if *snapEvr > 0 {
		snapTicker = time.NewTicker(*snapEvr)
		snapC = snapTicker.C
		defer snapTicker.Stop()
	}
	var rotTicker *time.Ticker
	var rotC <-chan time.Time
	if *tick > 0 {
		rotTicker = time.NewTicker(*tick)
		rotC = rotTicker.C
		defer rotTicker.Stop()
		log.Printf("shbfd: window mode: %d generations, rotating every %s (window ≈ %s)",
			*windowGen, *tick, time.Duration(*windowGen)**tick)
	} else if *windowGen >= 2 {
		log.Printf("shbfd: window mode: %d generations, rotation via POST /v1/rotate", *windowGen)
	}
	for {
		select {
		case <-snapC:
			if n, err := srv.SaveSnapshot(*snapPath); err != nil {
				log.Printf("shbfd: periodic snapshot: %v", err)
			} else {
				log.Printf("shbfd: snapshot written (%d bytes)", n)
			}
		case <-rotC:
			// Rotate every windowed namespace; tenants created without
			// windows are skipped.
			if rotated, err := srv.RotateAll(); errors.Is(err, server.ErrNotWindowed) {
				// A classic (pre-window) snapshot overrode -window at
				// restore; ticking forever would just log this error
				// every -tick. Say it once and stop the ticker.
				log.Printf("shbfd: rotation disabled: %v", err)
				rotTicker.Stop()
				rotC = nil
			} else if err != nil {
				log.Printf("shbfd: rotation: %v", err)
			} else {
				log.Printf("shbfd: rotated namespaces %v", rotated)
			}
		case err := <-errc:
			return err
		case <-ctx.Done():
			shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := httpSrv.Shutdown(shutCtx); err != nil {
				log.Printf("shbfd: shutdown: %v", err)
			}
			if *snapPath != "" {
				if n, err := srv.SaveSnapshot(*snapPath); err != nil {
					return fmt.Errorf("final snapshot: %w", err)
				} else {
					log.Printf("shbfd: final snapshot written (%d bytes)", n)
				}
			}
			return nil
		}
	}
}
