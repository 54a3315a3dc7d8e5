// Package server implements the query-serving layer behind the shbfd
// daemon. The serving unit is a namespace: one logical Shifting Bloom
// Filter trio — membership (ShBF_M), association (CShBF_A),
// multiplicity (CShBF_X) — backed by the lock-striped shards of
// internal/sharded, so many concurrent clients (the paper's receive
// queues) query in parallel. One daemon serves many namespaces
// (multi-tenant), each with its own geometry and window policy, over
// two transports:
//
//   - the v2 HTTP/JSON API, namespace-scoped under /v2/namespaces, plus
//     the v1 endpoints kept as deprecated shims over the "default"
//     namespace;
//   - ShBP, a length-prefixed binary batch protocol (internal/wire) on
//     a dedicated listener, whose decode feeds the library's batch
//     paths directly — the transport for small-batch-heavy serving
//     where JSON decode dominates.
//
// Both, and the ShBU ingest listener (udp.go), decode into a
// wire.Request and run it through one op core, dispatch (dispatch.go),
// so every transport checks, applies and fails an op the same way.
//
// HTTP endpoints (all bodies JSON; {ns} is a namespace name; keys are
// strings, optionally base64-encoded for binary element IDs such as
// the paper's 13-byte 5-tuples):
//
//	POST   /v2/namespaces                             {"name": ..., overrides...} → create a tenant
//	GET    /v2/namespaces                             → tenant summaries
//	DELETE /v2/namespaces/{ns}                        → delete a tenant
//	POST   /v2/namespaces/{ns}/membership/add         {"keys": [...]}
//	POST   /v2/namespaces/{ns}/membership/contains    {"keys": [...]}            → per-key booleans
//	POST   /v2/namespaces/{ns}/association/add        {"set": 1|2, "keys": [...]}
//	POST   /v2/namespaces/{ns}/association/remove     {"set": 1|2, "keys": [...]}
//	POST   /v2/namespaces/{ns}/association/classify   {"keys": [...]}            → candidate regions
//	POST   /v2/namespaces/{ns}/multiplicity/add       {"items": [{"key": k, "count": c}, ...]}
//	POST   /v2/namespaces/{ns}/multiplicity/remove    {"items": [...]}
//	POST   /v2/namespaces/{ns}/multiplicity/count     {"keys": [...]}            → per-key counts
//	POST   /v2/namespaces/{ns}/rotate                                            → retire the tenant's oldest generation
//	GET    /v2/namespaces/{ns}/stats                                             → occupancy, FPR, window, counters
//	GET    /v2/namespaces/{ns}/membership/envelope                               → membership filter as a raw ShBE envelope
//	POST   /v2/namespaces/{ns}/merge                  raw ShBE envelope body     → union into the live membership filter
//	POST   /v2/namespaces/{ns}/freeze                                            → membership filter as a raw ShBZ frozen container; tenant becomes read-only (writes 409)
//	POST   /v2/snapshot                               {"rotation_consistent": bool} → persist all tenants
//	GET    /v2/stats                                                             → daemon-wide tenant summaries
//	GET    /v2/cluster                                                           → the cluster map (cluster mode; see internal/cluster)
//	GET    /healthz
//	GET    /metrics                                                              → Prometheus text metrics (same bytes as ShBP OpMetrics; see metrics.go)
//
// The v1 endpoints (POST /v1/membership/add, ... — see OPERATIONS.md)
// remain byte-compatible shims over the default namespace.
//
// With a namespace's WindowGenerations set its filters run as sliding
// windows (sharded generation rings, internal/window): writes go to
// each filter's head generation and a rotation — per-tenant POST
// .../rotate, or shbfd's -tick loop — retires the oldest, so answers
// cover the last G−1..G ticks and memory and error rates stay bounded
// on endless streams.
//
// Persistence is snapshot-based: SaveSnapshot serializes every
// namespace into one file (written atomically; optionally serialized
// against rotations for a single-epoch cut), and New reloads it at
// startup. Pre-namespace snapshots restore into the default namespace.
// See DESIGN.md §5 and OPERATIONS.md.
package server

import (
	"errors"
	"fmt"
	"io/fs"
	"log"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shbf"
	"shbf/internal/core"
	"shbf/internal/ingest"
	"shbf/internal/sharded"
	"shbf/internal/wire"
)

// Config sizes the default namespace's filters (and is the base every
// created namespace inherits from). The zero value is not usable;
// start from DefaultConfig.
type Config struct {
	// MembershipBits is the total ShBF_M bit budget across shards.
	MembershipBits int
	// MembershipK is k for the membership filter (must be even).
	MembershipK int
	// AssociationBits is the total CShBF_A bit budget across shards.
	AssociationBits int
	// AssociationK is k for the association filter.
	AssociationK int
	// MultiplicityBits is the total CShBF_X bit budget across shards.
	MultiplicityBits int
	// MultiplicityK is k for the multiplicity filter.
	MultiplicityK int
	// MaxCount is the maximum multiplicity c (the paper uses 57).
	MaxCount int
	// Shards is the shard count per filter (rounded up to a power of
	// two).
	Shards int
	// Seed makes the filters deterministic across processes.
	Seed uint64
	// SnapshotPath, when non-empty, is the file the snapshot endpoints
	// write and New loads at startup if it exists.
	SnapshotPath string
	// WindowGenerations, when ≥ 2, runs the default namespace's
	// filters as a sliding window of that many generations: writes go
	// to the head generation and a rotation retires the oldest, so the
	// daemon answers "seen in the last WindowGenerations−1..
	// WindowGenerations ticks" and its memory and false-positive rate
	// stay bounded no matter how long the stream runs. Zero keeps the
	// classic unbounded filters.
	WindowGenerations int
	// WindowTick is the rotation period recorded in the window specs
	// and driven by shbfd's -tick loop (zero = rotate only on
	// the rotate endpoints). Requires WindowGenerations ≥ 2.
	WindowTick time.Duration
	// MaxTotalBits is the daemon-wide memory ceiling: the sum of every
	// namespace's filter bits (all generations of the trio) may not
	// exceed it. Namespace creations past the ceiling are shed with
	// 429/StatusOverloaded. Zero = unlimited.
	MaxTotalBits int64
	// MaxInflightFrames caps the ShBP frames being dispatched at once
	// across all binary connections; excess frames are shed with
	// StatusOverloaded, writes (at ¾ of the cap) before reads (at the
	// cap). Zero = unlimited.
	MaxInflightFrames int
	// ShBPIdleTimeout reaps ShBP connections that send no complete
	// frame for this long, so a client that dials and goes silent
	// cannot hold a goroutine and buffers forever. Zero = never reap.
	ShBPIdleTimeout time.Duration
	// NoMetrics disables the metrics registry and all request
	// instrumentation (no GET /metrics, OpMetrics answers not-found).
	// It is the A/B baseline of client's TestGateMetricsOverhead and of
	// e2ebench's metrics layer; production daemons leave it off.
	NoMetrics bool
}

// DefaultConfig returns a config sized for ~1M members at k = 8
// (m = nk/ln 2 ≈ 11.5M bits ≈ 1.4 MiB per filter kind).
func DefaultConfig() Config {
	return Config{
		MembershipBits:   12 << 20,
		MembershipK:      8,
		AssociationBits:  12 << 20,
		AssociationK:     8,
		MultiplicityBits: 18 << 20,
		MultiplicityK:    8,
		MaxCount:         57,
		Shards:           16,
		Seed:             1,
	}
}

// counters tallies one namespace's served queries per endpoint group.
type counters struct {
	membershipAdd      atomic.Uint64
	membershipContains atomic.Uint64
	associationUpdate  atomic.Uint64
	associationQuery   atomic.Uint64
	multiplicityUpdate atomic.Uint64
	multiplicityQuery  atomic.Uint64
	rotations          atomic.Uint64
	// rateShed counts requests (not keys) shed by the tenant's rate
	// quota, on either transport (admission.go); exported as
	// shbf_namespace_shed_total{reason="rate"}.
	rateShed atomic.Uint64
}

// membershipFilter is the serving surface a namespace needs from its
// membership slot; both the classic sharded.Filter and the windowed
// sharded.Window satisfy it (the latter also satisfies shbf.Windowed).
type membershipFilter interface {
	shbf.Filter
	Add(e []byte)
	Contains(e []byte) bool
	AddAll(keys [][]byte) error
	ContainsAll(dst []bool, keys [][]byte) []bool
	ShardStats() []sharded.ShardStat
}

// associationFilter is the association slot's surface
// (sharded.Association or sharded.WindowAssociation).
type associationFilter interface {
	shbf.Filter
	InsertS1(e []byte) error
	InsertS2(e []byte) error
	DeleteS1(e []byte) error
	DeleteS2(e []byte) error
	QueryAll(dst []core.Region, keys [][]byte) []core.Region
	ShardStats() []sharded.AssociationShardStat
}

// multiplicityFilter is the multiplicity slot's surface
// (sharded.Multiplicity or sharded.WindowMultiplicity).
type multiplicityFilter interface {
	shbf.Filter
	Insert(e []byte) error
	Delete(e []byte) error
	Count(e []byte) int
	CountAll(dst []int, keys [][]byte) []int
	ShardStats() []sharded.MultiplicityShardStat
}

// Server owns the namespace registry and serves it over HTTP (Handler)
// and ShBP (ServeShBP). All methods are safe for concurrent use.
type Server struct {
	cfg Config

	// mu guards the namespaces map and usedBits; the namespaces
	// themselves are internally synchronized.
	mu         sync.RWMutex
	namespaces map[string]*namespace

	// usedBits is the filter-bit footprint of every registered
	// namespace, metered against cfg.MaxTotalBits (admission.go).
	usedBits int64

	// frames is the ShBP in-flight frame gate (nil = unlimited).
	frames *frameGate

	// rotMu serializes rotations against rotation-consistent
	// snapshots, so such a snapshot captures every shard of every ring
	// at one epoch.
	rotMu sync.Mutex

	// snapshots counts persisted snapshots (daemon-wide);
	// lastSnapshotUnix is the newest snapshot's completion time in
	// unix seconds (0 = never), exported as a metrics gauge.
	snapshots        atomic.Uint64
	lastSnapshotUnix atomic.Int64

	// cluster is the cluster-mode identity (nil outside cluster mode);
	// handlers read it lock-free on every request, so it is stored
	// whole and never mutated (see SetClusterMap).
	cluster atomic.Pointer[clusterState]

	start time.Time

	// udp is the ShBU ingest receiver (udp.go). Always present — even
	// without a -udp-addr listener the receiver exists, so the
	// shbf_udp_* metric surface is stable and tests can drive
	// datagrams through it directly.
	udp *ingest.Receiver

	// met is the observability surface (metrics.go); nil with
	// cfg.NoMetrics, and every recording site nil-checks it.
	met *serverMetrics
}

// Specs returns the three filter specs the config describes, the form
// a namespace's filters are actually constructed from (via shbf.New).
// With WindowGenerations set they are the sliding-window kinds; the
// window geometry (ring length, tick) travels in the specs and
// therefore in every snapshot envelope.
func (cfg Config) Specs() (mem, assoc, mult shbf.Spec) {
	mem = shbf.Spec{Kind: shbf.KindShardedMembership, M: cfg.MembershipBits,
		K: cfg.MembershipK, Shards: cfg.Shards, Seed: cfg.Seed}
	assoc = shbf.Spec{Kind: shbf.KindShardedAssociation, M: cfg.AssociationBits,
		K: cfg.AssociationK, Shards: cfg.Shards, Seed: cfg.Seed}
	mult = shbf.Spec{Kind: shbf.KindShardedMultiplicity, M: cfg.MultiplicityBits,
		K: cfg.MultiplicityK, C: cfg.MaxCount, Shards: cfg.Shards, Seed: cfg.Seed}
	if cfg.WindowGenerations > 0 {
		for _, s := range []*shbf.Spec{&mem, &assoc, &mult} {
			kind, err := core.WindowKind(s.Kind)
			if err != nil {
				panic(err) // unreachable: the three sharded kinds all window
			}
			s.Kind = kind
			s.Generations = cfg.WindowGenerations
			s.Tick = cfg.WindowTick
		}
	}
	return mem, assoc, mult
}

// New builds the default namespace from cfg and, when cfg.SnapshotPath
// names an existing file, restores the namespace set from it.
func New(cfg Config) (*Server, error) {
	def, err := newNamespace(DefaultNamespace, cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:        cfg,
		namespaces: map[string]*namespace{DefaultNamespace: def},
		usedBits:   def.totalBits(),
		frames:     newFrameGate(cfg.MaxInflightFrames),
		start:      time.Now(),
	}
	s.udp = ingest.NewReceiver(udpHandler{s})
	if !cfg.NoMetrics {
		s.met = newServerMetrics(s)
	}
	if cfg.MaxTotalBits > 0 && s.usedBits > cfg.MaxTotalBits {
		return nil, fmt.Errorf("server: default namespace needs %d filter bits, above the %d-bit memory ceiling",
			s.usedBits, cfg.MaxTotalBits)
	}
	if cfg.SnapshotPath != "" {
		switch _, err := os.Stat(cfg.SnapshotPath); {
		case err == nil:
			if err := s.LoadSnapshot(cfg.SnapshotPath); err != nil {
				return nil, fmt.Errorf("server: restoring snapshot: %w", err)
			}
			// The snapshot wins over the flags (its envelopes carry
			// their own geometry and window state), so a window-mode
			// mismatch is legal — but it means the operator's flags are
			// not describing what will be served, so say so loudly.
			if wantWin, haveWin := cfg.WindowGenerations >= 2, s.Windowed(); wantWin != haveWin {
				log.Printf("server: snapshot %s overrides window mode: flags say windowed=%v, restored filters are windowed=%v (start from an empty snapshot path to apply the flags)",
					cfg.SnapshotPath, wantWin, haveWin)
			}
		case errors.Is(err, fs.ErrNotExist):
			// First start: nothing to restore.
		default:
			// Anything else (permissions, transient I/O) must not be
			// mistaken for a first start — serving empty and then
			// snapshotting over the existing file would lose state.
			return nil, fmt.Errorf("server: checking snapshot: %w", err)
		}
	}
	return s, nil
}

// Handler returns the daemon's HTTP routing table: the namespace-
// scoped v2 API and the v1 shims over the default namespace.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()

	// The routes with a wire op come from the table the HTTP client
	// reads too (wire.Routes). Each is a serveOp codec over dispatch,
	// counted under the op's name like its ShBP frames, except the
	// liveness probe and the scrape. A v1 route binds the same handler
	// to the default namespace at the tenant path under /v1,
	// byte-compatible with the pre-namespace daemon.
	for _, rt := range wire.Routes() {
		var h http.Handler
		switch rt.Op {
		case wire.OpPing:
			h = s.instrumentHTTP("healthz", func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				fmt.Fprintln(w, `{"status":"ok"}`)
			})
		case wire.OpMetrics:
			// The scrape route itself is deliberately uninstrumented:
			// scraping over HTTP and over ShBP OpMetrics must render
			// identical bytes.
			if s.met == nil {
				continue
			}
			h = s.met
		default:
			h = s.serveOp(rt.Op, rt.Body)
		}
		mux.Handle(rt.Method+" "+rt.Path, h)
		if rt.V1 {
			_, path, _ := strings.Cut(rt.Path, "{ns}")
			mux.Handle(rt.Method+" /v1"+path, h)
		}
	}

	snapshot := s.instrumentHTTP("snapshot", s.handleSnapshot)
	mux.HandleFunc("POST /v1/snapshot", snapshot)
	mux.HandleFunc("POST /v2/snapshot", snapshot)
	mux.HandleFunc("GET /v2/stats", s.instrumentHTTP("daemon-stats", s.handleDaemonStats))
	return mux
}
