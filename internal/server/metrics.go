package server

import (
	"net/http"
	"runtime"
	"time"

	"shbf"
	"shbf/internal/ingest"
	"shbf/internal/metrics"
	"shbf/internal/wire"
)

// Observability (internal/metrics): every serving layer reports into
// one registry, scraped as Prometheus text over GET /metrics and the
// ShBP OpMetrics op. The two transports serve the same bytes — the
// scrape ops themselves are deliberately uninstrumented and every
// exported time is an absolute timestamp, so nothing in the output
// depends on which transport asked or when.
//
// Hot-path discipline: the ShBP dispatch loop records into instruments
// preresolved in arrays indexed by op byte — a few lock-free atomic
// adds, zero allocations (metrics_alloc_test.go). The HTTP handlers
// record through a per-route closure resolved at Handler() build time.
// Everything per-namespace (occupancy, FPR, admission sheds) is read
// at scrape time from state the server already maintains, costing the
// data plane nothing.
//
// The metric surface is frozen by TestMetricsSurfacePinned: dashboards
// and alerts depend on these names, so adding a metric means extending
// the golden table, and renaming or dropping one is a breaking change.

// durationBuckets are the latency histogram bounds in seconds,
// ~4× apart from 1µs (a small in-process batch) to 4s (a stuck
// daemon); +Inf is implicit.
var durationBuckets = []float64{
	1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 64e-3, 0.25, 1, 4,
}

// shbpOps are the instrumented binary-protocol ops, every op except
// OpMetrics (scrapes are never counted, so the two transports render
// identical bytes).
var shbpOps = []byte{
	wire.OpPing, wire.OpStats, wire.OpRotate,
	wire.OpNamespaceCreate, wire.OpNamespaceDelete, wire.OpNamespaceList,
	wire.OpClusterMap,
	wire.OpMembershipAdd, wire.OpMembershipContains, wire.OpMembershipMerge,
	wire.OpMembershipDump, wire.OpFreeze,
	wire.OpAssociationAdd, wire.OpAssociationRemove, wire.OpAssociationQuery,
	wire.OpMultiplicityAdd, wire.OpMultiplicityRemove, wire.OpMultiplicityCount,
	wire.OpMultiplicityMerge, wire.OpMultiplicityDump,
}

// httpOpNames are the instrumented HTTP routes' op label values. Ops
// shared with ShBP reuse the wire op names so one dashboard query
// spans both transports; the rest are HTTP-only surfaces.
var httpOpNames = []string{
	"membership-add", "membership-contains", "membership-merge", "membership-dump",
	"association-add", "association-remove", "association-query",
	"multiplicity-add", "multiplicity-remove", "multiplicity-count",
	"multiplicity-merge", "multiplicity-dump",
	"rotate", "stats", "freeze", "snapshot",
	"namespace-create", "namespace-delete", "namespace-list",
	"daemon-stats", "cluster-map", "healthz",
}

// wireStatusCount is the number of defined wire statuses (0..5); both
// transports label request counters with the wire status name, so the
// exactness tests can compare them series for series.
const wireStatusCount = 6

// httpOpMetrics is one HTTP route's preresolved instruments.
type httpOpMetrics struct {
	reqs [wireStatusCount]*metrics.Counter
	dur  *metrics.Histogram
}

// serverMetrics owns the registry and the preresolved hot-path
// instruments. A nil *serverMetrics (Config.NoMetrics) disables all
// instrumentation; the recording paths nil-check it.
type serverMetrics struct {
	reg *metrics.Registry

	// ShBP instruments indexed by op byte, so recording a frame is two
	// array loads and two atomic adds. Entries outside shbpOps are nil.
	shbpReqs [256][wireStatusCount]*metrics.Counter
	shbpDur  [256]*metrics.Histogram

	httpOps map[string]*httpOpMetrics

	openConns    *metrics.Gauge
	inflight     *metrics.Gauge
	shedInflight *metrics.Counter
	shedBits     *metrics.Counter
}

// newServerMetrics builds the registry: the static request series for
// both transports, the daemon gauges, and the per-namespace collectors
// that read live server state at scrape time.
func newServerMetrics(s *Server) *serverMetrics {
	reg := metrics.NewRegistry()
	m := &serverMetrics{reg: reg, httpOps: map[string]*httpOpMetrics{}}

	const (
		reqHelp = "Requests served, by transport, op and wire status name."
		durHelp = "Request dispatch latency in seconds, by transport and op."
	)
	for _, op := range shbpOps {
		name := wire.OpName(op)
		for st := 0; st < wireStatusCount; st++ {
			m.shbpReqs[op][st] = reg.NewCounter("shbf_requests_total", reqHelp,
				metrics.Label{Key: "transport", Value: "shbp"},
				metrics.Label{Key: "op", Value: name},
				metrics.Label{Key: "status", Value: wire.StatusName(byte(st))})
		}
		m.shbpDur[op] = reg.NewHistogram("shbf_request_duration_seconds", durHelp,
			durationBuckets,
			metrics.Label{Key: "transport", Value: "shbp"},
			metrics.Label{Key: "op", Value: name})
	}
	for _, name := range httpOpNames {
		om := &httpOpMetrics{}
		for st := 0; st < wireStatusCount; st++ {
			om.reqs[st] = reg.NewCounter("shbf_requests_total", reqHelp,
				metrics.Label{Key: "transport", Value: "http"},
				metrics.Label{Key: "op", Value: name},
				metrics.Label{Key: "status", Value: wire.StatusName(byte(st))})
		}
		om.dur = reg.NewHistogram("shbf_request_duration_seconds", durHelp,
			durationBuckets,
			metrics.Label{Key: "transport", Value: "http"},
			metrics.Label{Key: "op", Value: name})
		m.httpOps[name] = om
	}

	reg.NewGauge("shbf_build_info", "Build metadata; value is always 1.",
		metrics.Label{Key: "version", Value: shbf.Version},
		metrics.Label{Key: "goversion", Value: runtime.Version()}).Set(1)
	startGauge := reg.NewGauge("shbf_start_time_seconds",
		"Daemon start time, unix seconds.")
	startGauge.Set(s.start.Unix())
	reg.GaugeFunc("shbf_last_snapshot_time_seconds",
		"Completion time of the newest persisted snapshot, unix seconds (0 = never).",
		func() float64 { return float64(s.lastSnapshotUnix.Load()) })
	reg.GaugeFunc("shbf_used_bits",
		"Filter bits registered across all namespaces (all generations), the figure metered against shbf_max_total_bits.",
		func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(s.usedBits)
		})
	maxBits := reg.NewGauge("shbf_max_total_bits",
		"The -max-total-bits memory ceiling (0 = unlimited).")
	maxBits.Set(s.cfg.MaxTotalBits)
	reg.GaugeFunc("shbf_namespaces", "Live namespaces.", func() float64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return float64(len(s.namespaces))
	})
	m.openConns = reg.NewGauge("shbf_shbp_open_connections", "Open ShBP connections.")
	m.inflight = reg.NewGauge("shbf_shbp_inflight_frames",
		"ShBP frames currently being dispatched.")
	m.shedInflight = reg.NewCounter("shbf_shed_total",
		"Requests shed by daemon-wide admission control, by reason.",
		metrics.Label{Key: "reason", Value: "inflight"})
	m.shedBits = reg.NewCounter("shbf_shed_total",
		"Requests shed by daemon-wide admission control, by reason.",
		metrics.Label{Key: "reason", Value: "max-total-bits"})
	reg.CounterFunc("shbf_snapshots_total", "Snapshots persisted.",
		func() uint64 { return s.snapshots.Load() })

	// Per-namespace families, read from live state at scrape time.
	// snapshotList() is name-sorted, so emission order is deterministic.
	nsLabel := func(ns *namespace) metrics.Label {
		return metrics.Label{Key: "namespace", Value: ns.name}
	}
	reg.CollectGauge("shbf_namespace_bits",
		"Namespace filter-bit footprint, all generations of the trio.",
		func(e *metrics.Emitter) {
			for _, ns := range s.snapshotList() {
				e.Emit(float64(ns.totalBits()), nsLabel(ns))
			}
		})
	reg.CollectGauge("shbf_namespace_n",
		"Stored elements per filter (-1 where no exact set is tracked).",
		func(e *metrics.Emitter) {
			for _, ns := range s.snapshotList() {
				e.Emit(float64(ns.mem.Stats().N), nsLabel(ns), metrics.Label{Key: "filter", Value: "membership"})
				e.Emit(float64(ns.assoc.Stats().N), nsLabel(ns), metrics.Label{Key: "filter", Value: "association"})
				e.Emit(float64(ns.mult.Stats().N), nsLabel(ns), metrics.Label{Key: "filter", Value: "multiplicity"})
			}
		})
	reg.CollectGauge("shbf_namespace_fill_ratio",
		"Mean fraction of set bits across a filter's shards.",
		func(e *metrics.Emitter) {
			for _, ns := range s.snapshotList() {
				mem, assoc, mult := nsFillRatios(ns)
				e.Emit(mem, nsLabel(ns), metrics.Label{Key: "filter", Value: "membership"})
				e.Emit(assoc, nsLabel(ns), metrics.Label{Key: "filter", Value: "association"})
				e.Emit(mult, nsLabel(ns), metrics.Label{Key: "filter", Value: "multiplicity"})
			}
		})
	reg.CollectGauge("shbf_namespace_estimated_fpr",
		"Served membership false-positive rate at current occupancy (window-bounded in window mode).",
		func(e *metrics.Emitter) {
			for _, ns := range s.snapshotList() {
				e.Emit(membershipStatsOf(ns).EstimatedFPR, nsLabel(ns))
			}
		})
	reg.CollectGauge("shbf_namespace_rotation_epoch",
		"Completed window rotations (0 for classic namespaces).",
		func(e *metrics.Emitter) {
			for _, ns := range s.snapshotList() {
				var epoch uint64
				if w, ok := ns.mem.(shbf.Windowed); ok {
					epoch = w.Window().Epoch
				}
				e.EmitUint(epoch, nsLabel(ns))
			}
		})
	reg.CollectGauge("shbf_namespace_frozen",
		"1 when the namespace is frozen read-only.",
		func(e *metrics.Emitter) {
			for _, ns := range s.snapshotList() {
				v := uint64(0)
				if ns.frozen.Load() {
					v = 1
				}
				e.EmitUint(v, nsLabel(ns))
			}
		})
	reg.CollectCounter("shbf_namespace_keys_total",
		"Keys served per namespace, by query-counter group (both transports).",
		func(e *metrics.Emitter) {
			for _, ns := range s.snapshotList() {
				l := nsLabel(ns)
				e.EmitUint(ns.stats.membershipAdd.Load(), l, metrics.Label{Key: "op", Value: "membership_add"})
				e.EmitUint(ns.stats.membershipContains.Load(), l, metrics.Label{Key: "op", Value: "membership_contains"})
				e.EmitUint(ns.stats.associationUpdate.Load(), l, metrics.Label{Key: "op", Value: "association_update"})
				e.EmitUint(ns.stats.associationQuery.Load(), l, metrics.Label{Key: "op", Value: "association_query"})
				e.EmitUint(ns.stats.multiplicityUpdate.Load(), l, metrics.Label{Key: "op", Value: "multiplicity_update"})
				e.EmitUint(ns.stats.multiplicityQuery.Load(), l, metrics.Label{Key: "op", Value: "multiplicity_query"})
			}
		})
	reg.CollectCounter("shbf_namespace_rotations_total",
		"Window rotations performed per namespace.",
		func(e *metrics.Emitter) {
			for _, ns := range s.snapshotList() {
				e.EmitUint(ns.stats.rotations.Load(), nsLabel(ns))
			}
		})
	reg.CollectCounter("shbf_namespace_shed_total",
		"Requests shed per namespace by admission control, by reason.",
		func(e *metrics.Emitter) {
			for _, ns := range s.snapshotList() {
				e.EmitUint(ns.stats.rateShed.Load(), nsLabel(ns),
					metrics.Label{Key: "reason", Value: "rate"})
			}
		})

	// UDP ingest families, read from the receiver's accounting at
	// scrape time. UDP has no reply channel, so these series are the
	// only place refusals (and transport loss) surface.
	typeLabel := func(t string) metrics.Label {
		return metrics.Label{Key: "type", Value: t}
	}
	reg.CollectCounter("shbf_udp_datagrams_received_total",
		"ShBU datagrams decoded, by payload type.",
		func(e *metrics.Emitter) {
			st := s.udp.Stats()
			e.EmitUint(st.ReceivedBatch, typeLabel("batch"))
			e.EmitUint(st.ReceivedEnvelope, typeLabel("envelope"))
		})
	reg.CollectCounter("shbf_udp_datagrams_applied_total",
		"ShBU datagrams applied through the namespace write gates, by payload type.",
		func(e *metrics.Emitter) {
			st := s.udp.Stats()
			e.EmitUint(st.AppliedBatch, typeLabel("batch"))
			e.EmitUint(st.AppliedEnvelope, typeLabel("envelope"))
		})
	reg.CollectCounter("shbf_udp_datagrams_dropped_total",
		"ShBU datagrams refused, by reason.",
		func(e *metrics.Emitter) {
			st := s.udp.Stats()
			for _, reason := range ingest.DropReasons() {
				e.EmitUint(st.Dropped[reason],
					metrics.Label{Key: "reason", Value: reason.String()})
			}
		})
	reg.CounterFunc("shbf_udp_reordered_total",
		"ShBU datagrams that arrived after a higher sequence from their source.",
		func() uint64 { return s.udp.Stats().Reordered })
	reg.CounterFunc("shbf_udp_merge_bytes_total",
		"Reassembled envelope bytes accepted for union-merge.",
		func() uint64 { return s.udp.Stats().MergeBytes })
	reg.GaugeFunc("shbf_udp_lost_datagrams",
		"Datagrams sent but never received, estimated from sequence gaps (late arrivals shrink it).",
		func() float64 { return float64(s.udp.Stats().Lost) })
	reg.GaugeFunc("shbf_udp_loss_ratio",
		"Estimated fraction of sent datagrams lost in flight.",
		func() float64 { return s.udp.Stats().LossRatio() })
	reg.GaugeFunc("shbf_udp_sources",
		"Distinct ShBU source IDs tracked.",
		func() float64 { return float64(s.udp.Stats().Sources) })
	reg.GaugeFunc("shbf_udp_assemblies",
		"Envelope fragment reassemblies currently in flight.",
		func() float64 { return float64(s.udp.Stats().Assemblies) })
	reg.CounterFunc("shbf_udp_assemblies_evicted_total",
		"Incomplete reassemblies discarded: superseded by a newer flush from the same source, or displaced under capacity pressure.",
		func() uint64 { return s.udp.Stats().AssembliesEvicted })

	return m
}

// nsFillRatios is the scrape-time mean fill ratio of each filter of
// the trio (the shard-mean the stats endpoints also report).
func nsFillRatios(ns *namespace) (mem, assoc, mult float64) {
	msh := ns.mem.ShardStats()
	for _, sh := range msh {
		mem += sh.FillRatio
	}
	mem /= float64(len(msh))
	ash := ns.assoc.ShardStats()
	for _, sh := range ash {
		assoc += sh.FillRatio
	}
	assoc /= float64(len(ash))
	xsh := ns.mult.ShardStats()
	for _, sh := range xsh {
		mult += sh.FillRatio
	}
	mult /= float64(len(xsh))
	return mem, assoc, mult
}

// ServeHTTP serves GET /metrics.
func (m *serverMetrics) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m.reg.ServeHTTP(w, r)
}

// instrumentHTTP wraps one route with its request counter and latency
// histogram. The HTTP status is folded onto the wire status names so
// the two transports' request counters share a label vocabulary.
func (s *Server) instrumentHTTP(op string, h http.HandlerFunc) http.HandlerFunc {
	if s.met == nil {
		return h
	}
	om := s.met.httpOps[op]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(&sw, r)
		om.dur.Observe(time.Since(start))
		om.reqs[httpStatusIndex(sw.code)].Inc()
	}
}

// statusWriter captures the response status for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// httpStatusIndex folds an HTTP status onto the wire status indices
// through the wire↔HTTP table the answers were written with.
func httpStatusIndex(code int) int { return int(wire.StatusOfHTTP(code)) }

// statusIndex clamps a wire status onto the counter index range.
func statusIndex(st byte) int {
	if int(st) >= wireStatusCount {
		return wire.StatusInternal
	}
	return int(st)
}
