package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"shbf"
	"shbf/internal/core"
)

// Registry errors, classed by statusOf.
var (
	// errNamespaceExists reports a create of a name already registered
	// (409/StatusConflict).
	errNamespaceExists = errors.New("namespace already exists")
	// errUnknownNamespace reports a name not registered
	// (404/StatusNotFound).
	errUnknownNamespace = errors.New("unknown namespace")
	// errDefaultUndeletable refuses deleting the default namespace
	// (409/StatusConflict).
	errDefaultUndeletable = fmt.Errorf("server: the %q namespace cannot be deleted", DefaultNamespace)
)

// Multi-tenant namespaces. One daemon serves many logical filter trios
// — membership, association, multiplicity — each keyed by a namespace
// name with its own geometry (bits, k, shards, seed) and window policy
// (generations, tick). The v1 API is a shim over the namespace named
// DefaultNamespace, which always exists; the v2 HTTP API and the ShBP
// binary protocol address any namespace. Snapshots concatenate every
// namespace's envelopes, so a restart restores the whole tenant set.

// DefaultNamespace is the namespace the v1 endpoints serve and the one
// built from the daemon's flags at startup. It cannot be deleted.
const DefaultNamespace = "default"

// maxNamespaces bounds the tenant count so a misbehaving client cannot
// allocate unbounded filter memory via POST /v2/namespaces.
const maxNamespaces = 1024

// namespace is one tenant: the three filters and the tenant's served-
// query counters.
type namespace struct {
	name  string
	mem   membershipFilter
	assoc associationFilter
	mult  multiplicityFilter
	stats counters
	// limiter is the tenant's data-plane rate quota (admission.go);
	// nil = unlimited. Like frozen it is process-local: snapshots
	// persist filter state, not admission policy.
	limiter *rateLimiter
	// frozen marks the tenant read-only after a freeze (see freeze.go);
	// process-local, not persisted in snapshots.
	frozen atomic.Bool
	// writeMu orders writes against a freeze: every mutation holds it
	// shared from its frozen check to its last filter update
	// (beginWrite), and the freeze holds it exclusively.
	writeMu sync.RWMutex
}

// NamespaceConfig is the JSON shape of POST /v2/namespaces (and the
// OpNamespaceCreate blob): per-tenant overrides of the daemon's base
// geometry. Zero-valued fields inherit the daemon's configuration;
// pointer fields distinguish "absent" from a meaningful zero.
type NamespaceConfig struct {
	Name string `json:"name"`

	MembershipBits   int `json:"membership_bits,omitempty"`
	MembershipK      int `json:"membership_k,omitempty"`
	AssociationBits  int `json:"association_bits,omitempty"`
	AssociationK     int `json:"association_k,omitempty"`
	MultiplicityBits int `json:"multiplicity_bits,omitempty"`
	MultiplicityK    int `json:"multiplicity_k,omitempty"`
	MaxCount         int `json:"max_count,omitempty"`
	Shards           int `json:"shards,omitempty"`

	// Seed overrides the daemon seed; zero is a valid seed, so absence
	// is the nil pointer.
	Seed *uint64 `json:"seed,omitempty"`

	// WindowGenerations selects the tenant's window policy: nil
	// inherits the daemon's, 0 forces classic unbounded filters, ≥ 2
	// runs a sliding window of that many generations.
	WindowGenerations *int `json:"window_generations,omitempty"`

	// WindowTickSeconds is the tenant's rotation period, honored by the
	// daemon's -tick maintenance loop (see OPERATIONS.md §5); nil
	// inherits, 0 disables clock-driven rotation for the tenant.
	WindowTickSeconds *float64 `json:"window_tick_seconds,omitempty"`

	// MaxBits is the tenant's bit budget: the resolved trio's total
	// filter bits (all generations) may not exceed it. Enforced at
	// create — a geometry over budget is rejected (400), it does not
	// silently shrink. Zero = no per-tenant budget.
	MaxBits int64 `json:"max_bits,omitempty"`
	// RatePerSec is the tenant's data-plane rate quota in keys per
	// second across all ops of the trio; excess traffic is shed with
	// 429/StatusOverloaded, writes before reads (see admission.go).
	// Zero = unlimited. Process-local: not persisted in snapshots.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// RateBurst is the quota's burst allowance in keys (the token
	// bucket's capacity). Zero defaults to one second's worth
	// (RatePerSec).
	RateBurst float64 `json:"rate_burst,omitempty"`
}

// resolve applies the per-tenant overrides onto the daemon's base
// config, returning the config the namespace's filters are built from.
func (nc NamespaceConfig) resolve(base Config) Config {
	cfg := base
	cfg.SnapshotPath = "" // persistence is daemon-level, not per-tenant
	if nc.MembershipBits != 0 {
		cfg.MembershipBits = nc.MembershipBits
	}
	if nc.MembershipK != 0 {
		cfg.MembershipK = nc.MembershipK
	}
	if nc.AssociationBits != 0 {
		cfg.AssociationBits = nc.AssociationBits
	}
	if nc.AssociationK != 0 {
		cfg.AssociationK = nc.AssociationK
	}
	if nc.MultiplicityBits != 0 {
		cfg.MultiplicityBits = nc.MultiplicityBits
	}
	if nc.MultiplicityK != 0 {
		cfg.MultiplicityK = nc.MultiplicityK
	}
	if nc.MaxCount != 0 {
		cfg.MaxCount = nc.MaxCount
	}
	if nc.Shards != 0 {
		cfg.Shards = nc.Shards
	}
	if nc.Seed != nil {
		cfg.Seed = *nc.Seed
	}
	if nc.WindowGenerations != nil {
		cfg.WindowGenerations = *nc.WindowGenerations
		if *nc.WindowGenerations == 0 {
			cfg.WindowTick = 0
		}
	}
	if nc.WindowTickSeconds != nil {
		cfg.WindowTick = time.Duration(*nc.WindowTickSeconds * float64(time.Second))
	}
	return cfg
}

// validNamespaceName enforces the namespace charset: 1–64 bytes of
// letters, digits, '.', '_' and '-' (names travel in URLs, wire frames
// and snapshot containers).
func validNamespaceName(name string) error {
	if len(name) == 0 || len(name) > 64 {
		return fmt.Errorf("server: namespace name must be 1–64 bytes, got %d", len(name))
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("server: namespace name %q has invalid byte %q (want [A-Za-z0-9._-])", name, c)
		}
	}
	return nil
}

// newNamespace builds a namespace's filter trio from a resolved config.
func newNamespace(name string, cfg Config) (*namespace, error) {
	if cfg.WindowGenerations < 0 {
		return nil, fmt.Errorf("server: negative WindowGenerations %d", cfg.WindowGenerations)
	}
	if cfg.WindowTick != 0 && cfg.WindowGenerations < 2 {
		return nil, fmt.Errorf("server: WindowTick requires WindowGenerations ≥ 2")
	}
	memSpec, assocSpec, multSpec := cfg.Specs()
	memF, err := shbf.New(memSpec)
	if err != nil {
		return nil, fmt.Errorf("server: membership filter: %w", err)
	}
	assocF, err := shbf.New(assocSpec)
	if err != nil {
		return nil, fmt.Errorf("server: association filter: %w", err)
	}
	multF, err := shbf.New(multSpec)
	if err != nil {
		return nil, fmt.Errorf("server: multiplicity filter: %w", err)
	}
	return &namespace{
		name:  name,
		mem:   memF.(membershipFilter),
		assoc: assocF.(associationFilter),
		mult:  multF.(multiplicityFilter),
	}, nil
}

// windowed reports whether the namespace's filters rotate.
func (ns *namespace) windowed() bool {
	_, ok := ns.mem.(shbf.Windowed)
	return ok
}

// filters returns the trio in canonical (membership, association,
// multiplicity) order with their serving names.
func (ns *namespace) filters() []struct {
	name   string
	filter shbf.Filter
} {
	return []struct {
		name   string
		filter shbf.Filter
	}{
		{"membership", ns.mem},
		{"association", ns.assoc},
		{"multiplicity", ns.mult},
	}
}

// --- registry --------------------------------------------------------------

// Namespace resolution and CRUD. The registry map is guarded by
// Server.mu; the namespaces themselves are internally synchronized
// (lock-striped shards), so handlers hold the registry lock only long
// enough to look a tenant up.

// lookup resolves a namespace name ("" = default).
func (s *Server) lookup(name string) (*namespace, error) {
	if name == "" {
		name = DefaultNamespace
	}
	s.mu.RLock()
	ns := s.namespaces[name]
	s.mu.RUnlock()
	if ns == nil {
		return nil, fmt.Errorf("server: %w %q", errUnknownNamespace, name)
	}
	return ns, nil
}

// defaultNS returns the always-present default namespace.
func (s *Server) defaultNS() *namespace {
	ns, err := s.lookup(DefaultNamespace)
	if err != nil {
		panic("server: default namespace missing") // unreachable: New creates it, Delete refuses it
	}
	return ns
}

// CreateNamespace builds a new tenant from the daemon's base config
// with nc's overrides applied. The name must be new; creating an
// existing namespace is a conflict (create is not idempotent — a
// second creation with different geometry would silently serve the
// first's).
func (s *Server) CreateNamespace(nc NamespaceConfig) error {
	if err := validNamespaceName(nc.Name); err != nil {
		return err
	}
	if nc.RatePerSec < 0 || nc.RateBurst < 0 {
		return fmt.Errorf("server: namespace %q: negative rate quota", nc.Name)
	}
	ns, err := newNamespace(nc.Name, nc.resolve(s.cfg))
	if err != nil {
		return err
	}
	// Per-tenant bit budget: a geometry over budget is the creator's
	// config error, rejected outright rather than shrunk.
	if bits := ns.totalBits(); nc.MaxBits > 0 && bits > nc.MaxBits {
		return fmt.Errorf("server: namespace %q: geometry needs %d filter bits, over its %d-bit budget",
			nc.Name, bits, nc.MaxBits)
	}
	if nc.RatePerSec > 0 {
		ns.limiter = newRateLimiter(nc.RatePerSec, nc.RateBurst)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.namespaces[nc.Name] != nil {
		return fmt.Errorf("server: namespace %q: %w", nc.Name, errNamespaceExists)
	}
	if len(s.namespaces) >= maxNamespaces {
		return fmt.Errorf("server: namespace limit (%d) reached", maxNamespaces)
	}
	// Daemon-wide memory ceiling: past it the daemon is full, and the
	// create is shed as an overload (429/StatusOverloaded).
	if err := s.chargeBitsLocked(ns.totalBits()); err != nil {
		return err
	}
	s.namespaces[nc.Name] = ns
	return nil
}

// DeleteNamespace removes a tenant and its filters. The default
// namespace cannot be deleted — the v1 shims serve it.
func (s *Server) DeleteNamespace(name string) error {
	if name == DefaultNamespace {
		return errDefaultUndeletable
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ns := s.namespaces[name]
	if ns == nil {
		return fmt.Errorf("server: %w %q", errUnknownNamespace, name)
	}
	s.usedBits -= ns.totalBits() // refund the memory ceiling
	delete(s.namespaces, name)
	return nil
}

// Namespaces returns the current tenant names, sorted.
func (s *Server) Namespaces() []string {
	s.mu.RLock()
	names := make([]string, 0, len(s.namespaces))
	for name := range s.namespaces {
		names = append(names, name)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return names
}

// snapshotList returns the namespaces sorted by name, the iteration
// order of stats summaries and snapshot containers.
func (s *Server) snapshotList() []*namespace {
	s.mu.RLock()
	list := make([]*namespace, 0, len(s.namespaces))
	for _, ns := range s.namespaces {
		list = append(list, ns)
	}
	s.mu.RUnlock()
	sort.Slice(list, func(i, j int) bool { return list[i].name < list[j].name })
	return list
}

// NamespaceInfo is one tenant's summary in GET /v2/namespaces and the
// OpNamespaceList reply.
type NamespaceInfo struct {
	Name     string `json:"name"`
	Shards   int    `json:"shards"`
	Windowed bool   `json:"windowed"`
	// Generations and Epoch describe the window ring (windowed
	// tenants only).
	Generations int    `json:"generations,omitempty"`
	Epoch       uint64 `json:"epoch,omitempty"`
	// TickSeconds is the tenant's rotation period (windowed tenants
	// with clock-driven rotation only).
	TickSeconds float64 `json:"tick_seconds,omitempty"`
	// MembershipN, AssociationN and MultiplicityN are stored-element
	// counts (association sums both sets; −1 where no exact set is
	// tracked).
	MembershipN   int `json:"membership_n"`
	AssociationN  int `json:"association_n"`
	MultiplicityN int `json:"multiplicity_n"`
	// TotalBits sums the three filters' bit budgets (one generation in
	// window mode).
	TotalBits int `json:"total_bits"`
	// EstimatedFPR is the membership filter's served false-positive
	// rate at current occupancy — the same figure the namespace's own
	// stats endpoint reports (both come from membershipStatsOf).
	EstimatedFPR float64 `json:"estimated_fpr"`
	// Frozen reports a read-only tenant (see freeze.go): writes answer
	// 409 until the namespace is deleted and recreated.
	Frozen bool `json:"frozen,omitempty"`
}

// info assembles a namespace's summary.
func (ns *namespace) info() NamespaceInfo {
	memStats, assocStats, multStats := ns.mem.Stats(), ns.assoc.Stats(), ns.mult.Stats()
	in := NamespaceInfo{
		Name:          ns.name,
		Shards:        memStats.Shards,
		Windowed:      ns.windowed(),
		MembershipN:   memStats.N,
		AssociationN:  assocStats.N,
		MultiplicityN: multStats.N,
		TotalBits:     specBits(ns.mem.Spec()) + specBits(ns.assoc.Spec()) + specBits(ns.mult.Spec()),
		EstimatedFPR:  membershipStatsOf(ns).EstimatedFPR,
		Frozen:        ns.frozen.Load(),
	}
	if w, ok := ns.mem.(shbf.Windowed); ok {
		win := w.Window()
		in.Generations = win.Generations
		in.Epoch = win.Epoch
		in.TickSeconds = win.Tick.Seconds()
	}
	return in
}

// specBits returns a filter spec's per-generation bit budget.
func specBits(spec core.Spec) int { return spec.M }
