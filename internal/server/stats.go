package server

import (
	"math"
	"time"

	"shbf"
	"shbf/internal/analytic"
)

// Stats is the /v1/stats response: per-filter occupancy and estimated
// accuracy from the paper's formulas (internal/analytic), plus served
// query counters.
type Stats struct {
	UptimeSeconds float64           `json:"uptime_seconds"`
	Queries       map[string]uint64 `json:"queries"`
	Membership    MembershipStats   `json:"membership"`
	Association   AssociationStats  `json:"association"`
	Multiplicity  MultiplicityStats `json:"multiplicity"`
}

// WindowStats is the rotation metadata attached to a filter's stats
// when the daemon runs in window mode. Everything here is read from
// the live filter at request time — a restored snapshot's ring state
// (epoch, per-generation occupancy) shows up immediately.
type WindowStats struct {
	// Generations is the ring length G.
	Generations int `json:"generations"`
	// Epoch is the number of completed rotations (restored snapshots
	// resume their epoch).
	Epoch uint64 `json:"epoch"`
	// TickSeconds is the configured rotation period (0 = rotation only
	// via POST /v1/rotate).
	TickSeconds float64 `json:"tick_seconds,omitempty"`
	// PerGeneration lists generation occupancy newest (the write head)
	// to oldest (next to be retired), summed across shards.
	PerGeneration []GenOccupancy `json:"per_generation"`
}

// GenOccupancy is one generation's aggregate load.
type GenOccupancy struct {
	// N is the generation's element count summed across shards (−1
	// when no exact set is tracked).
	N int `json:"n"`
	// FillRatio is the generation's mean fill ratio across shards.
	FillRatio float64 `json:"fill_ratio"`
}

// windowStatsOf extracts rotation metadata when f is windowed (nil
// otherwise — the JSON omits the section for classic filters).
func windowStatsOf(f shbf.Filter) *WindowStats {
	w, ok := f.(shbf.Windowed)
	if !ok {
		return nil
	}
	in := w.Window()
	ws := &WindowStats{
		Generations:   in.Generations,
		Epoch:         in.Epoch,
		TickSeconds:   in.Tick.Seconds(),
		PerGeneration: make([]GenOccupancy, len(in.PerGeneration)),
	}
	for i, g := range in.PerGeneration {
		ws.PerGeneration[i] = GenOccupancy{N: g.N, FillRatio: g.FillRatio}
	}
	return ws
}

// ShardOccupancy is one shard's load in any of the three filters.
type ShardOccupancy struct {
	// N is the shard's element count; for association shards it is
	// n1 + n2 (distinct per set).
	N int `json:"n"`
	// FillRatio is the fraction of set bits in the shard's query array.
	FillRatio float64 `json:"fill_ratio"`
	// EstimatedFPR is the shard's predicted error rate: membership FPR
	// (Equation 1), association phantom-candidate probability, or
	// multiplicity non-member error rate (1 − CR). Omitted where not
	// defined.
	EstimatedFPR float64 `json:"estimated_fpr,omitempty"`
}

// MembershipStats describes the sharded ShBF_M (or its sliding-window
// ring in window mode, where EstimatedFPR applies the 1−(1−f)^G window
// bound and TotalBits counts one generation — multiply by
// Window.Generations for the full footprint).
type MembershipStats struct {
	Shards       int              `json:"shards"`
	TotalBits    int              `json:"total_bits"`
	K            int              `json:"k"`
	N            int              `json:"n"`
	FillRatio    float64          `json:"fill_ratio"`
	EstimatedFPR float64          `json:"estimated_fpr"`
	PerShard     []ShardOccupancy `json:"per_shard"`
	Window       *WindowStats     `json:"window,omitempty"`
}

// AssociationStats describes the sharded CShBF_A.
type AssociationStats struct {
	Shards    int     `json:"shards"`
	TotalBits int     `json:"total_bits"`
	K         int     `json:"k"`
	N1        int     `json:"n1"`
	N2        int     `json:"n2"`
	FillRatio float64 `json:"fill_ratio"`
	// ClearProb is the probability a union-member gets a single-region
	// answer at the paper's optimal sizing, (1−0.5^k)².
	ClearProb float64 `json:"clear_prob"`
	// PhantomProb is the probability a candidate region is a phantom,
	// at current occupancy.
	PhantomProb float64          `json:"phantom_prob"`
	PerShard    []ShardOccupancy `json:"per_shard"`
	Window      *WindowStats     `json:"window,omitempty"`
}

// MultiplicityStats describes the sharded CShBF_X.
type MultiplicityStats struct {
	Shards    int     `json:"shards"`
	TotalBits int     `json:"total_bits"`
	K         int     `json:"k"`
	C         int     `json:"c"`
	N         int     `json:"n"`
	FillRatio float64 `json:"fill_ratio"`
	// CorrectRateNonMember is the probability a non-member reports
	// count 0 at current occupancy (Equation 26's complement).
	CorrectRateNonMember float64          `json:"correct_rate_non_member"`
	PerShard             []ShardOccupancy `json:"per_shard"`
	Window               *WindowStats     `json:"window,omitempty"`
}

// statsFor assembles one namespace's stats, the body of /v1/stats,
// /v2/namespaces/{ns}/stats and OpStats. The "snapshots" counter is
// daemon-wide (persistence covers every tenant); the rest are the
// namespace's own.
func (s *Server) statsFor(ns *namespace) Stats {
	st := Stats{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Queries: map[string]uint64{
			"membership_add":      ns.stats.membershipAdd.Load(),
			"membership_contains": ns.stats.membershipContains.Load(),
			"association_update":  ns.stats.associationUpdate.Load(),
			"association_query":   ns.stats.associationQuery.Load(),
			"multiplicity_update": ns.stats.multiplicityUpdate.Load(),
			"multiplicity_query":  ns.stats.multiplicityQuery.Load(),
			"snapshots":           s.snapshots.Load(),
			"rotations":           ns.stats.rotations.Load(),
		},
	}

	st.Membership = membershipStatsOf(ns)

	as := AssociationStats{Window: windowStatsOf(ns.assoc)}
	ash := ns.assoc.ShardStats()
	as.Shards = len(ash)
	as.PerShard = make([]ShardOccupancy, len(ash))
	// In window mode a shard's N1+N2 spans the whole ring and a query
	// unions G generation answers, so — like the membership section —
	// evaluate the per-generation formula at N/G and union with
	// 1 − (1−p)^G. aGens = 1 degrades to the classic computation.
	aGens := 1
	if as.Window != nil {
		aGens = as.Window.Generations
	}
	phantomSum := 0.0
	for i, sh := range ash {
		// nDistinct per shard is at most n1+n2; the phantom formula
		// needs the union size, which the tables don't expose per
		// overlap, so n1+n2 is a (slightly pessimistic) upper bound.
		nGen := (sh.N1 + sh.N2 + aGens - 1) / aGens
		phantom := analytic.FPRWindow(analytic.PhantomProb(sh.Bits, nGen, sh.K), aGens)
		as.TotalBits += sh.Bits
		as.K = sh.K
		as.N1 += sh.N1
		as.N2 += sh.N2
		as.FillRatio += sh.FillRatio
		phantomSum += phantom
		as.PerShard[i] = ShardOccupancy{N: sh.N1 + sh.N2, FillRatio: sh.FillRatio, EstimatedFPR: phantom}
	}
	as.FillRatio /= float64(len(ash))
	as.PhantomProb = phantomSum / float64(len(ash))
	as.ClearProb = analytic.ClearProbShBFA(as.K)
	st.Association = as

	xs := MultiplicityStats{Window: windowStatsOf(ns.mult)}
	xsh := ns.mult.ShardStats()
	xs.Shards = len(xsh)
	xs.PerShard = make([]ShardOccupancy, len(xsh))
	// Window counts sum the ring, so a non-member reports 0 only when
	// every generation reports 0: CR_window = CR_gen^G at the
	// per-generation load. xGens = 1 degrades to the classic form.
	xGens := 1
	if xs.Window != nil {
		xGens = xs.Window.Generations
	}
	crSum := 0.0
	for i, sh := range xsh {
		nGen := (max(sh.N, 0) + xGens - 1) / xGens
		cr := math.Pow(analytic.CRNonMember(sh.Bits, nGen, sh.K, sh.C), float64(xGens))
		xs.TotalBits += sh.Bits
		xs.K = sh.K
		xs.C = sh.C
		if sh.N < 0 || xs.N < 0 {
			xs.N = -1 // unsafe-mode sentinel propagates, as in Multiplicity.N
		} else {
			xs.N += sh.N
		}
		xs.FillRatio += sh.FillRatio
		crSum += cr
		xs.PerShard[i] = ShardOccupancy{N: sh.N, FillRatio: sh.FillRatio, EstimatedFPR: 1 - cr}
	}
	xs.FillRatio /= float64(len(xsh))
	xs.CorrectRateNonMember = crSum / float64(len(xsh))
	st.Multiplicity = xs

	return st
}

// membershipStatsOf assembles the membership section of a namespace's
// stats. It is the one place the served membership FPR is computed —
// shared by statsFor (the per-tenant stats endpoints) and the tenant
// summaries behind GET /v2/stats and GET /v2/namespaces
// (NamespaceInfo), so the daemon-wide rollup can never disagree with
// the per-namespace endpoint.
func membershipStatsOf(ns *namespace) MembershipStats {
	mem := ns.mem.ShardStats()
	ms := MembershipStats{Shards: len(mem), PerShard: make([]ShardOccupancy, len(mem)),
		Window: windowStatsOf(ns.mem)}
	// In window mode a shard's N spans its whole ring; one generation
	// carries ≈ N/G of it, and a negative probe passes if any of the G
	// generations false-positives: 1 − (1−f_gen)^G (analytic.FPRWindow).
	gens := 1
	if ms.Window != nil {
		gens = ms.Window.Generations
	}
	fprSum := 0.0
	for i, sh := range mem {
		fpr := analytic.FPRShBFMWindow(sh.Bits, (sh.N+gens-1)/gens, float64(sh.K), sh.MaxOffset, gens)
		ms.TotalBits += sh.Bits
		ms.K = sh.K
		ms.N += sh.N
		ms.FillRatio += sh.FillRatio
		fprSum += fpr
		ms.PerShard[i] = ShardOccupancy{N: sh.N, FillRatio: sh.FillRatio, EstimatedFPR: fpr}
	}
	ms.FillRatio /= float64(len(mem))
	// A negative probe routes to one shard, so the served FPR is the
	// mean of the per-shard rates.
	ms.EstimatedFPR = fprSum / float64(len(mem))
	return ms
}
