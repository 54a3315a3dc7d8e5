package server

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"shbf"
	"shbf/internal/wire"
)

// Admission control: the degrade-gracefully layer between "1024
// tenants max" and one tenant (or one traffic spike) taking the whole
// daemon down. Three independent gates, all answering HTTP 429 /
// wire.StatusOverloaded with identical messages on both transports:
//
//   - a per-tenant token bucket on the data-plane ops (NamespaceConfig
//     RatePerSec/RateBurst), charging one token per key, with writes
//     shed before reads: a write needs a quarter-bucket of headroom, a
//     read only its own tokens, so under sustained overload queries
//     keep answering while inserts back off;
//   - a daemon-wide memory ceiling (Config.MaxTotalBits): namespace
//     creation that would push the sum of every tenant's filter bits
//     (all generations) past the ceiling is shed;
//   - an in-flight ShBP frame cap (Config.MaxInflightFrames), bounding
//     the frames being dispatched at once across all binary
//     connections — again shedding writes (at ¾ of the cap) before
//     reads (at the cap).
//
// A shed request was NOT applied — StatusOverloaded is the one failure
// status a client may blindly retry after a backoff (client.RetryPolicy
// does exactly that). Per-tenant bit budgets (NamespaceConfig.MaxBits)
// are enforced at create time and are a config error (400), not an
// overload.

// errOverloaded marks admission-control rejections; statusOf maps it
// to StatusOverloaded (HTTP 429) for every transport, so new shed
// paths wrap this sentinel.
var errOverloaded = errors.New("overloaded")

// IsOverloaded reports whether err is an admission-control rejection.
func IsOverloaded(err error) bool { return errors.Is(err, errOverloaded) }

// rateLimiter is one tenant's token bucket. Tokens refill continuously
// at rate/sec up to burst; each data-plane op costs one token per key.
// Writes keep a reserve of burst/4 in the bucket so reads degrade
// last.
type rateLimiter struct {
	rate  float64 // tokens per second
	burst float64 // bucket capacity

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// newRateLimiter builds a bucket that starts full. burst ≤ 0 defaults
// to one second's worth of tokens (min 1).
func newRateLimiter(rate, burst float64) *rateLimiter {
	if burst <= 0 {
		burst = rate
	}
	if burst < 1 {
		burst = 1
	}
	return &rateLimiter{rate: rate, burst: burst, tokens: burst}
}

// admit charges n tokens at time now, or reports why not. Writes
// additionally require a burst/4 reserve to remain — the "shed writes
// before reads" policy.
func (l *rateLimiter) admit(n int, write bool, now time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if now.After(l.last) {
		l.tokens += now.Sub(l.last).Seconds() * l.rate
		if l.tokens > l.burst {
			l.tokens = l.burst
		}
	}
	l.last = now
	need := float64(n)
	if write {
		need += l.burst / 4
	}
	if l.tokens < need {
		return false
	}
	l.tokens -= float64(n)
	return true
}

// admit gates one data-plane op of nKeys keys on the namespace's rate
// quota (a no-op for tenants without one). The error message is the
// body every transport serves.
func (ns *namespace) admit(nKeys int, write bool) error {
	if ns.limiter == nil {
		return nil
	}
	if !ns.limiter.admit(nKeys, write, time.Now()) {
		ns.stats.rateShed.Add(1)
		kind := "read"
		if write {
			kind = "write"
		}
		return fmt.Errorf("server: namespace %q: rate quota exceeded, %s of %d keys shed (%.0f/s, burst %.0f; writes shed first): %w",
			ns.name, kind, nKeys, ns.limiter.rate, ns.limiter.burst, errOverloaded)
	}
	return nil
}

// totalBits is the namespace's full memory footprint in filter bits:
// every generation of every filter of the trio (the figure the daemon
// ceiling meters).
func (ns *namespace) totalBits() int64 {
	var sum int64
	for _, f := range ns.filters() {
		sum += specTotalBits(f.filter.Spec())
	}
	return sum
}

// specTotalBits is one filter's all-generations bit budget.
func specTotalBits(spec shbf.Spec) int64 {
	gens := spec.Generations
	if gens < 1 {
		gens = 1
	}
	return int64(spec.M) * int64(gens)
}

// chargeBitsLocked reserves bits under the daemon ceiling (s.mu must
// be held). Exceeding the ceiling is an overload — the daemon is full,
// not misconfigured — so creates shed with 429/StatusOverloaded.
func (s *Server) chargeBitsLocked(bits int64) error {
	if s.cfg.MaxTotalBits > 0 && s.usedBits+bits > s.cfg.MaxTotalBits {
		if s.met != nil {
			s.met.shedBits.Inc()
		}
		return fmt.Errorf("server: memory ceiling: namespace needs %d filter bits, %d of %d in use: %w",
			bits, s.usedBits, s.cfg.MaxTotalBits, errOverloaded)
	}
	s.usedBits += bits
	return nil
}

// writeOp reports whether a wire op mutates filter state — the ops the
// admission gates shed first.
func writeOp(op byte) bool {
	switch op {
	case wire.OpMembershipAdd, wire.OpMembershipMerge,
		wire.OpAssociationAdd, wire.OpAssociationRemove,
		wire.OpMultiplicityAdd, wire.OpMultiplicityRemove,
		wire.OpMultiplicityMerge:
		return true
	}
	return false
}

// frameGate is the ShBP in-flight frame cap: a daemon-wide counter of
// frames currently being dispatched. Reads shed at the cap, writes at
// ¾ of it, so a read-mostly overload never starves queries to protect
// inserts.
type frameGate struct {
	mu       sync.Mutex
	inflight int
	cap      int
	writeCap int
}

// newFrameGate builds a gate for cap in-flight frames (nil when cap ≤
// 0: unlimited).
func newFrameGate(cap int) *frameGate {
	if cap <= 0 {
		return nil
	}
	writeCap := cap - cap/4
	if writeCap < 1 {
		writeCap = 1
	}
	return &frameGate{cap: cap, writeCap: writeCap}
}

// acquire admits one frame, or reports the shed reason. Callers must
// release() iff acquire returned nil.
func (g *frameGate) acquire(write bool) error {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	limit := g.cap
	kind := "read"
	if write {
		limit = g.writeCap
		kind = "write"
	}
	if g.inflight >= limit {
		return fmt.Errorf("server: shbp %s shed, %d frames in flight (cap %d, write cap %d; writes shed first): %w",
			kind, g.inflight, g.cap, g.writeCap, errOverloaded)
	}
	g.inflight++
	return nil
}

// release returns one admitted frame's slot.
func (g *frameGate) release() {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.inflight--
	g.mu.Unlock()
}
