// Package window gives sliding-window semantics to the core ShBF
// kinds: a generation ring of G identically-specified filters in which
// writes go to the head generation, queries combine all G generations
// (membership ORs, multiplicity sums, association unions candidate
// regions), and a rotation retires the oldest generation and recycles
// it as a cleared head. After G rotations nothing written before the
// first rotation is still answerable — the filter "forgets", which is
// what streaming deployments of the paper's use cases (per-flow
// measurement, membership over network traffic) need: "was this key
// seen in the last N minutes", not "ever".
//
// With a rotation every tick T, a key inserted at some instant stays
// queryable for between (G−1)·T and G·T — the usual generation-ring
// slack of one tick. Steady-state resources are bounded by the ring:
// memory is G × the per-generation Spec, and the query-side false
// positive rate is bounded by 1 − (1−f)^G where f is one generation's
// rate at its tick-worth of load (analytic.FPRWindow). Unlike an
// unbounded append-only filter, neither grows with stream length.
//
// Three windows cover the framework's query kinds, and each is written
// once over one generic ring body. The body holds the Rotator, the
// window kind and the batch digest scratch, and owns what a ring
// answers as a whole: geometry (M, K, Generations, Epoch, Spec),
// occupancy (SizeBytes, FillRatio, Stats, Window), rotation (Rotate,
// RotateIfDue) and the ShBW snapshot (MarshalBinary, and the decoding
// under each ring's UnmarshalBinary). It also owns the one recycle rule
// of constructed and decoded rings alike: a retired generation that
// can Reset is cleared in place, any other is rebuilt from its Spec.
// Each window adds its build function, its writes to the head
// generation and its per-key fan-out across the ring:
//
//   - [Membership] rings ShBF_M (core.Membership): Add/Contains with
//     OR-of-generations queries.
//   - [Multiplicity] rings CShBF_X (core.CountingMultiplicity):
//     Insert/Count with sum-of-generations counts, which never
//     underestimate a key's in-window multiplicity.
//   - [Association] rings CShBF_A (core.CountingAssociation):
//     InsertS1/InsertS2/Query with union-of-candidate-region answers.
//
// All three ride the one-pass digest pipeline: batch paths digest each
// key once and fan the cached digest out across the ring, so a window
// query costs one key scan plus G probe sets — no per-generation
// re-hashing — and the hot paths do not allocate in steady state.
// Rotation policy is explicit: Rotate retires the tail now, RotateIfDue
// rotates when the configured tick has elapsed. The query and write
// paths never read the clock, so windows stay deterministic and
// benchmarkable; a serving loop (cmd/shbfd's -tick) owns the cadence.
//
// Like the core kinds they ring, windows are not safe for concurrent
// mutation. internal/sharded composes per-shard windows into
// lock-striped concurrent ones that rotate shard by shard without
// blocking queries on other shards.
package window

import (
	"encoding"
	"fmt"
	"time"

	"shbf/internal/core"
	"shbf/internal/hashing"
)

// maxGenerations bounds ring construction and decoding; a window deep
// enough to want more generations should widen its tick instead.
const maxGenerations = 1 << 12

// TickPolicy is the wall-clock rotation policy shared by the
// monolithic rings (Rotator) and the sharded compositions: a
// configured period and the time of the last due rotation. The zero
// period disables the clock entirely.
type TickPolicy struct {
	// Tick is the rotation period; zero means rotation is explicit.
	Tick time.Duration
	last time.Time
}

// Due reports whether a rotation is due at now: the first call arms
// the clock, later calls answer true once per elapsed Tick and reset
// it. The clock advances even if the caller's subsequent rotation
// fails (it retries on the next tick, not immediately).
func (p *TickPolicy) Due(now time.Time) bool {
	if p.Tick == 0 {
		return false
	}
	if p.last.IsZero() {
		p.last = now
		return false
	}
	if now.Sub(p.last) < p.Tick {
		return false
	}
	p.last = now
	return true
}

// Rotator is the generic generation ring under every window kind: G
// filters of identical Spec, a head index naming the write generation,
// and the rotation bookkeeping (epoch, tick policy). Each window's
// ring body owns one.
type Rotator[F any] struct {
	gens  []F
	head  int
	epoch uint64
	clock TickPolicy

	// recycle clears or rebuilds a retired tail generation so it can
	// serve as the new head. Kinds with an in-place Reset recycle with
	// zero garbage; the counting kinds rebuild from spec.
	recycle func(F) (F, error)
}

// NewRotator builds a ring of g generations, each constructed by
// fresh; recycle turns a retired generation into an empty one at
// rotation (clearing in place where the kind supports it, rebuilding
// otherwise). tick is the wall-clock rotation period honored by
// RotateIfDue; zero leaves rotation fully explicit.
func NewRotator[F any](g int, tick time.Duration, fresh func() (F, error), recycle func(F) (F, error)) (*Rotator[F], error) {
	if g < 2 || g > maxGenerations {
		return nil, fmt.Errorf("window: generation count %d out of range [2, %d]", g, maxGenerations)
	}
	if tick < 0 {
		return nil, fmt.Errorf("window: negative tick %s", tick)
	}
	r := &Rotator[F]{gens: make([]F, g), clock: TickPolicy{Tick: tick}, recycle: recycle}
	for i := range r.gens {
		f, err := fresh()
		if err != nil {
			return nil, fmt.Errorf("window: building generation %d: %w", i, err)
		}
		r.gens[i] = f
	}
	return r, nil
}

// Generations returns the ring length G.
func (r *Rotator[F]) Generations() int { return len(r.gens) }

// Epoch returns the number of completed rotations.
func (r *Rotator[F]) Epoch() uint64 { return r.epoch }

// Tick returns the configured wall-clock rotation period (zero when
// rotation is explicit-only).
func (r *Rotator[F]) Tick() time.Duration { return r.clock.Tick }

// Head returns the write generation.
func (r *Rotator[F]) Head() F { return r.gens[r.head] }

// At returns the generation age rotations old: At(0) is the head,
// At(Generations()−1) the next to be retired.
func (r *Rotator[F]) At(age int) F { return r.gens[r.index(age)] }

// index maps an age (0 = head) to a ring position.
func (r *Rotator[F]) index(age int) int {
	g := len(r.gens)
	return ((r.head-age)%g + g) % g
}

// Rotate retires the oldest generation, recycles it as the cleared new
// head, and advances the epoch. Keys whose only copy lived in the
// retired generation stop being answerable — that is the point.
func (r *Rotator[F]) Rotate() error {
	tail := (r.head + 1) % len(r.gens) // the ring position after head is the oldest
	fresh, err := r.recycle(r.gens[tail])
	if err != nil {
		return fmt.Errorf("window: recycling retired generation: %w", err)
	}
	r.gens[tail] = fresh
	r.head = tail
	r.epoch++
	return nil
}

// RotateIfDue rotates once when at least one tick has elapsed since
// the last due rotation (or since the first call, which arms the
// clock), reporting whether it rotated. Callers own the cadence — the
// query paths never read the clock — so pass time.Now() from a serving
// loop, or synthetic times from tests.
func (r *Rotator[F]) RotateIfDue(now time.Time) (bool, error) {
	if !r.clock.Due(now) {
		return false, nil
	}
	if err := r.Rotate(); err != nil {
		return false, err
	}
	return true, nil
}

// Info is a window's rotation snapshot, surfaced by the daemon's
// /v1/stats and the root package's Windowed interface.
type Info struct {
	// Generations is the ring length G.
	Generations int
	// Epoch is the number of completed rotations.
	Epoch uint64
	// Tick is the configured rotation period (0 = explicit rotation).
	Tick time.Duration
	// PerGeneration lists each generation's occupancy, newest (the
	// write head) to oldest (next to be retired).
	PerGeneration []GenInfo
}

// GenInfo is one generation's occupancy.
type GenInfo struct {
	// N is the generation's stored-element count (per-kind semantics
	// as core.Stats.N; −1 where no exact set is tracked).
	N int
	// FillRatio is the fraction of set bits in the generation's
	// query-side array.
	FillRatio float64
}

// generation is what a ring needs of its generation filter F: a
// pointer to G, so decoding can allocate fresh generations, that
// reports its geometry and occupancy and serializes itself.
// core.Membership, core.CountingAssociation and
// core.CountingMultiplicity qualify.
type generation[G any] interface {
	*G
	M() int
	K() int
	Spec() core.Spec
	Stats() core.Stats
	SizeBytes() int
	FillRatio() float64
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// ring is the body every window shares, whatever it answers: the
// generation ring, the window kind and the batch digest scratch, and
// the surface read off the ring as a whole. Membership, Association
// and Multiplicity embed it and add their writes to the head and their
// per-key fan-out across the generations.
type ring[G any, F generation[G]] struct {
	rot      *Rotator[F]
	kind     core.Kind
	dscratch []hashing.Digest
}

// newRing validates spec against the window kind and builds its ring
// of spec.Generations generations, each build(spec).
func newRing[G any, F generation[G]](spec core.Spec, kind core.Kind, build func(core.Spec) (F, error)) (ring[G, F], error) {
	if spec.Kind != kind {
		return ring[G, F]{}, fmt.Errorf("window: spec kind %s, want %s", spec.Kind, kind)
	}
	if err := spec.Validate(); err != nil {
		return ring[G, F]{}, err
	}
	rot, err := NewRotator(spec.Generations, spec.Tick, func() (F, error) { return build(spec) }, recycler(build))
	return ring[G, F]{rot: rot, kind: kind}, err
}

// recycler is the one recycle rule of constructed and decoded rings: a
// retired generation that can Reset (ShBF_M) is cleared in place, so
// rotation makes no garbage; any other (the counting kinds, whose
// counters and backing tables have no in-place Reset) is rebuilt from
// its own Spec. One rebuild per tick is cold-path work.
func recycler[F interface{ Spec() core.Spec }](build func(core.Spec) (F, error)) func(F) (F, error) {
	return func(f F) (F, error) {
		if r, ok := any(f).(interface{ Reset() }); ok {
			r.Reset()
			return f, nil
		}
		return build(f.Spec())
	}
}

// M returns the per-generation base array size in bits.
func (w *ring[G, F]) M() int { return w.rot.Head().M() }

// K returns the bit positions per element.
func (w *ring[G, F]) K() int { return w.rot.Head().K() }

// Generations returns the ring length G.
func (w *ring[G, F]) Generations() int { return w.rot.Generations() }

// Epoch returns the number of completed rotations.
func (w *ring[G, F]) Epoch() uint64 { return w.rot.Epoch() }

// Rotate retires the oldest generation and recycles it as the new,
// empty head (see recycler). Only a rebuild can fail, on exhausted
// memory; the membership window's error is always nil.
func (w *ring[G, F]) Rotate() error { return w.rot.Rotate() }

// RotateIfDue rotates once when the spec's Tick has elapsed since the
// last due rotation, reporting whether it did. See Rotator.RotateIfDue.
func (w *ring[G, F]) RotateIfDue(now time.Time) (bool, error) { return w.rot.RotateIfDue(now) }

// SizeBytes returns the combined footprint of all generations.
func (w *ring[G, F]) SizeBytes() int {
	b := 0
	for _, g := range w.rot.gens {
		b += g.SizeBytes()
	}
	return b
}

// FillRatio returns the mean query-array fill ratio across
// generations.
func (w *ring[G, F]) FillRatio() float64 {
	s := 0.0
	for _, g := range w.rot.gens {
		s += g.FillRatio()
	}
	return s / float64(len(w.rot.gens))
}

// Spec returns the construction geometry: the head generation's
// geometry and seed with the window kind, ring length and tick
// attached. New(w.Spec()) builds an empty ring identical to w before
// any write.
func (w *ring[G, F]) Spec() core.Spec {
	s := w.rot.Head().Spec()
	s.Kind = w.kind
	s.Generations = len(w.rot.gens)
	s.Tick = w.rot.Tick()
	return s
}

// Stats returns the aggregate occupancy snapshot: N sums the
// generations' (both sets' sizes for association; see addCount for
// the −1 of a ring that tracks no exact set), SizeBytes sums their
// footprints and FillRatio is their mean.
func (w *ring[G, F]) Stats() core.Stats {
	st := core.Stats{Kind: w.kind}
	for _, g := range w.rot.gens {
		s := g.Stats()
		st.N = addCount(st.N, s.N)
		st.SizeBytes += s.SizeBytes
		st.FillRatio += s.FillRatio
	}
	st.FillRatio /= float64(len(w.rot.gens))
	return st
}

// Window returns the rotation snapshot: ring length, epoch, tick, and
// per-generation occupancy newest to oldest (N as in Stats).
func (w *ring[G, F]) Window() Info {
	r := w.rot
	in := Info{
		Generations:   len(r.gens),
		Epoch:         r.epoch,
		Tick:          r.clock.Tick,
		PerGeneration: make([]GenInfo, len(r.gens)),
	}
	for age := range r.gens {
		s := r.At(age).Stats()
		in.PerGeneration[age] = GenInfo{N: s.N, FillRatio: s.FillRatio}
	}
	return in
}

// sum totals count over the generations, keeping addCount's −1.
func (w *ring[G, F]) sum(count func(F) int) int {
	total := 0
	for _, g := range w.rot.gens {
		total = addCount(total, count(g))
	}
	return total
}

// addCount adds a generation's element count n to a running total: a
// generation that tracks no exact set (the unsafe update mode) counts
// −1, and so does any total it joins.
func addCount(total, n int) int {
	if total < 0 || n < 0 {
		return -1
	}
	return total + n
}

// digests fills the ring's scratch with the keys' one-pass digests,
// reallocating only on growth — phase one of every batch read, whose
// phase two fans each cached digest out across the ring.
func (w *ring[G, F]) digests(keys [][]byte) []hashing.Digest {
	ds := resizeSlice(w.dscratch, len(keys))
	for i, e := range keys {
		ds[i] = hashing.KeyDigest(e)
	}
	w.dscratch = ds
	return ds
}

// resizeSlice resizes dst to n, reusing its backing array when
// possible (the dst convention shared with internal/core's batch
// paths).
func resizeSlice[T any](dst []T, n int) []T {
	if cap(dst) < n {
		return make([]T, n)
	}
	return dst[:n]
}
