package sharded

import (
	"fmt"
	"sync"
	"time"

	"shbf/internal/core"
	"shbf/internal/window"
)

// This file instantiates the three compositions over the sliding-window
// rings of internal/window: each shard holds its own generation ring,
// keys route by the usual one-pass digest, and a whole-window rotation
// walks the shards one write lock at a time. Striping is what keeps
// rotation off the query path — while shard i's ring swaps its head,
// queries on every other shard proceed untouched, and even shard i is
// blocked only for one ring-pointer swap (the membership ring clears
// its retired generation in place; the counting rings rebuild one
// generation, still a bounded pause per shard rather than a global
// stall). Shards rotate in lockstep — one Rotate() advances every
// shard's epoch by one — so the window boundary is uniform across the
// key space, momentarily skewed only while a rotation is in flight.
//
// [Window] rings membership shards, [WindowAssociation] association
// shards, [WindowMultiplicity] multiplicity shards. Everything but
// rotation is the composition they share with the classic kinds; all
// three serialize with the shard-set snapshot container over per-shard
// ShBW blobs.

// Window is a concurrency-safe sharded sliding-window membership
// filter: every shard is a generation ring of ShBF_M filters
// (window.Membership), rotated in lockstep by Rotate/RotateIfDue.
// Queries OR across the shard's ring; rotation takes each shard's
// write lock in turn, so it never blocks queries on other shards.
type Window struct {
	membership[window.Membership, *window.Membership]
	rot rotation
}

// WindowAssociation is a concurrency-safe sharded sliding-window
// two-set association filter: every shard is a generation ring of
// CShBF_A filters (window.Association). Queries union candidate
// regions across the shard's ring.
type WindowAssociation struct {
	association[window.Association, *window.Association]
	rot rotation
}

// WindowMultiplicity is a concurrency-safe sharded sliding-window
// multiplicity filter: every shard is a generation ring of CShBF_X
// filters (window.Multiplicity). Counts sum a shard's ring and never
// underestimate a key's in-window multiplicity.
type WindowMultiplicity struct {
	multiplicity[window.Multiplicity, *window.Multiplicity]
	rot rotation
}

// ring is what rotation needs of a windowed shard: a generation ring
// that rotates and reports its rotation snapshot.
type ring interface {
	Rotate() error
	Window() window.Info
}

// rotation owns a sharded window's rotation bookkeeping: the shared
// wall-clock policy (window.TickPolicy, the same clock the monolithic
// rings use) and a mutex serializing whole-window rotations (shard
// locks serialize per-shard access; this keeps two concurrent Rotate
// calls from interleaving their shard walks).
type rotation struct {
	mu    sync.Mutex
	clock window.TickPolicy
}

// newRings validates a sharded window spec against the composition's
// kind and builds its shards: M total per-generation bits split across
// Shards shards, shard i a ring of the spec's geometry over its share
// of the bits with its derived seed.
func newRings[T any, F shard[T]](spec core.Spec, build func(core.Spec) (F, error)) (set[F], error) {
	if want, _ := composed[F](); spec.Kind != want {
		return set[F]{}, fmt.Errorf("sharded: spec kind %s, want %s", spec.Kind, want)
	}
	if err := spec.Validate(); err != nil {
		return set[F]{}, err
	}
	pow, perShard, err := roundPow2(spec.M, spec.Shards)
	if err != nil {
		return set[F]{}, err
	}
	return newSet(pow, func(i int) (F, error) {
		s := spec
		s.Kind = spec.Kind.Inner()
		s.M = perShard
		s.Shards = 0
		s.Seed = shardSeed(spec.Seed, i)
		return build(s)
	})
}

// rotateAll rotates every shard's ring under its write lock, in shard
// order. The first recycle failure stops the walk: already-rotated
// shards stay rotated (their window boundary advanced), and the error
// names the failing shard.
func rotateAll[F ring](rot *rotation, s *set[F]) error {
	rot.mu.Lock()
	defer rot.mu.Unlock()
	return rotateLocked(s)
}

func rotateLocked[F ring](s *set[F]) error {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		err := sh.f.Rotate()
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("sharded: rotating shard %d: %w", i, err)
		}
	}
	return nil
}

// rotateIfDue applies the wall-clock policy at the whole-window level
// (window.TickPolicy semantics: first call arms, then once per elapsed
// tick). Shard rings stay in lockstep because the policy lives here,
// not per shard.
func rotateIfDue[F ring](rot *rotation, s *set[F], now time.Time) (bool, error) {
	rot.mu.Lock()
	defer rot.mu.Unlock()
	if !rot.clock.Due(now) {
		return false, nil
	}
	if err := rotateLocked(s); err != nil {
		return false, err
	}
	return true, nil
}

// windowInfo snapshots every shard's ring under its read lock and
// merges the snapshots: epochs and ring geometry are uniform (rotation
// is lockstep), per-generation occupancy sums Ns (see addCount) and
// averages fill ratios across shards.
func windowInfo[F ring](s *set[F]) window.Info {
	var out window.Info
	s.each(func(i int, f F) {
		in := f.Window()
		if i == 0 {
			out = in
			out.PerGeneration = make([]window.GenInfo, len(in.PerGeneration))
		}
		for age, g := range in.PerGeneration {
			out.PerGeneration[age].N = addCount(out.PerGeneration[age].N, g.N)
			out.PerGeneration[age].FillRatio += g.FillRatio
		}
	})
	for age := range out.PerGeneration {
		out.PerGeneration[age].FillRatio /= float64(s.size())
	}
	return out
}

// decodeRings decodes a sharded window's snapshot into c and re-arms
// the rotation clock with the decoded Tick: the next RotateIfDue arms
// it rather than rotating.
func decodeRings[T any, F shard[T]](c *composition[T, F], rot *rotation, data []byte) error {
	if err := c.UnmarshalBinary(data); err != nil {
		return err
	}
	rot.clock = window.TickPolicy{Tick: c.set.shards[0].f.Spec().Tick}
	return nil
}

// NewWindow builds the sharded window from its Spec (Kind
// KindWindowShardedMembership): M total per-generation bits split
// across Shards shards, each shard a ring of Generations ShBF_M
// filters. Total memory is Generations × M bits.
func NewWindow(spec core.Spec) (*Window, error) {
	s, err := newRings(spec, window.NewMembership)
	if err != nil {
		return nil, err
	}
	f := &Window{rot: rotation{clock: window.TickPolicy{Tick: spec.Tick}}}
	f.set = s
	return f, nil
}

// Kind returns core.KindWindowShardedMembership.
func (f *Window) Kind() core.Kind { return core.KindWindowShardedMembership }

// Rotate retires every shard's oldest generation and recycles it as
// the cleared head, shard by shard under striped locks. The error is
// always nil for the membership composition.
func (f *Window) Rotate() error { return rotateAll(&f.rot, &f.set) }

// RotateIfDue rotates all shards once when the spec's Tick has elapsed
// since the last due rotation, reporting whether it did.
func (f *Window) RotateIfDue(now time.Time) (bool, error) {
	return rotateIfDue(&f.rot, &f.set, now)
}

// Window returns the aggregate rotation snapshot: ring geometry and
// epoch from shard 0 (shards rotate in lockstep), per-generation
// occupancy summed across shards.
func (f *Window) Window() window.Info { return windowInfo(&f.set) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing f's
// state (shard count, ring geometry, head positions, epochs) with the
// decoded filter. The rotation clock re-arms on the next RotateIfDue.
func (f *Window) UnmarshalBinary(data []byte) error {
	return decodeRings(&f.composition, &f.rot, data)
}

// NewWindowAssociation builds the sharded window from its Spec (Kind
// KindWindowShardedAssociation): M total per-generation bits split
// across Shards shards.
func NewWindowAssociation(spec core.Spec) (*WindowAssociation, error) {
	s, err := newRings(spec, window.NewAssociation)
	if err != nil {
		return nil, err
	}
	f := &WindowAssociation{rot: rotation{clock: window.TickPolicy{Tick: spec.Tick}}}
	f.set = s
	return f, nil
}

// Kind returns core.KindWindowShardedAssociation.
func (f *WindowAssociation) Kind() core.Kind { return core.KindWindowShardedAssociation }

// Rotate retires every shard's oldest generation, shard by shard under
// striped locks (see WindowMultiplicity.Rotate for failure semantics).
func (f *WindowAssociation) Rotate() error { return rotateAll(&f.rot, &f.set) }

// RotateIfDue rotates all shards once when the spec's Tick has elapsed
// since the last due rotation, reporting whether it did.
func (f *WindowAssociation) RotateIfDue(now time.Time) (bool, error) {
	return rotateIfDue(&f.rot, &f.set, now)
}

// Window returns the aggregate rotation snapshot (see Window.Window).
func (f *WindowAssociation) Window() window.Info { return windowInfo(&f.set) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing f's
// state with the decoded filter (see Window.UnmarshalBinary).
func (f *WindowAssociation) UnmarshalBinary(data []byte) error {
	return decodeRings(&f.composition, &f.rot, data)
}

// NewWindowMultiplicity builds the sharded window from its Spec (Kind
// KindWindowShardedMultiplicity): M total per-generation bits split
// across Shards shards, counts in [1, C] per generation.
func NewWindowMultiplicity(spec core.Spec) (*WindowMultiplicity, error) {
	s, err := newRings(spec, window.NewMultiplicity)
	if err != nil {
		return nil, err
	}
	f := &WindowMultiplicity{rot: rotation{clock: window.TickPolicy{Tick: spec.Tick}}}
	f.set = s
	return f, nil
}

// Kind returns core.KindWindowShardedMultiplicity.
func (f *WindowMultiplicity) Kind() core.Kind { return core.KindWindowShardedMultiplicity }

// Rotate retires every shard's oldest generation, shard by shard under
// striped locks. On a recycle failure, already-rotated shards stay
// rotated and the error names the failing shard.
func (f *WindowMultiplicity) Rotate() error { return rotateAll(&f.rot, &f.set) }

// RotateIfDue rotates all shards once when the spec's Tick has elapsed
// since the last due rotation, reporting whether it did.
func (f *WindowMultiplicity) RotateIfDue(now time.Time) (bool, error) {
	return rotateIfDue(&f.rot, &f.set, now)
}

// Window returns the aggregate rotation snapshot (see Window.Window).
func (f *WindowMultiplicity) Window() window.Info { return windowInfo(&f.set) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing f's
// state with the decoded filter (see Window.UnmarshalBinary).
func (f *WindowMultiplicity) UnmarshalBinary(data []byte) error {
	return decodeRings(&f.composition, &f.rot, data)
}
