package sharded

import (
	"fmt"
	"sync"
	"time"

	"shbf/internal/core"
	"shbf/internal/hashing"
	"shbf/internal/window"
)

// This file composes the sliding-window rings of internal/window with
// the lock-striped shard layout: each shard holds its own generation
// ring, keys route by the usual one-pass digest, and a whole-window
// rotation walks the shards one write lock at a time. Striping is what
// keeps rotation off the query path — while shard i's ring swaps its
// head, queries on every other shard proceed untouched, and even shard
// i is blocked only for one ring-pointer swap (the membership ring
// clears its retired generation in place; the counting rings rebuild
// one generation, still a bounded pause per shard rather than a global
// stall). Shards rotate in lockstep — one Rotate() advances every
// shard's epoch by one — so the window boundary is uniform across the
// key space, momentarily skewed only while a rotation is in flight.
//
// Three compositions mirror the non-windowed wrappers: [Window] rings
// membership shards, [WindowAssociation] association shards,
// [WindowMultiplicity] multiplicity shards. All three serialize with
// the shard-set snapshot container over per-shard ShBW blobs.

// rotation owns a sharded window's rotation bookkeeping: the shared
// wall-clock policy (window.TickPolicy, the same clock the monolithic
// rings use) and a mutex serializing whole-window rotations (shard
// locks serialize per-shard access; this keeps two concurrent Rotate
// calls from interleaving their shard walks).
type rotation struct {
	mu    sync.Mutex
	clock window.TickPolicy
}

// rotateAll rotates every shard's ring under its write lock, in shard
// order. The first recycle failure stops the walk: already-rotated
// shards stay rotated (their window boundary advanced), and the error
// names the failing shard.
func rotateAll[F any](rot *rotation, s *set[F], tick func(F) error) error {
	rot.mu.Lock()
	defer rot.mu.Unlock()
	return rotateLocked(s, tick)
}

func rotateLocked[F any](s *set[F], tick func(F) error) error {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		err := tick(sh.f)
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
func rotateIfDue[F any](rot *rotation, s *set[F], now time.Time, tick func(F) error) (bool, error) {
	rot.mu.Lock()
	defer rot.mu.Unlock()
	if !rot.clock.Due(now) {
		return false, nil
	}
	if err := rotateLocked(s, tick); err != nil {
		return false, err
	}
	return true, nil
}

// windowInfo snapshots every shard's ring under its read lock and
// merges the snapshots — the shared body of the three compositions'
// Window methods.
func windowInfo[F interface{ Window() window.Info }](s *set[F]) window.Info {
	infos := make([]window.Info, s.size())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		infos[i] = sh.f.Window()
		sh.mu.RUnlock()
	}
	return aggregateInfo(infos)
}

// aggregateInfo merges per-shard ring snapshots into one: epochs and
// ring geometry are uniform (rotation is lockstep), per-generation
// occupancy sums Ns and averages fill ratios across shards.
func aggregateInfo(infos []window.Info) window.Info {
	out := infos[0]
	out.PerGeneration = make([]window.GenInfo, len(infos[0].PerGeneration))
	for _, in := range infos {
		for age, g := range in.PerGeneration {
			if g.N < 0 || out.PerGeneration[age].N < 0 {
				out.PerGeneration[age].N = -1 // no-exact-set sentinel propagates
			} else {
				out.PerGeneration[age].N += g.N
			}
			out.PerGeneration[age].FillRatio += g.FillRatio
		}
	}
	for age := range out.PerGeneration {
		out.PerGeneration[age].FillRatio /= float64(len(infos))
	}
	return out
}

// shardWindowSpec derives shard i's ring spec from the sharded window
// spec: per-shard bit budget, the inner (non-sharded) window kind, and
// the shard's derived seed.
func shardWindowSpec(spec core.Spec, perShard, i int) core.Spec {
	s := spec
	s.Kind = spec.Kind.Inner()
	s.M = perShard
	s.Shards = 0
	s.Seed = shardSeed(spec.Seed, i)
	return s
}

// liftWindowSpec recovers the sharded window spec from shard 0's ring
// spec (whose derived seed is base + 1 for i = 0).
func liftWindowSpec(inner core.Spec, kind core.Kind, shards int) core.Spec {
	s := inner
	s.Kind = kind
	s.M = inner.M * shards
	s.Shards = shards
	s.Seed = inner.Seed - 1
	return s
}

// shard0Spec reads shard 0's ring spec under the shard's read lock: a
// ring's Spec reads its head generation, which a rotation replaces.
func shard0Spec[F interface{ Spec() core.Spec }](s *set[F]) core.Spec {
	sh := &s.shards[0]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.f.Spec()
}

// checkWindowSpec validates a sharded window spec and splits its bit
// budget.
func checkWindowSpec(spec core.Spec, want core.Kind) (pow, perShard int, err error) {
	if spec.Kind != want {
		return 0, 0, fmt.Errorf("sharded: spec kind %s, want %s", spec.Kind, want)
	}
	if err := spec.Validate(); err != nil {
		return 0, 0, err
	}
	return roundPow2(spec.M, spec.Shards)
}

// --- membership -----------------------------------------------------------

// Window is a concurrency-safe sharded sliding-window membership
// filter: every shard is a generation ring of ShBF_M filters
// (window.Membership), rotated in lockstep by Rotate/RotateIfDue.
// Queries OR across the shard's ring; rotation takes each shard's
// write lock in turn, so it never blocks queries on other shards.
type Window struct {
	set set[*window.Membership]
	rot rotation
}

// NewWindow builds the sharded window from its Spec (Kind
// KindWindowShardedMembership): M total per-generation bits split
// across Shards shards, each shard a ring of Generations ShBF_M
// filters. Total memory is Generations × M bits.
func NewWindow(spec core.Spec) (*Window, error) {
	pow, perShard, err := checkWindowSpec(spec, core.KindWindowShardedMembership)
	if err != nil {
		return nil, err
	}
	s, err := newSet(pow, func(i int) (*window.Membership, error) {
		return window.NewMembership(shardWindowSpec(spec, perShard, i))
	})
	if err != nil {
		return nil, err
	}
	return &Window{set: s, rot: rotation{clock: window.TickPolicy{Tick: spec.Tick}}}, nil
}

// Shards returns the number of shards.
func (f *Window) Shards() int { return f.set.size() }

// Add inserts e into its shard's head generation (digest → route →
// encode, one hash pass). Safe for concurrent use.
func (f *Window) Add(e []byte) {
	d := hashing.KeyDigest(e)
	s := f.set.forDigest(d)
	s.mu.Lock()
	s.f.AddDigest(d)
	s.mu.Unlock()
}

// Contains reports whether e may have been added within the window:
// one hash pass, then the cached digest probes the shard's ring
// newest-first. Safe for concurrent use; readers do not block each
// other.
func (f *Window) Contains(e []byte) bool {
	d := hashing.KeyDigest(e)
	s := f.set.forDigest(d)
	s.mu.RLock()
	ok := s.f.ContainsDigest(d)
	s.mu.RUnlock()
	return ok
}

// AddAll inserts a whole batch, grouping keys by shard so each shard's
// write lock is taken once per batch and its whole group goes to the
// head generation's group insert; each key is digested once for
// routing and encoding. Safe for concurrent use. The error is always
// nil (the signature matches the shared batch interface).
func (f *Window) AddAll(keys [][]byte) error {
	return batchWrite(&f.set, keys, addGroup((*window.Membership).AddGroup))
}

// ContainsAll queries a whole batch, grouping keys by shard so each
// shard's read lock is taken once per batch; each key is digested once
// and the cached digest fans out across that shard's ring. Answers
// land in dst (resized to len(keys)) at the keys' original positions.
// Safe for concurrent use.
func (f *Window) ContainsAll(dst []bool, keys [][]byte) []bool {
	return batchRead(&f.set, dst, keys, eachKey((*window.Membership).ContainsDigest))
}

// Rotate retires every shard's oldest generation and recycles it as
// the cleared head, shard by shard under striped locks. The error is
// always nil for the membership composition.
func (f *Window) Rotate() error {
	return rotateAll(&f.rot, &f.set, (*window.Membership).Rotate)
}

// RotateIfDue rotates all shards once when the spec's Tick has elapsed
// since the last due rotation, reporting whether it did.
func (f *Window) RotateIfDue(now time.Time) (bool, error) {
	return rotateIfDue(&f.rot, &f.set, now, (*window.Membership).Rotate)
}

// Window returns the aggregate rotation snapshot: ring geometry and
// epoch from shard 0 (shards rotate in lockstep), per-generation
// occupancy summed across shards.
func (f *Window) Window() window.Info { return windowInfo(&f.set) }

// N returns the total elements held across shards and generations (an
// upper bound on distinct in-window keys; see window.Membership.N).
func (f *Window) N() int {
	return f.set.sumLocked((*window.Membership).N)
}

// SizeBytes returns the combined footprint of all shards' rings.
func (f *Window) SizeBytes() int {
	return f.set.sumLocked((*window.Membership).SizeBytes)
}

// FillRatio returns the mean generation fill ratio across shards.
func (f *Window) FillRatio() float64 {
	return f.set.meanLocked((*window.Membership).FillRatio)
}

// ShardStats returns a per-shard occupancy snapshot; N and FillRatio
// aggregate each shard's whole ring.
func (f *Window) ShardStats() []ShardStat {
	out := make([]ShardStat, f.set.size())
	for i := range f.set.shards {
		s := &f.set.shards[i]
		s.mu.RLock()
		out[i] = ShardStat{
			Bits:      s.f.M(),
			K:         s.f.K(),
			MaxOffset: s.f.MaxOffset(),
			N:         s.f.N(),
			FillRatio: s.f.FillRatio(),
		}
		s.mu.RUnlock()
	}
	return out
}

// ForEachShard calls fn for every shard's generation ring in index
// order, each under its shard's read lock — the frozen encoder's
// per-shard ring export. fn must not retain the ring or call back into
// f; hold rotation off (or accept a per-shard-consistent cut) for a
// global point-in-time view.
func (f *Window) ForEachShard(fn func(i int, w *window.Membership)) {
	for i := range f.set.shards {
		s := &f.set.shards[i]
		s.mu.RLock()
		fn(i, s.f)
		s.mu.RUnlock()
	}
}

// Kind returns core.KindWindowShardedMembership.
func (f *Window) Kind() core.Kind { return core.KindWindowShardedMembership }

// Spec returns the construction geometry (see Filter.Spec for the base
// seed recovery).
func (f *Window) Spec() core.Spec {
	return liftWindowSpec(shard0Spec(&f.set), core.KindWindowShardedMembership, f.set.size())
}

// Stats returns the aggregate occupancy snapshot.
func (f *Window) Stats() core.Stats {
	return core.Stats{
		Kind:      core.KindWindowShardedMembership,
		N:         f.N(),
		SizeBytes: f.SizeBytes(),
		FillRatio: f.FillRatio(),
		Shards:    f.set.size(),
	}
}

// MarshalBinary implements encoding.BinaryMarshaler: the shard-set
// snapshot container over per-shard ShBW ring blobs. Shards are
// serialized one at a time under their read locks; pause writers (and
// rotation) for a global point-in-time cut.
func (f *Window) MarshalBinary() ([]byte, error) {
	return appendSnapshot(nil, shardKindWindowMembership, &f.set)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing f's
// state (shard count, ring geometry, head positions, epochs) with the
// decoded filter. The rotation clock re-arms on the next RotateIfDue.
func (f *Window) UnmarshalBinary(data []byte) error {
	s, err := decodeSnapshot[window.Membership](data, shardKindWindowMembership)
	if err != nil {
		return err
	}
	f.set = s
	f.rot = rotation{clock: window.TickPolicy{Tick: f.set.shards[0].f.Spec().Tick}}
	return nil
}

// --- multiplicity ---------------------------------------------------------

// WindowMultiplicity is a concurrency-safe sharded sliding-window
// multiplicity filter: every shard is a generation ring of CShBF_X
// filters (window.Multiplicity). Counts sum a shard's ring and never
// underestimate a key's in-window multiplicity.
type WindowMultiplicity struct {
	set set[*window.Multiplicity]
	rot rotation
}

// NewWindowMultiplicity builds the sharded window from its Spec (Kind
// KindWindowShardedMultiplicity): M total per-generation bits split
// across Shards shards, counts in [1, C] per generation.
func NewWindowMultiplicity(spec core.Spec) (*WindowMultiplicity, error) {
	pow, perShard, err := checkWindowSpec(spec, core.KindWindowShardedMultiplicity)
	if err != nil {
		return nil, err
	}
	s, err := newSet(pow, func(i int) (*window.Multiplicity, error) {
		return window.NewMultiplicity(shardWindowSpec(spec, perShard, i))
	})
	if err != nil {
		return nil, err
	}
	return &WindowMultiplicity{set: s, rot: rotation{clock: window.TickPolicy{Tick: spec.Tick}}}, nil
}

// Shards returns the number of shards.
func (f *WindowMultiplicity) Shards() int { return f.set.size() }

// C returns the per-generation maximum multiplicity.
func (f *WindowMultiplicity) C() int { return f.set.shards[0].f.C() }

// Insert increments e's count in its shard's head generation. Safe for
// concurrent use; see window.Multiplicity.Insert for the error
// conditions.
func (f *WindowMultiplicity) Insert(e []byte) error {
	d := hashing.KeyDigest(e)
	s := f.set.forDigest(d)
	s.mu.Lock()
	err := s.f.InsertDigest(e, d)
	s.mu.Unlock()
	return err
}

// Delete decrements e's count in its shard's head generation (undoing
// an in-tick insert; rotated counts expire instead). Safe for
// concurrent use.
func (f *WindowMultiplicity) Delete(e []byte) error {
	d := hashing.KeyDigest(e)
	s := f.set.forDigest(d)
	s.mu.Lock()
	err := s.f.DeleteDigest(e, d)
	s.mu.Unlock()
	return err
}

// Count returns e's total in-window multiplicity with a single hash
// pass (digest → route → sum the shard's ring). Safe for concurrent
// use; readers do not block each other.
func (f *WindowMultiplicity) Count(e []byte) int {
	d := hashing.KeyDigest(e)
	s := f.set.forDigest(d)
	s.mu.RLock()
	c := s.f.CountDigest(d)
	s.mu.RUnlock()
	return c
}

// AddAll increments every key's count by one, grouping keys by shard
// so each shard's write lock is taken once per batch. On the first
// failed insert the batch stops: keys already applied stay applied,
// and the error reports the failing key's batch index. Safe for
// concurrent use.
func (f *WindowMultiplicity) AddAll(keys [][]byte) error {
	return batchWrite(&f.set, keys, eachInsert((*window.Multiplicity).InsertDigest))
}

// CountAll queries a whole batch, grouping keys by shard so each
// shard's read lock is taken once per batch; each key is digested once
// and summed across that shard's ring. Counts land in dst (resized to
// len(keys)) at the keys' original positions. Safe for concurrent use.
func (f *WindowMultiplicity) CountAll(dst []int, keys [][]byte) []int {
	return batchRead(&f.set, dst, keys, eachKey((*window.Multiplicity).CountDigest))
}

// Rotate retires every shard's oldest generation, shard by shard under
// striped locks. On a recycle failure, already-rotated shards stay
// rotated and the error names the failing shard.
func (f *WindowMultiplicity) Rotate() error {
	return rotateAll(&f.rot, &f.set, (*window.Multiplicity).Rotate)
}

// RotateIfDue rotates all shards once when the spec's Tick has elapsed
// since the last due rotation, reporting whether it did.
func (f *WindowMultiplicity) RotateIfDue(now time.Time) (bool, error) {
	return rotateIfDue(&f.rot, &f.set, now, (*window.Multiplicity).Rotate)
}

// Window returns the aggregate rotation snapshot (see Window.Window).
func (f *WindowMultiplicity) Window() window.Info { return windowInfo(&f.set) }

// N returns the total distinct elements across shards and generations,
// or −1 in the unsafe update mode (no exact set is tracked).
func (f *WindowMultiplicity) N() int {
	total := 0
	for i := range f.set.shards {
		s := &f.set.shards[i]
		s.mu.RLock()
		n := s.f.N()
		s.mu.RUnlock()
		if n < 0 {
			return -1
		}
		total += n
	}
	return total
}

// SizeBytes returns the combined footprint of all shards' rings.
func (f *WindowMultiplicity) SizeBytes() int {
	return f.set.sumLocked((*window.Multiplicity).SizeBytes)
}

// FillRatio returns the mean generation fill ratio across shards.
func (f *WindowMultiplicity) FillRatio() float64 {
	return f.set.meanLocked((*window.Multiplicity).FillRatio)
}

// ShardStats returns a per-shard occupancy snapshot; N and FillRatio
// aggregate each shard's whole ring.
func (f *WindowMultiplicity) ShardStats() []MultiplicityShardStat {
	out := make([]MultiplicityShardStat, f.set.size())
	for i := range f.set.shards {
		s := &f.set.shards[i]
		s.mu.RLock()
		out[i] = MultiplicityShardStat{
			Bits:      s.f.M(),
			K:         s.f.K(),
			C:         s.f.C(),
			N:         s.f.N(),
			FillRatio: s.f.FillRatio(),
		}
		s.mu.RUnlock()
	}
	return out
}

// Kind returns core.KindWindowShardedMultiplicity.
func (f *WindowMultiplicity) Kind() core.Kind { return core.KindWindowShardedMultiplicity }

// Spec returns the construction geometry (see Filter.Spec for the base
// seed recovery).
func (f *WindowMultiplicity) Spec() core.Spec {
	return liftWindowSpec(shard0Spec(&f.set), core.KindWindowShardedMultiplicity, f.set.size())
}

// Stats returns the aggregate occupancy snapshot.
func (f *WindowMultiplicity) Stats() core.Stats {
	return core.Stats{
		Kind:      core.KindWindowShardedMultiplicity,
		N:         f.N(),
		SizeBytes: f.SizeBytes(),
		FillRatio: f.FillRatio(),
		Shards:    f.set.size(),
	}
}

// MarshalBinary implements encoding.BinaryMarshaler (see
// Window.MarshalBinary for consistency semantics).
func (f *WindowMultiplicity) MarshalBinary() ([]byte, error) {
	return appendSnapshot(nil, shardKindWindowMultiplicity, &f.set)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing f's
// state with the decoded filter.
func (f *WindowMultiplicity) UnmarshalBinary(data []byte) error {
	s, err := decodeSnapshot[window.Multiplicity](data, shardKindWindowMultiplicity)
	if err != nil {
		return err
	}
	f.set = s
	f.rot = rotation{clock: window.TickPolicy{Tick: f.set.shards[0].f.Spec().Tick}}
	return nil
}

// --- association ----------------------------------------------------------

// WindowAssociation is a concurrency-safe sharded sliding-window
// two-set association filter: every shard is a generation ring of
// CShBF_A filters (window.Association). Queries union candidate
// regions across the shard's ring.
type WindowAssociation struct {
	set set[*window.Association]
	rot rotation
}

// NewWindowAssociation builds the sharded window from its Spec (Kind
// KindWindowShardedAssociation): M total per-generation bits split
// across Shards shards.
func NewWindowAssociation(spec core.Spec) (*WindowAssociation, error) {
	pow, perShard, err := checkWindowSpec(spec, core.KindWindowShardedAssociation)
	if err != nil {
		return nil, err
	}
	s, err := newSet(pow, func(i int) (*window.Association, error) {
		return window.NewAssociation(shardWindowSpec(spec, perShard, i))
	})
	if err != nil {
		return nil, err
	}
	return &WindowAssociation{set: s, rot: rotation{clock: window.TickPolicy{Tick: spec.Tick}}}, nil
}

// Shards returns the number of shards.
func (f *WindowAssociation) Shards() int { return f.set.size() }

// update digests e once, routes on the digest, and runs op on e's
// shard under its write lock.
func (f *WindowAssociation) update(e []byte, op func(*window.Association, []byte, hashing.Digest) error) error {
	d := hashing.KeyDigest(e)
	s := f.set.forDigest(d)
	s.mu.Lock()
	err := op(s.f, e, d)
	s.mu.Unlock()
	return err
}

// InsertS1 records e ∈ S1 in its shard's head generation. Safe for
// concurrent use.
func (f *WindowAssociation) InsertS1(e []byte) error {
	return f.update(e, (*window.Association).InsertS1Digest)
}

// InsertS2 records e ∈ S2 in its shard's head generation. Safe for
// concurrent use.
func (f *WindowAssociation) InsertS2(e []byte) error {
	return f.update(e, (*window.Association).InsertS2Digest)
}

// DeleteS1 removes e from S1 in its shard's head generation (undoing
// an in-tick insert; rotated memberships expire instead). Safe for
// concurrent use.
func (f *WindowAssociation) DeleteS1(e []byte) error {
	return f.update(e, (*window.Association).DeleteS1Digest)
}

// DeleteS2 removes e from S2 in its shard's head generation; see
// DeleteS1. Safe for concurrent use.
func (f *WindowAssociation) DeleteS2(e []byte) error {
	return f.update(e, (*window.Association).DeleteS2Digest)
}

// Query returns the union of the shard ring's candidate-region masks
// for e with a single hash pass. Safe for concurrent use; readers do
// not block each other.
func (f *WindowAssociation) Query(e []byte) core.Region {
	d := hashing.KeyDigest(e)
	s := f.set.forDigest(d)
	s.mu.RLock()
	r := s.f.QueryDigest(d)
	s.mu.RUnlock()
	return r
}

// QueryAll classifies a whole batch, grouping keys by shard so each
// shard's read lock is taken once per batch; each key is digested once
// and unioned across that shard's ring. Masks land in dst (resized to
// len(keys)) at the keys' original positions. Safe for concurrent use.
func (f *WindowAssociation) QueryAll(dst []core.Region, keys [][]byte) []core.Region {
	return batchRead(&f.set, dst, keys, eachKey((*window.Association).QueryDigest))
}

// Rotate retires every shard's oldest generation, shard by shard under
// striped locks (see WindowMultiplicity.Rotate for failure semantics).
func (f *WindowAssociation) Rotate() error {
	return rotateAll(&f.rot, &f.set, (*window.Association).Rotate)
}

// RotateIfDue rotates all shards once when the spec's Tick has elapsed
// since the last due rotation, reporting whether it did.
func (f *WindowAssociation) RotateIfDue(now time.Time) (bool, error) {
	return rotateIfDue(&f.rot, &f.set, now, (*window.Association).Rotate)
}

// Window returns the aggregate rotation snapshot (see Window.Window).
func (f *WindowAssociation) Window() window.Info { return windowInfo(&f.set) }

// N1 returns the total S1 cardinality across shards and generations.
func (f *WindowAssociation) N1() int {
	return f.set.sumLocked((*window.Association).N1)
}

// N2 returns the total S2 cardinality across shards and generations.
func (f *WindowAssociation) N2() int {
	return f.set.sumLocked((*window.Association).N2)
}

// SizeBytes returns the combined footprint of all shards' rings.
func (f *WindowAssociation) SizeBytes() int {
	return f.set.sumLocked((*window.Association).SizeBytes)
}

// FillRatio returns the mean generation fill ratio across shards.
func (f *WindowAssociation) FillRatio() float64 {
	return f.set.meanLocked((*window.Association).FillRatio)
}

// ShardStats returns a per-shard occupancy snapshot; Ns and FillRatio
// aggregate each shard's whole ring.
func (f *WindowAssociation) ShardStats() []AssociationShardStat {
	out := make([]AssociationShardStat, f.set.size())
	for i := range f.set.shards {
		s := &f.set.shards[i]
		s.mu.RLock()
		out[i] = AssociationShardStat{
			Bits:      s.f.M(),
			K:         s.f.K(),
			MaxOffset: s.f.MaxOffset(),
			N1:        s.f.N1(),
			N2:        s.f.N2(),
			FillRatio: s.f.FillRatio(),
		}
		s.mu.RUnlock()
	}
	return out
}

// Kind returns core.KindWindowShardedAssociation.
func (f *WindowAssociation) Kind() core.Kind { return core.KindWindowShardedAssociation }

// Spec returns the construction geometry (see Filter.Spec for the base
// seed recovery).
func (f *WindowAssociation) Spec() core.Spec {
	return liftWindowSpec(shard0Spec(&f.set), core.KindWindowShardedAssociation, f.set.size())
}

// Stats returns the aggregate occupancy snapshot (N sums both sets).
func (f *WindowAssociation) Stats() core.Stats {
	return core.Stats{
		Kind:      core.KindWindowShardedAssociation,
		N:         f.N1() + f.N2(),
		SizeBytes: f.SizeBytes(),
		FillRatio: f.FillRatio(),
		Shards:    f.set.size(),
	}
}

// MarshalBinary implements encoding.BinaryMarshaler (see
// Window.MarshalBinary for consistency semantics).
func (f *WindowAssociation) MarshalBinary() ([]byte, error) {
	return appendSnapshot(nil, shardKindWindowAssociation, &f.set)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing f's
// state with the decoded filter.
func (f *WindowAssociation) UnmarshalBinary(data []byte) error {
	s, err := decodeSnapshot[window.Association](data, shardKindWindowAssociation)
	if err != nil {
		return err
	}
	f.set = s
	f.rot = rotation{clock: window.TickPolicy{Tick: f.set.shards[0].f.Spec().Tick}}
	return nil
}
