package sharded

import (
	"errors"
	"fmt"
	"sync"

	"shbf/internal/core"
)

// Set algebra on the sharded membership filter, the serving-layer form
// of core.Membership.Union: replicas built from one Spec (same total
// bits, k, shard count, base seed) route every key to the same shard
// and place it at the same positions, so OR-ing shard i into shard i
// yields exactly the filter of the union. This is what cluster
// anti-entropy rides on — ship a replica's envelope, union it in, done
// (see internal/cluster and the daemon's /v2/namespaces/{ns}/merge).

// ErrIncompatible reports a union between filters of diverging Spec —
// different geometry or seed would interleave bit patterns that mean
// different keys, silently corrupting both answer sets, so the merge
// is refused with f unchanged.
var ErrIncompatible = errors.New("sharded: incompatible filters")

// unionMu serializes Union calls process-wide. Union holds two shard
// locks at once (dst write, src read); with at most one union in
// flight no lock-order cycle can form against the single-lock query
// and update paths. Unions are rare anti-entropy events, so the
// serialization costs nothing that matters.
var unionMu sync.Mutex

// union merges src into dst shard by shard with merge, under dst's
// write lock and src's read lock, one shard pair at a time — the body
// of Filter.Union and Multiplicity.Union. The Specs must match exactly;
// otherwise ErrIncompatible is returned and dst is unchanged.
func union[T any, F shard[T]](dst, src *composition[T, F], merge func(dst, src F) error) error {
	ds, ss := dst.Spec(), src.Spec()
	if ds != ss {
		return fmt.Errorf("%w: spec %+v vs %+v", ErrIncompatible, ds, ss)
	}
	if dst == src {
		return nil // self-union is the identity
	}
	unionMu.Lock()
	defer unionMu.Unlock()
	for i := range dst.set.shards {
		d, s := &dst.set.shards[i], &src.set.shards[i]
		d.mu.Lock()
		s.mu.RLock()
		err := merge(d.f, s.f)
		s.mu.RUnlock()
		d.mu.Unlock()
		if err != nil {
			// Unreachable with equal Specs (shard seeds derive from the
			// base seed), but a corrupt filter must not half-merge
			// silently.
			return fmt.Errorf("%w: shard %d: %v", ErrIncompatible, i, err)
		}
	}
	return nil
}

// Union ORs other into f, making f represent the union of both key
// sets. The two filters must have identical Specs (total bits, k, w̄,
// shard count, base seed); otherwise ErrIncompatible is returned and f
// is unchanged. Safe for concurrent use with both filters' other
// operations — shards are merged one pair at a time, so queries keep
// flowing on every shard the merge is not currently touching.
func (f *Filter) Union(other *Filter) error {
	return union(&f.composition, &other.composition, (*core.Membership).Union)
}

// Union merges other into f by the counting-filter union — per shard,
// a counter-wise saturating add of C, an OR of B and a per-key max
// over the exact tables (core.CountingMultiplicity.Merge) — making f
// report, for every element, at least the larger of the two filters'
// multiplicities with no false negatives introduced. The Specs must
// match exactly (geometry, seed, counter width, update mode);
// otherwise ErrIncompatible is returned and f is unchanged. This is
// what lets edge agents pre-aggregate counts and ship them upstream as
// one envelope (internal/ingest) and replicas anti-entropy their
// multiplicity filters like their membership ones. Safe for concurrent
// use, like Filter.Union.
func (f *Multiplicity) Union(other *Multiplicity) error {
	return union(&f.composition, &other.composition, (*core.CountingMultiplicity).Merge)
}
