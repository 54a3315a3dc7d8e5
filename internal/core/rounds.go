package core

import (
	"math/bits"

	"shbf/internal/bitvec"
	"shbf/internal/hashing"
	"shbf/internal/memmodel"
)

// This file holds the round-based group kernels of the sharded batch
// paths: ContainsGroup, QueryGroup and CountGroup answer every key of
// one shard group at once, and AddGroup inserts every key of one. The
// write side is described at addRounds; the read side follows here.
// A scalar probe is load → test → branch per window, so a key's next
// load waits on its last one, and a rejected key exits on a
// mispredicted branch; on an array far larger than the cache each key
// then pays its misses one after another. The read kernels instead
// probe a group in rounds, and each round makes three passes over the
// keys still live:
//
//  1. compute every live key's window position from its cached digest
//     (arithmetic only);
//  2. load every window with the two-word read and no data-dependent
//     branch, so the loads' cache misses overlap;
//  3. test every window and compact the surviving keys, without
//     branches.
//
// A key leaves at the round where its scalar probe would stop, so the
// kernels read exactly the windows the scalar loops read and answer
// identically. The passes stay separate: fusing hashing, load and test
// into one loop per round fills the reorder window with hash arithmetic
// before enough loads are in flight, and measured slower.
//
// The loads are uncharged, as the scalar probes' are. When the filter
// has an access counter attached, gather bills each round's windows
// from the positions it computed, and addRounds bills k writes per
// key, so the paper's access figures read the same totals whichever
// path ran. A group below RoundsCutoff, where round set-up costs more
// than the overlap saves, runs the scalar per-key loop.

const (
	// RoundsCutoff is the smallest group the round kernels probe in
	// rounds; smaller groups run the scalar per-key loop.
	RoundsCutoff = 16
	// RoundsChunk bounds the keys one run of rounds probes, and so the
	// size of a ProbeScratch; larger groups go in chunks.
	RoundsChunk = 1024
)

// ProbeScratch is the round kernels' working memory. It belongs to one
// caller, never to a filter, because many readers probe one shard
// filter at once under its read lock. The zero value is ready to use;
// its arrays are allocated on first use at RoundsChunk entries, so a
// reused scratch keeps the kernels allocation-free.
type ProbeScratch struct {
	dg   []hashing.Digest // chunk keys' digests, by chunk index
	st   []uint64         // per-key state, by chunk index
	aux  []uint64         // per-key second operand, by chunk index
	live []int32          // chunk indices of the keys still probing
	pos  []int            // this round's window positions, by live slot
	win  []uint64         // this round's windows, by live slot
}

// load gathers one chunk's digests from the batch-indexed ds and
// returns them by chunk index.
func (sc *ProbeScratch) load(idxs []int32, ds []hashing.Digest) []hashing.Digest {
	if sc.dg == nil {
		sc.dg = make([]hashing.Digest, RoundsChunk)
		sc.st = make([]uint64, RoundsChunk)
		sc.aux = make([]uint64, RoundsChunk)
		sc.live = make([]int32, RoundsChunk)
		sc.pos = make([]int, RoundsChunk)
		sc.win = make([]uint64, RoundsChunk)
	}
	dg := sc.dg[:len(idxs)]
	for t, j := range idxs {
		dg[t] = ds[j]
	}
	return dg
}

// start loads one chunk and returns the live list holding every key.
func (sc *ProbeScratch) start(idxs []int32, ds []hashing.Digest) []int32 {
	sc.load(idxs, ds)
	live := sc.live[:len(idxs)]
	for t := range live {
		live[t] = int32(t)
	}
	return live
}

// gather runs a round's first two passes: the i-th window position of
// every live key, then every window's load. It returns the windows by
// live slot, and bills them to bv's access counter if one is attached;
// mask is the window-width mask, so its length is the width.
func (sc *ProbeScratch) gather(live []int32, fam *hashing.Family, i, m int, bv *bitvec.Vector, mask uint64) []uint64 {
	// Hoisted locals keep each pass's operands in registers.
	dg, pos, win := sc.dg, sc.pos[:len(live)], sc.win[:len(live)]
	for r, t := range live {
		pos[r] = fam.ModFromDigest(i, dg[t], m)
	}
	for r, p := range pos {
		win[r] = bv.WindowUncounted(p, mask)
	}
	if acc := bv.Counter(); acc != nil {
		width := bits.Len64(mask)
		for _, p := range pos {
			acc.AddReads(memmodel.AccessCount(p, width))
		}
	}
	return win
}

// b2i is 1 for true and 0 for false; the compiler emits it without a
// branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ContainsGroup sets dst[j] = ContainsDigest(ds[j]) for every batch
// index j in idxs, probing the group in rounds (see above). dst and ds
// are indexed by batch position; sc is the caller's scratch.
func (f *Membership) ContainsGroup(dst []bool, idxs []int32, ds []hashing.Digest, sc *ProbeScratch) {
	if len(idxs) < RoundsCutoff {
		for _, j := range idxs {
			dst[j] = f.ContainsDigest(ds[j])
		}
		return
	}
	for len(idxs) > 0 {
		n := min(len(idxs), RoundsChunk)
		f.containsRounds(dst, idxs[:n], ds, sc)
		idxs = idxs[n:]
	}
}

// containsRounds probes one chunk. Round i reads pair i; a key leaves
// at its first failed pair, and the keys live after the last round are
// the members.
func (f *Membership) containsRounds(dst []bool, idxs []int32, ds []hashing.Digest, sc *ProbeScratch) {
	live := sc.start(idxs, ds)
	pm := sc.st[:len(idxs)]
	for t, j := range idxs {
		pm[t] = uint64(1) | uint64(1)<<uint(f.offsetDigest(sc.dg[t]))
		dst[j] = false
	}
	fam, bv, m, winMask := f.fam, f.bits, f.m, f.winMask
	for i := 0; i < f.half && len(live) > 0; i++ {
		win := sc.gather(live, fam, i, m, bv, winMask)
		n := 0
		for r, t := range live {
			live[n] = t
			n += b2i(win[r]&pm[t] == pm[t])
		}
		live = live[:n]
	}
	for _, t := range live {
		dst[idxs[t]] = true
	}
}

// AddGroup inserts the element of every batch index j in idxs, whose
// digest is ds[j], setting exactly the bits AddDigest sets. Large
// groups are written in rounds (see addRounds); sc is the caller's
// scratch.
func (f *Membership) AddGroup(idxs []int32, ds []hashing.Digest, sc *ProbeScratch) {
	if len(idxs) < RoundsCutoff {
		for _, j := range idxs {
			f.AddDigest(ds[j])
		}
		return
	}
	for len(idxs) > 0 {
		n := min(len(idxs), RoundsChunk)
		f.addRounds(idxs[:n], ds, sc)
		idxs = idxs[n:]
	}
}

// addRounds writes one chunk. Every key stays for all k/2 rounds, and
// round i sets every key's pair i in two passes: the pair's window
// positions, then each key's pair mask (bits 0 and o(e)) ORed in at
// its position. No store waits on a branch or on another key's store,
// so the chunk's cache misses overlap; on an array far larger than the
// cache the per-key AddDigest loop measured about twice as slow. A
// load-only pass ahead of the OR pass measured no faster.
func (f *Membership) addRounds(idxs []int32, ds []hashing.Digest, sc *ProbeScratch) {
	dg := sc.load(idxs, ds)
	pm, pos := sc.st[:len(dg)], sc.pos[:len(dg)]
	for t, d := range dg {
		pm[t] = uint64(1) | uint64(1)<<uint(f.offsetDigest(d))
	}
	fam, bv, m := f.fam, f.bits, f.m
	for i := 0; i < f.half; i++ {
		for t, d := range dg {
			pos[t] = fam.ModFromDigest(i, d, m)
		}
		for t, p := range pos {
			bv.OrWindowUncounted(p, pm[t])
		}
	}
	bv.Counter().AddWrites(f.k * len(dg))
	f.n += len(dg)
}

// QueryGroup sets dst[j] = QueryDigest(ds[j]) for every batch index j
// in idxs, probing the group in rounds (see ContainsGroup).
func (q *assocQuery) QueryGroup(dst []Region, idxs []int32, ds []hashing.Digest, sc *ProbeScratch) {
	if len(idxs) < RoundsCutoff {
		for _, j := range idxs {
			dst[j] = q.QueryDigest(ds[j])
		}
		return
	}
	for len(idxs) > 0 {
		n := min(len(idxs), RoundsChunk)
		q.queryRounds(dst, idxs[:n], ds, sc)
		idxs = idxs[n:]
	}
}

// queryRounds probes one chunk. Each key carries its candidate mask and
// its two offsets (o1 in the low byte of aux, o2 in the next); a key
// leaves when its mask reaches RegionNone.
func (q *assocQuery) queryRounds(dst []Region, idxs []int32, ds []hashing.Digest, sc *ProbeScratch) {
	live := sc.start(idxs, ds)
	cand, offs := sc.st[:len(idxs)], sc.aux[:len(idxs)]
	for t, d := range sc.dg[:len(idxs)] {
		o1 := q.offset1(d)
		o2 := o1 + hashing.Reduce(q.fam.FromDigest(q.k+1, d), q.halfRange) + 1
		cand[t] = uint64(RegionS1Only | RegionBoth | RegionS2Only)
		offs[t] = uint64(o1) | uint64(o2)<<8
	}
	fam, bv, m, winMask := q.fam, q.bits, q.m, q.winMask
	for i := 0; i < q.k && len(live) > 0; i++ {
		win := sc.gather(live, fam, i, m, bv, winMask)
		n := 0
		for r, t := range live {
			w, o := win[r], offs[t]
			c := cand[t] & (w&1 | w>>(o&63)&1<<1 | w>>(o>>8&63)&1<<2)
			cand[t] = c
			live[n] = t
			n += b2i(c != 0)
		}
		live = live[:n]
	}
	for t, j := range idxs {
		dst[j] = Region(cand[t])
	}
}

// CountGroup sets dst[j] = CountDigest(ds[j]) for every batch index j
// in idxs, probing the group in rounds (see ContainsGroup).
func (q *multQuery) CountGroup(dst []int, idxs []int32, ds []hashing.Digest, sc *ProbeScratch) {
	if len(idxs) < RoundsCutoff {
		for _, j := range idxs {
			dst[j] = q.CountDigest(ds[j])
		}
		return
	}
	for len(idxs) > 0 {
		n := min(len(idxs), RoundsChunk)
		q.countRounds(dst, idxs[:n], ds, sc)
		idxs = idxs[n:]
	}
}

// countRounds probes one chunk. Each key carries its candidate mask
// and leaves when the mask reaches 0; the answer is the mask's highest
// candidate.
func (q *multQuery) countRounds(dst []int, idxs []int32, ds []hashing.Digest, sc *ProbeScratch) {
	live := sc.start(idxs, ds)
	all := ^uint64(0) >> (64 - uint(q.c))
	cand := sc.st[:len(idxs)]
	for t := range cand {
		cand[t] = all
	}
	fam, bv, m := q.fam, q.bits, q.m
	for i := 0; i < q.k && len(live) > 0; i++ {
		win := sc.gather(live, fam, i, m, bv, all)
		n := 0
		for r, t := range live {
			c := cand[t] & win[r]
			cand[t] = c
			live[n] = t
			n += b2i(c != 0)
		}
		live = live[:n]
	}
	for t, j := range idxs {
		dst[j] = bits.Len64(cand[t])
	}
}
