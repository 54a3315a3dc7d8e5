// Package frozen implements the read-only ShBZ container: any
// membership-family filter compacted into one immutable byte block
// whose query path runs over the bytes with core's own ShBF_M probe,
// through a read-only core.MembershipView per shard. Open parses the
// header and, on a little-endian host, views 8-byte-aligned sections
// in place (zero-copy); any other input is copied once at open. A probe
// allocates nothing. The same bytes work from an mmap region, a slice
// of a larger file (SSTable-style embedding), or an in-memory snapshot,
// which is where production Bloom filters live: built once per
// immutable storage unit, probed billions of times, never written.
//
// # ShBZ container layout
//
// A container is a 64-byte little-endian header followed by one
// 64-byte-aligned bit section per shard:
//
//	offset size field
//	 0      4   magic "ShBZ"
//	 4      1   version (1)
//	 5      1   source kind (core.Kind of the frozen filter)
//	 6      2   reserved, zero
//	 8      4   shards S (power of two, ≥ 1)
//	12      4   k (even, ≥ 2; probes use k/2 hash pairs)
//	16      8   m — per-shard base array bits
//	24      4   w̄ — maximum offset
//	28      4   reserved, zero
//	32      8   seed (S = 1: the filter seed; S > 1: the base seed,
//	            shard i hashing with sharded.ShardSeed(seed, i))
//	40      8   n — total elements at freeze time
//	48      8   sectionWords — 64-bit words per shard section
//	56      8   total container bytes = 64 + S·sectionWords·8
//
// Each section holds the shard's bit array exactly as the live filter
// lays it out — (m+w̄−1+63)/64 data words plus one guard word, LSB
// first within each little-endian word — padded with zero words to a
// multiple of 8 words, so every section starts 64-byte (cache-line)
// aligned. The guard word keeps the probe's two-word window read
// branchless; the padding keeps stacked containers aligned for free.
//
// Windowed rings freeze by union: generations share one Spec and seed,
// so ORing their bit arrays yields a filter answering "seen in any
// live generation" — no false negatives, answers a superset of the
// ring's (the per-pair AND distributes over the union of generations).
//
// The format is pinned by a golden-bytes test; see DESIGN.md §Frozen.
package frozen

import (
	"encoding/binary"
	"fmt"
	"slices"

	"shbf/internal/bitvec"
	"shbf/internal/core"
	"shbf/internal/hashing"
	"shbf/internal/sharded"
	"shbf/internal/window"
)

const (
	// headerSize is the fixed ShBZ header length.
	headerSize = 64
	// version is the current ShBZ format version.
	version = 1
	// maxShards mirrors the sharded package's construction bound.
	maxShards = 1 << 20
	// maxK bounds k against implausible headers (live filters use
	// k ≤ ~32; each view's hash family is k/2+1 words).
	maxK = 1 << 16
	// maxSectionWords bounds one shard's section at 2^31 words (16 GiB)
	// so size arithmetic stays far from int overflow even on inputs
	// that lie about their geometry.
	maxSectionWords = 1 << 31
)

// magic identifies a ShBZ container.
var magic = [4]byte{'S', 'h', 'B', 'Z'}

// Filter is an open frozen filter: the container's bytes and one
// read-only core.MembershipView per shard, the only open-time
// allocations besides the handle. Probes read the sections through the
// views and allocate nothing, so one Filter may serve any number of
// concurrent readers.
type Filter struct {
	data    []byte // the whole container (aliases the caller's bytes)
	srcKind core.Kind
	mask    uint64 // shards−1, the digest routing mask
	k       int
	m       int
	wbar    int
	seed    uint64
	n       int
	views   []*core.MembershipView // one per shard
}

// sectionWords returns the per-shard section size in 64-bit words:
// the live bit array's words — (m+w̄−1+63)/64 data words plus one
// guard word — rounded up to a multiple of 8 for 64-byte alignment.
func sectionWords(m, wbar int) int {
	dataWords := (m+wbar-1+63)/64 + 1
	return (dataWords + 7) &^ 7
}

// Append encodes f as a ShBZ container appended to dst. Supported
// sources are the membership family: *core.Membership,
// *core.CountingMembership (its query-side bit array),
// *sharded.Filter, *window.Membership and *sharded.Window. One walk
// visits every generation of every shard, and each section is the OR
// of its shard's generations (rings collapse by union — see the
// package comment). Sharded sources are read one shard lock at a time,
// so the container is per-shard consistent; pause writers for a global
// point-in-time cut.
func Append(dst []byte, f any) ([]byte, error) {
	var each func(fn func(i int, g *core.Membership))
	switch v := f.(type) {
	case *core.Membership:
		each = func(fn func(int, *core.Membership)) { fn(0, v) }
	case *core.CountingMembership:
		each = func(fn func(int, *core.Membership)) { fn(0, v.Filter()) }
	case *sharded.Filter:
		each = v.ForEachShard
	case *window.Membership:
		each = func(fn func(int, *core.Membership)) {
			v.ForEachGeneration(func(g *core.Membership) { fn(0, g) })
		}
	case *sharded.Window:
		each = func(fn func(int, *core.Membership)) {
			v.ForEachShard(func(i int, w *window.Membership) {
				w.ForEachGeneration(func(g *core.Membership) { fn(i, g) })
			})
		}
	default:
		if k, ok := f.(interface{ Kind() core.Kind }); ok {
			return nil, fmt.Errorf("frozen: cannot freeze %s filters (membership family only)", k.Kind())
		}
		return nil, fmt.Errorf("frozen: cannot freeze %T (membership family only)", f)
	}
	return appendContainer(dst, f.(interface{ Spec() core.Spec }).Spec(), each)
}

// appendContainer lays out the header and sections of the source whose
// spec is spec: M is the total over Shards shards (0 for an unsharded
// source), Seed the filter's or the base seed. each walks the source's
// generations, and each generation's bit array, guard word included,
// is ORed into its shard's zeroed section.
func appendContainer(dst []byte, spec core.Spec, each func(fn func(i int, g *core.Membership))) ([]byte, error) {
	shards := max(spec.Shards, 1)
	m, k, wbar := spec.M/shards, spec.K, spec.MaxOffset
	if shards > maxShards || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("frozen: shard count %d is not a power of two in [1,%d]", shards, maxShards)
	}
	if m <= 0 {
		return nil, fmt.Errorf("frozen: m = %d must be positive", m)
	}
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("frozen: k = %d must be even and ≥ 2", k)
	}
	if wbar < 2 || wbar > 64 {
		return nil, fmt.Errorf("frozen: max offset w̄ = %d out of range [2,64]", wbar)
	}
	secWords := sectionWords(m, wbar)
	total := headerSize + shards*secWords*8
	start := len(dst)
	dst = slices.Grow(dst, total)[:start+total]
	c := dst[start:]
	clear(c)
	n := 0
	each(func(i int, g *core.Membership) {
		sec := c[headerSize+i*secWords*8:]
		for j, w := range g.BitWords() {
			b := sec[8*j:]
			binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)|w)
		}
		n += g.N()
	})

	copy(c[0:4], magic[:])
	c[4] = version
	c[5] = byte(spec.Kind)
	binary.LittleEndian.PutUint32(c[8:12], uint32(shards))
	binary.LittleEndian.PutUint32(c[12:16], uint32(k))
	binary.LittleEndian.PutUint64(c[16:24], uint64(m))
	binary.LittleEndian.PutUint32(c[24:28], uint32(wbar))
	binary.LittleEndian.PutUint64(c[32:40], spec.Seed)
	binary.LittleEndian.PutUint64(c[40:48], uint64(n))
	binary.LittleEndian.PutUint64(c[48:56], uint64(secWords))
	binary.LittleEndian.PutUint64(c[56:64], uint64(total))
	return dst, nil
}

// Open parses a ShBZ container at the start of data and returns a
// read-only filter over it. Trailing bytes beyond the container's
// recorded size are ignored, so a container can be opened at an offset
// into a larger mapped file. On a little-endian host, when data starts
// 8-byte aligned (sections sit at 64-byte offsets in the container, and
// mmap regions and stack entries are aligned), the filter views the
// bit sections in place: data must then stay immutable and mapped for
// the filter's lifetime, and the open cost does not depend on the bit
// array's size. Any other input is copied once, here. The other
// allocations are the handle and one view per shard.
func Open(data []byte) (*Filter, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("frozen: %d bytes is shorter than the %d-byte header", len(data), headerSize)
	}
	if [4]byte(data[0:4]) != magic {
		return nil, fmt.Errorf("frozen: bad magic %q", data[0:4])
	}
	if data[4] != version {
		return nil, fmt.Errorf("frozen: unsupported version %d", data[4])
	}
	srcKind := core.Kind(data[5])
	if data[6] != 0 || data[7] != 0 ||
		binary.LittleEndian.Uint32(data[28:32]) != 0 {
		return nil, fmt.Errorf("frozen: reserved header bytes are not zero")
	}
	shards := binary.LittleEndian.Uint32(data[8:12])
	k := binary.LittleEndian.Uint32(data[12:16])
	m := binary.LittleEndian.Uint64(data[16:24])
	wbar := binary.LittleEndian.Uint32(data[24:28])
	seed := binary.LittleEndian.Uint64(data[32:40])
	n := binary.LittleEndian.Uint64(data[40:48])
	secWords := binary.LittleEndian.Uint64(data[48:56])
	total := binary.LittleEndian.Uint64(data[56:64])

	if shards < 1 || shards > maxShards || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("frozen: shard count %d is not a power of two in [1,%d]", shards, maxShards)
	}
	if k < 2 || k%2 != 0 || k > maxK {
		return nil, fmt.Errorf("frozen: k = %d must be even in [2,%d]", k, maxK)
	}
	if wbar < 2 || wbar > 64 {
		return nil, fmt.Errorf("frozen: max offset w̄ = %d out of range [2,64]", wbar)
	}
	if secWords > maxSectionWords {
		return nil, fmt.Errorf("frozen: section of %d words exceeds the %d-word bound", secWords, maxSectionWords)
	}
	// m must fit the section: the live array is (m+w̄−1+63)/64 data
	// words plus a guard, and the section is that rounded up to 8.
	if m == 0 || m > uint64(secWords)*64 {
		return nil, fmt.Errorf("frozen: m = %d inconsistent with %d-word sections", m, secWords)
	}
	if want := uint64(sectionWords(int(m), int(wbar))); secWords != want {
		return nil, fmt.Errorf("frozen: section is %d words, want %d for m=%d w̄=%d", secWords, want, m, wbar)
	}
	wantTotal := uint64(headerSize) + uint64(shards)*secWords*8
	if total != wantTotal {
		return nil, fmt.Errorf("frozen: header claims %d total bytes, geometry implies %d", total, wantTotal)
	}
	if uint64(len(data)) < total {
		return nil, fmt.Errorf("frozen: container truncated: %d bytes of %d", len(data), total)
	}
	if n > uint64(shards)*m {
		return nil, fmt.Errorf("frozen: element count %d exceeds capacity bound", n)
	}
	data = data[:total]

	words := bitvec.WordsOf(data[headerSize:])
	f := &Filter{
		data:    data,
		srcKind: srcKind,
		mask:    uint64(shards) - 1,
		k:       int(k),
		m:       int(m),
		wbar:    int(wbar),
		seed:    seed,
		n:       int(n),
		views:   make([]*core.MembershipView, shards),
	}
	for i := range f.views {
		fseed := seed
		if shards > 1 {
			fseed = sharded.ShardSeed(seed, i)
		}
		sec := words[uint64(i)*secWords : uint64(i+1)*secWords]
		v, err := core.NewMembershipView(f.m, f.k, f.wbar, fseed, sec)
		if err != nil {
			return nil, fmt.Errorf("frozen: shard %d: %w", i, err)
		}
		f.views[i] = v
	}
	return f, nil
}

// Contains reports whether e may be in the frozen set: the live
// filter's probe (digest → route → k/2 pair windows, early exit) over
// the container's bits. Zero allocations; safe for unlimited
// concurrent use.
func (f *Filter) Contains(e []byte) bool {
	return f.ContainsDigest(hashing.KeyDigest(e))
}

// ContainsDigest answers Contains for the element whose one-pass
// digest is d, routed to its shard's view.
func (f *Filter) ContainsDigest(d hashing.Digest) bool {
	return f.views[d.Shard(f.mask)].ContainsDigest(d)
}

// ContainsAll answers membership for a whole batch, each key digested
// once: the batch is grouped by shard as the sharded filters group it,
// and each shard's group goes to core's round kernel. Answers land in
// dst (resized to len(keys)) at the keys' positions — the library's
// batch convention; steady-state batches with a reused dst do not
// allocate.
func (f *Filter) ContainsAll(dst []bool, keys [][]byte) []bool {
	return sharded.ReadAll(f.views, dst, keys, (*core.MembershipView).ContainsGroup)
}

// Bytes returns the container's bytes (aliasing, not a copy) — what
// Open was given, trimmed to the container's recorded size.
func (f *Filter) Bytes() []byte { return f.data }

// SizeBytes returns the container's total size.
func (f *Filter) SizeBytes() int { return len(f.data) }

// SourceKind returns the kind of the filter that was frozen.
func (f *Filter) SourceKind() core.Kind { return f.srcKind }

// Shards returns the number of bit sections (the source's shard
// count).
func (f *Filter) Shards() int { return len(f.views) }

// M returns the per-shard base array size in bits.
func (f *Filter) M() int { return f.m }

// K returns the bit positions per element.
func (f *Filter) K() int { return f.k }

// MaxOffset returns w̄.
func (f *Filter) MaxOffset() int { return f.wbar }

// Seed returns the recorded seed (the base seed for sharded sources).
func (f *Filter) Seed() uint64 { return f.seed }

// N returns the element count recorded at freeze time.
func (f *Filter) N() int { return f.n }
