// Package hashtable implements the chained hash table substrate the
// paper leans on in two places:
//
//   - ShBF_A construction builds tables T1 and T2 over S1 and S2 to
//     decide each element's region and hence its offset (Section 4.1).
//   - ShBF_X stores each element's count "in a hash table using the
//     simplest collision handling method called collision chain"
//     (Section 5.1) and consults it for no-false-negative updates
//     (Section 5.3.2, Figure 5).
//
// The table maps byte-string elements to uint64 values (counts, or set
// bits for membership), uses separate chaining exactly as the paper
// states, and doubles its bucket array when the load factor exceeds one
// entry per bucket. In the paper's architecture this structure lives in
// off-chip DRAM; an optional memmodel.Counter charges one access per
// chain node touched so update-path costs can be reported.
//
// # Layout
//
// The table holds no pointers the garbage collector has to follow per
// entry. Chains link 24-byte nodes by uint32 index; the nodes live in
// fixed-size chunks of 1024 (24 KiB), so adding entries never copies
// the ones already stored, and growth reallocates only the uint32
// bucket-head array. Keys of up to 16 bytes sit inline in their node;
// longer keys are appended to chunked byte arenas and the node records
// where. Deleted nodes go on a free list threaded through the chain
// links and are reused first; arena bytes of deleted long keys are
// reclaimed by compaction once they outweigh the live ones.
//
// A node's 32-bit meta word holds the low 20 bits of its key's 27-bit
// bucket hash, a 5-bit key code and a 7-bit value. The stored hash bits
// let growth up to 2^20 buckets relink chains without hashing any key
// again, and a probe compares key bytes only on a hash match; a
// doubling past 2^20 buckets re-derives each key's bucket from its
// KeyDigest, so bucket assignment and chain order are those of the full
// 27-bit hash at every size. Values of 127 and above, which neither
// CShBF_A's region bits nor CShBF_X's counts reach, live in a per-table
// map keyed by node index, so every uint64 still round-trips.
//
// # Hashing
//
// A key's bucket hash is mixed from its canonical hashing.KeyDigest
// under the table's seed. Callers that already hold the digest — the
// sharded filters digest every key once for routing and probing — pass
// it to Lookup, which finds the key's node (or its insertion point)
// in one chain walk; Store and Remove then act on that result without
// probing again.
package hashtable

import (
	"encoding/binary"
	"fmt"

	"shbf/internal/hashing"
	"shbf/internal/memmodel"
)

const (
	initialBuckets = 16
	initialNodes   = 16 // capacity of the first node chunk before it grows

	chunkShift = 10
	chunkNodes = 1 << chunkShift // nodes per full chunk (24 KiB)
	chunkMask  = chunkNodes - 1

	inlineKey  = 16       // longest key stored in its node
	arenaChunk = 64 << 10 // largest arena chunk for long keys (bigger keys get their own)

	bucketBits = 27 // bits of the bucket hash
	bucketMask = 1<<bucketBits - 1
	maxBuckets = 1 << bucketBits // beyond this, chains lengthen instead

	// A node's meta word is, from the low bit up, the low hashBits bits
	// of the key's bucket hash, a 5-bit key code (the length of an
	// inline key, longCode for an arena key, freeCode for a node on the
	// free list) and the value. A value of spilled or more reads
	// spilled here and is kept in the table's spill map.
	hashBits   = 20
	hashMask   = 1<<hashBits - 1
	codeMask   = 1<<5 - 1
	valueShift = hashBits + 5
	keyMask    = 1<<valueShift - 1 // the hash and key code
	spilled    = 1<<(32-valueShift) - 1
	longCode   = 31
	freeCode   = 30
	freeMeta   = freeCode << hashBits
)

// node is one chain link. For an arena key, key holds the key's arena
// position (chunk<<32 | offset) and its length, both little-endian.
type node struct {
	next uint32 // next node in the chain or free list; 0 ends it
	meta uint32 // hash | key code<<hashBits | value<<valueShift
	key  [inlineKey]byte
}

// code returns the node's key code.
func (n *node) code() uint32 { return n.meta >> hashBits & codeMask }

// Table is a chained hash table from byte strings to uint64 values.
// Use New; the zero value is unusable.
type Table struct {
	buckets []uint32 // chain heads; 0 is the empty chain
	nodes   [][]node // node i is nodes[i>>chunkShift][i&chunkMask]; node 0 is never used
	used    uint32   // node slots handed out, including the reserved node 0
	free    uint32   // free-list head
	size    int

	arena     [][]byte // long keys, never spanning two chunks
	arenaLive int      // arena bytes held by stored keys
	arenaDead int      // arena bytes of deleted keys, reclaimed by compaction

	spill map[uint32]uint64 // values of spilled or more, by node index

	seed uint64 // mix seed of the bucket hash
	acc  *memmodel.Counter
}

// New returns an empty table seeded for its bucket hash.
func New(seed uint64) *Table {
	return &Table{
		buckets: make([]uint32, initialBuckets),
		nodes:   [][]node{make([]node, 1, initialNodes)},
		used:    1,
		seed:    hashing.SplitMix64(&seed),
	}
}

// SetCounter attaches a DRAM access counter; nil detaches.
func (t *Table) SetCounter(c *memmodel.Counter) { t.acc = c }

// Len returns the number of stored keys.
func (t *Table) Len() int { return t.size }

// Slot is the result of one Lookup: the node holding the key, or — when
// the key is absent — what Store needs to insert it. A Slot is valid
// only until the table's next mutation.
type Slot struct {
	hash uint32 // the key's bucket hash
	prev uint32 // chain predecessor of node; 0 when node heads its chain
	node uint32 // node holding the key; 0 when absent
}

// Found reports whether the looked-up key is stored.
func (s Slot) Found() bool { return s.node != 0 }

// Lookup finds key in one chain walk. d must be key's
// hashing.KeyDigest. It charges one read per chain node touched.
func (t *Table) Lookup(key []byte, d hashing.Digest) Slot {
	h := t.bucketHash(d)
	var want [inlineKey]byte
	code := uint32(longCode)
	if len(key) <= inlineKey {
		copy(want[:], key)
		code = uint32(len(key))
	}
	meta := h&hashMask | code<<hashBits
	var prev uint32
	for i := t.buckets[h&uint32(len(t.buckets)-1)]; i != 0; {
		n := t.at(i)
		t.acc.AddReads(1)
		if n.meta&keyMask == meta {
			if code != longCode {
				if n.key == want {
					return Slot{hash: h, prev: prev, node: i}
				}
			} else if string(longKey(t.arena, n)) == string(key) {
				return Slot{hash: h, prev: prev, node: i}
			}
		}
		prev, i = i, n.next
	}
	return Slot{hash: h}
}

// Value returns the value of a found slot, and 0 for an absent key.
func (t *Table) Value(s Slot) uint64 {
	if s.node == 0 {
		return 0
	}
	return t.valueOf(s.node)
}

// Store sets the value of the slot's key, inserting key if the slot
// was not found. key must be the key the slot was looked up with. It
// charges one write.
func (t *Table) Store(s Slot, key []byte, value uint64) {
	t.acc.AddWrites(1)
	if s.node != 0 {
		t.setValue(s.node, value)
		return
	}
	if t.size >= len(t.buckets) && len(t.buckets) < maxBuckets {
		t.grow()
	}
	i := t.alloc()
	n := t.at(i)
	if len(key) <= inlineKey {
		n.meta = s.hash&hashMask | uint32(len(key))<<hashBits
		copy(n.key[:], key)
	} else {
		n.meta = s.hash&hashMask | longCode<<hashBits
		binary.LittleEndian.PutUint64(n.key[:8], t.appendArena(key))
		binary.LittleEndian.PutUint64(n.key[8:], uint64(len(key)))
		t.arenaLive += len(key)
	}
	t.setValue(i, value)
	b := s.hash & uint32(len(t.buckets)-1)
	n.next = t.buckets[b]
	t.buckets[b] = i
	t.size++
}

// Remove deletes the slot's key; a slot that was not found is a no-op.
// It charges one write for a removal.
func (t *Table) Remove(s Slot) {
	if s.node == 0 {
		return
	}
	t.acc.AddWrites(1)
	n := t.at(s.node)
	if s.prev == 0 {
		t.buckets[s.hash&uint32(len(t.buckets)-1)] = n.next
	} else {
		t.at(s.prev).next = n.next
	}
	if n.code() == longCode {
		klen := int(binary.LittleEndian.Uint64(n.key[8:]))
		t.arenaLive -= klen
		t.arenaDead += klen
	}
	if n.meta>>valueShift == spilled {
		delete(t.spill, s.node)
	}
	*n = node{next: t.free, meta: freeMeta}
	t.free = s.node
	t.size--
	if t.arenaDead > arenaChunk && t.arenaDead > t.arenaLive {
		t.compactArena()
	}
}

// Put stores value under key, replacing any existing value.
func (t *Table) Put(key []byte, value uint64) {
	t.Store(t.Lookup(key, hashing.KeyDigest(key)), key, value)
}

// Get returns the value stored under key and whether it was present.
func (t *Table) Get(key []byte) (uint64, bool) {
	s := t.Lookup(key, hashing.KeyDigest(key))
	return t.Value(s), s.Found()
}

// Contains reports whether key is present.
func (t *Table) Contains(key []byte) bool {
	return t.Lookup(key, hashing.KeyDigest(key)).Found()
}

// Add adds delta to the value under key (inserting it at delta if
// absent) and returns the new value. This is the count-maintenance
// primitive of ShBF_X updates.
func (t *Table) Add(key []byte, delta uint64) uint64 {
	s := t.Lookup(key, hashing.KeyDigest(key))
	v := t.Value(s) + delta
	t.Store(s, key, v)
	return v
}

// Sub subtracts delta from the value under key. If the value would reach
// zero (or underflow) the key is removed and 0 is returned. The boolean
// reports whether the key was present.
func (t *Table) Sub(key []byte, delta uint64) (uint64, bool) {
	s := t.Lookup(key, hashing.KeyDigest(key))
	if !s.Found() {
		return 0, false
	}
	v := t.Value(s)
	if v <= delta {
		t.Remove(s)
		return 0, true
	}
	v -= delta
	t.Store(s, key, v)
	return v, true
}

// Delete removes key, reporting whether it was present.
func (t *Table) Delete(key []byte) bool {
	s := t.Lookup(key, hashing.KeyDigest(key))
	t.Remove(s)
	return s.Found()
}

// Range calls fn for every (key, value) pair until fn returns false.
// Iteration order is unspecified. key aliases table storage: it is
// valid only during the call and must not be modified, and the table
// must not be mutated during iteration.
func (t *Table) Range(fn func(key []byte, value uint64) bool) {
	for i := uint32(1); i < t.used; i++ {
		if t.at(i).meta != freeMeta && !fn(t.keyOf(i), t.valueOf(i)) {
			return
		}
	}
}

// MaxChainLength returns the longest collision chain (instrumentation
// for the "simplest collision handling" substrate).
func (t *Table) MaxChainLength() int {
	longest := 0
	for _, head := range t.buckets {
		n := 0
		for i := head; i != 0; i = t.at(i).next {
			n++
		}
		longest = max(longest, n)
	}
	return longest
}

func (t *Table) at(i uint32) *node { return &t.nodes[i>>chunkShift][i&chunkMask] }

// bucketHash returns the bucket hash of the key with digest d.
func (t *Table) bucketHash(d hashing.Digest) uint32 {
	return uint32(hashing.MixDigest(d, t.seed)) & bucketMask
}

// valueOf returns the value of live node i.
func (t *Table) valueOf(i uint32) uint64 {
	if v := t.at(i).meta >> valueShift; v != spilled {
		return uint64(v)
	}
	return t.spill[i]
}

// setValue sets the value of live node i: in its meta word when the
// value is below spilled, otherwise in the spill map. A spill entry the
// node held before is dropped first.
func (t *Table) setValue(i uint32, value uint64) {
	n := t.at(i)
	if n.meta>>valueShift == spilled {
		delete(t.spill, i)
	}
	v := uint32(min(value, spilled))
	n.meta = n.meta&keyMask | v<<valueShift
	if v == spilled {
		if t.spill == nil {
			t.spill = make(map[uint32]uint64)
		}
		t.spill[i] = value
	}
}

// keyOf returns the stored key of live node i, aliasing table storage
// with its capacity capped so an append cannot write into the table.
func (t *Table) keyOf(i uint32) []byte {
	n := t.at(i)
	if code := n.code(); code != longCode {
		return n.key[:code:code]
	}
	return longKey(t.arena, n)
}

// longKey returns the arena key of node n, capacity capped.
func longKey(arena [][]byte, n *node) []byte {
	pos := binary.LittleEndian.Uint64(n.key[:8])
	off := uint32(pos)
	end := off + uint32(binary.LittleEndian.Uint64(n.key[8:]))
	return arena[pos>>32][off:end:end]
}

// alloc hands out a node index, reusing freed nodes first. Only the
// first chunk grows by copying (so small tables stay small); later
// chunks are allocated at full size and never move.
func (t *Table) alloc() uint32 {
	if i := t.free; i != 0 {
		t.free = t.at(i).next
		return i
	}
	i := t.used
	if i == ^uint32(0) {
		panic(fmt.Sprintf("hashtable: more than %d entries", i-1))
	}
	c := int(i >> chunkShift)
	if c == len(t.nodes) {
		t.nodes = append(t.nodes, make([]node, 0, chunkNodes))
	}
	ch := t.nodes[c]
	if len(ch) == cap(ch) {
		grown := make([]node, len(ch), min(2*cap(ch), chunkNodes))
		copy(grown, ch)
		ch = grown
	}
	t.nodes[c] = ch[:len(ch)+1]
	t.used++
	return i
}

// appendArena copies a long key into the arena and returns its
// position. Chunks double up to arenaChunk, so a table with a few long
// keys holds a few hundred bytes of arena, not a full chunk.
func (t *Table) appendArena(key []byte) uint64 {
	last := len(t.arena) - 1
	if last < 0 || len(t.arena[last])+len(key) > cap(t.arena[last]) {
		size := 256
		if last >= 0 {
			size = min(2*cap(t.arena[last]), arenaChunk)
		}
		t.arena = append(t.arena, make([]byte, 0, max(size, len(key))))
		last++
	}
	off := len(t.arena[last])
	t.arena[last] = append(t.arena[last], key...)
	return uint64(last)<<32 | uint64(off)
}

// compactArena rewrites the live long keys into fresh arena chunks and
// drops the old ones with the deleted keys' bytes.
func (t *Table) compactArena() {
	old := t.arena
	t.arena, t.arenaDead = nil, 0
	for i := uint32(1); i < t.used; i++ {
		n := t.at(i)
		if n.code() != longCode {
			continue
		}
		binary.LittleEndian.PutUint64(n.key[:8], t.appendArena(longKey(old, n)))
	}
}

// grow doubles the bucket array and relinks every live node, walking
// the node chunks in order. Up to 2^hashBits buckets a node's bucket
// comes from its stored hash bits; past that, from its key's digest.
func (t *Table) grow() {
	buckets := make([]uint32, 2*len(t.buckets))
	mask := uint32(len(buckets) - 1)
	for i := uint32(1); i < t.used; i++ {
		n := t.at(i)
		if n.meta == freeMeta {
			continue
		}
		h := n.meta
		if mask > hashMask {
			h = t.bucketHash(hashing.KeyDigest(t.keyOf(i)))
		}
		b := h & mask
		n.next = buckets[b]
		buckets[b] = i
	}
	t.buckets = buckets
}
