package shbf

import "shbf/internal/frozen"

// Frozen is an open read-only frozen filter: a ShBZ container whose
// query path reads the container's bit sections with zero
// deserialization and zero allocation, so the same bytes serve from an
// mmap region, a slice of a larger file, or an in-memory snapshot.
// Open one with [OpenFrozen]; build the bytes with [Freeze]. A Frozen
// is immutable and safe for unlimited concurrent readers.
type Frozen = frozen.Filter

// FrozenStack is an open stack file: N frozen filters behind one
// index, opened once ([OpenFrozenStack]) with O(1) access to each
// ([FrozenStack.At]) — the shape a host storage engine wants for
// thousands of SSTable-style filters in one mapped file. Build one
// with [FrozenStackBuilder].
type FrozenStack = frozen.Stack

// FrozenStackBuilder accumulates frozen containers and renders a stack
// file; the zero value is ready to use.
type FrozenStackBuilder = frozen.StackBuilder

// FrozenSet is the read-only query surface of a frozen filter: the
// membership half of [Set], with no mutation path to misuse. [Frozen]
// implements it over raw container bytes.
type FrozenSet interface {
	// Contains reports whether e may be in the frozen set (no false
	// negatives relative to the frozen source).
	Contains(e []byte) bool
	// ContainsAll answers a batch into dst (resized to len(keys)),
	// following the library's batch convention.
	ContainsAll(dst []bool, keys [][]byte) []bool
	// N returns the element count recorded at freeze time.
	N() int
}

// Compile-time conformance: the frozen container implements the
// read-only query surface.
var _ FrozenSet = (*Frozen)(nil)

// Freeze compacts a membership-family filter into a read-only ShBZ
// container: [Membership], [CountingMembership] (its query-side bit
// array), [ShardedMembership], [WindowMembership] and
// [ShardedWindowMembership]. Windowed rings collapse by union —
// generations share one geometry and seed, so ORing their bit arrays
// yields a filter answering "seen in any live generation": never a
// false negative, answers a superset of the ring's. Other kinds return
// an error naming the kind.
//
// The container embeds the full probe geometry; [OpenFrozen] needs no
// out-of-band knowledge, and a frozen filter answers bit-identically
// to its (non-windowed) live source because it runs the live filter's
// own probe code, through a read-only view, over the same bit layout.
func Freeze(f Filter) ([]byte, error) { return frozen.Append(nil, f) }

// AppendFreeze is [Freeze] appending to dst — for staging several
// containers into one buffer without intermediate copies.
func AppendFreeze(dst []byte, f Filter) ([]byte, error) { return frozen.Append(dst, f) }

// OpenFrozen opens a ShBZ container at the start of data (trailing
// bytes are ignored, so a container embedded at an offset into a
// larger mapped file opens in place). On a little-endian host, when
// data starts 8-byte aligned (mmap regions and Go allocations do), the
// returned filter reads data in place — it must then stay immutable
// and mapped — and the open cost is independent of the bit array's
// size: a 64-byte header parse plus one read-only view per shard. Any
// other input is copied once, at open.
func OpenFrozen(data []byte) (*Frozen, error) { return frozen.Open(data) }

// OpenFrozenStack opens a stack file ([FrozenStackBuilder],
// cmd/shbf stack): one O(count) index validation, then
// [FrozenStack.At] opens any member filter in place in O(1).
func OpenFrozenStack(data []byte) (*FrozenStack, error) { return frozen.OpenStack(data) }
