package server

import (
	"errors"
	"fmt"

	"shbf/internal/frozen"
)

// Frozen namespaces. POST /v2/namespaces/{ns}/freeze (and the ShBP
// freeze op) compacts a tenant's membership filter into a read-only
// ShBZ container (internal/frozen) and hands the bytes to the caller —
// the LSM-style handoff: the daemon keeps serving the tenant's reads
// while the container ships to object storage or an embedding host,
// which opens it zero-copy (shbf.OpenFrozen) from a file or mmap
// region. From the first freeze on the namespace is frozen: every
// mutating operation — membership add, association add/remove,
// multiplicity add/remove, merge, rotate — answers 409 Conflict (HTTP)
// or StatusConflict (ShBP), so the served set and the shipped container
// cannot drift apart, also under concurrent writes (beginWrite).
// Repeating the freeze is idempotent and returns the same bytes
// (nothing can have changed in between).
//
// The frozen flag is process-local state: it is not recorded in
// snapshots, so a daemon restart thaws every namespace (see
// OPERATIONS.md §11). Deleting and recreating the namespace is the
// in-process thaw.

// errNamespaceFrozen reports a write to a frozen namespace
// (409/StatusConflict).
var errNamespaceFrozen = errors.New("namespace is frozen (writes rejected; delete and recreate to thaw)")

// beginWrite is the one write gate: it takes the namespace's write
// lock shared and refuses a frozen namespace. A nil return must be
// paired with endWrite after the write's last filter update, so a
// freeze renders either before the write or after it — never while a
// write that passed the gate is still landing.
func (ns *namespace) beginWrite() error {
	ns.writeMu.RLock()
	if ns.frozen.Load() {
		ns.writeMu.RUnlock()
		return fmt.Errorf("server: namespace %q: %w", ns.name, errNamespaceFrozen)
	}
	return nil
}

// endWrite releases the lock a successful beginWrite took.
func (ns *namespace) endWrite() { ns.writeMu.RUnlock() }

// freezeMembership renders the namespace's membership filter as a ShBZ
// container and, on success, marks the namespace frozen. It holds the
// write lock exclusively, so every write acked before it returns is in
// the container. The flag flips only after a successful render, so a
// failed freeze leaves the tenant fully writable.
func (ns *namespace) freezeMembership() ([]byte, error) {
	ns.writeMu.Lock()
	defer ns.writeMu.Unlock()
	blob, err := frozen.Append(nil, ns.mem)
	if err != nil {
		return nil, fmt.Errorf("server: freezing namespace %q: %w", ns.name, err)
	}
	ns.frozen.Store(true)
	return blob, nil
}
