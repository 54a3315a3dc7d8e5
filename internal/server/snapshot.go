package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"shbf"
)

// The daemon snapshot is a thin container over the root package's
// self-describing envelopes. Version 3 (current) is multi-tenant:
// 4-byte magic "ShBD", a version byte, a uvarint namespace count, then
// per namespace (sorted by name) a uvarint-length-prefixed name
// followed by the tenant's three filters as concatenated shbf.Dump
// envelopes. Each envelope carries its own kind tag and length, so the
// restore loop is fully generic — shbf.Decode reconstructs each filter
// and a type switch on the slot interfaces slots it into place, in any
// order. Geometry and
// seeds travel inside the envelopes, so a restored daemon answers
// identically even if its flags changed — the snapshot wins.
//
// Version 2 (pre-namespace) containers, three bare concatenated
// envelopes, still restore into the default namespace. Version 1
// (pre-envelope) files are refused: every one was written before the
// digest-pipeline determinism reset (envelope.go), so its bits sit at
// positions the current pipeline never probes.

const (
	daemonSnapVersion   = 3
	daemonSnapVersionV2 = 2
	daemonSnapVersionV1 = 1
	daemonSnapMagic     = "ShBD"
)

// errSnapshotV1 refuses a version 1 (pre-envelope) snapshot.
var errSnapshotV1 = errors.New("server: version 1 (pre-envelope) snapshot refused: it predates the digest-pipeline " +
	"determinism reset, so its filters would answer false negatives; rebuild the state from source data (OPERATIONS.md §6)")

// SaveSnapshot atomically writes every namespace's filter state to
// path (via a temp file and rename in the same directory) and returns
// the byte count written. Each shard is serialized under its read
// lock; queries keep flowing while the snapshot is cut, and window
// shards may be captured at adjacent epochs if a rotation interleaves
// (use SaveSnapshotOpts for a single-epoch cut).
func (s *Server) SaveSnapshot(path string) (int, error) {
	return s.SaveSnapshotOpts(path, false)
}

// SaveSnapshotOpts is SaveSnapshot with options: rotationConsistent
// excludes rotations for the duration of the cut, so every shard of
// every window ring is captured at one epoch (rotations queue behind
// the serialization; queries and writes are never blocked).
func (s *Server) SaveSnapshotOpts(path string, rotationConsistent bool) (int, error) {
	if rotationConsistent {
		s.rotMu.Lock()
		defer s.rotMu.Unlock()
	}
	list := s.snapshotList()
	buf := append([]byte(daemonSnapMagic), daemonSnapVersion)
	buf = binary.AppendUvarint(buf, uint64(len(list)))
	for _, ns := range list {
		buf = binary.AppendUvarint(buf, uint64(len(ns.name)))
		buf = append(buf, ns.name...)
		for _, f := range ns.filters() {
			var err error
			if buf, err = shbf.AppendDump(buf, f.filter); err != nil {
				return 0, fmt.Errorf("server: snapshot: namespace %q: %w", ns.name, err)
			}
		}
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".shbfd-snapshot-*")
	if err != nil {
		return 0, fmt.Errorf("server: snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("server: snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("server: snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return 0, fmt.Errorf("server: snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, fmt.Errorf("server: snapshot: %w", err)
	}
	s.lastSnapshotUnix.Store(time.Now().Unix())
	return len(buf), nil
}

// LoadSnapshot replaces the namespace set with the snapshot at path.
// It must not run concurrently with queries; the daemon only calls it
// before serving.
func (s *Server) LoadSnapshot(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("server: loading snapshot: %w", err)
	}
	if len(data) < 5 || string(data[:4]) != daemonSnapMagic {
		return fmt.Errorf("server: %s is not a shbfd snapshot", path)
	}
	switch data[4] {
	case daemonSnapVersion:
		return s.restoreV3(data[5:])
	case daemonSnapVersionV2:
		// Pre-namespace: three bare envelopes → the default namespace.
		ns, err := restoreTrio(DefaultNamespace, data[5:])
		if err != nil {
			return err
		}
		s.installNamespaces(map[string]*namespace{DefaultNamespace: ns})
		return nil
	case daemonSnapVersionV1:
		return errSnapshotV1
	default:
		return fmt.Errorf("server: unsupported snapshot version %d", data[4])
	}
}

// restoreV3 reads the multi-tenant container: per namespace, a name
// and exactly three envelopes.
func (s *Server) restoreV3(buf []byte) error {
	count, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return fmt.Errorf("server: snapshot namespace count truncated")
	}
	if count == 0 || count > maxNamespaces {
		return fmt.Errorf("server: snapshot holds %d namespaces, want 1–%d", count, maxNamespaces)
	}
	buf = buf[sz:]
	set := make(map[string]*namespace, count)
	for i := uint64(0); i < count; i++ {
		n, nsz := binary.Uvarint(buf)
		if nsz <= 0 || n > uint64(len(buf)-nsz) {
			return fmt.Errorf("server: snapshot namespace %d name truncated", i)
		}
		name := string(buf[nsz : nsz+int(n)])
		buf = buf[nsz+int(n):]
		if err := validNamespaceName(name); err != nil {
			return fmt.Errorf("server: snapshot namespace %d: %w", i, err)
		}
		if set[name] != nil {
			return fmt.Errorf("server: snapshot holds namespace %q twice", name)
		}
		ns, rest, err := restoreTrioPrefix(name, buf)
		if err != nil {
			return err
		}
		set[name] = ns
		buf = rest
	}
	if len(buf) != 0 {
		return fmt.Errorf("server: %d trailing snapshot bytes", len(buf))
	}
	if set[DefaultNamespace] == nil {
		return fmt.Errorf("server: snapshot holds no %q namespace", DefaultNamespace)
	}
	s.installNamespaces(set)
	return nil
}

// restoreTrio decodes exactly three envelopes spanning all of buf into
// one namespace.
func restoreTrio(name string, buf []byte) (*namespace, error) {
	ns, rest, err := restoreTrioPrefix(name, buf)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("server: namespace %q: %d trailing snapshot bytes", name, len(rest))
	}
	return ns, nil
}

// restoreTrioPrefix decodes three envelopes from the front of buf,
// slotting each decoded filter by the slot interface it satisfies —
// windowed or classic; the snapshot decides, not the flags. Exactly
// one filter per slot must arrive — a duplicate would silently leave
// another slot empty.
func restoreTrioPrefix(name string, buf []byte) (*namespace, []byte, error) {
	ns := &namespace{name: name}
	for i := 0; i < 3; i++ {
		var (
			f   shbf.Filter
			err error
		)
		f, buf, err = shbf.Decode(buf)
		if err != nil {
			return nil, nil, fmt.Errorf("server: namespace %q envelope %d: %w", name, i, err)
		}
		switch f := f.(type) {
		case membershipFilter:
			if ns.mem != nil {
				return nil, nil, fmt.Errorf("server: namespace %q holds two membership filters", name)
			}
			ns.mem = f
		case associationFilter:
			if ns.assoc != nil {
				return nil, nil, fmt.Errorf("server: namespace %q holds two association filters", name)
			}
			ns.assoc = f
		case multiplicityFilter:
			if ns.mult != nil {
				return nil, nil, fmt.Errorf("server: namespace %q holds two multiplicity filters", name)
			}
			ns.mult = f
		default:
			return nil, nil, fmt.Errorf("server: namespace %q holds unexpected %s filter", name, f.Kind())
		}
	}
	if ns.mem == nil || ns.assoc == nil || ns.mult == nil {
		return nil, nil, fmt.Errorf("server: namespace %q is missing a query kind", name)
	}
	return ns, buf, nil
}

// installNamespaces replaces the registry with a restored set and
// re-meters the memory ceiling from it. Restored tenants always
// install — a snapshot that outgrew a newly-lowered ceiling must not
// brick the restart — but the overage is logged by the caller via the
// returned accounting (creations from here on are shed until tenants
// are deleted).
func (s *Server) installNamespaces(set map[string]*namespace) {
	s.mu.Lock()
	s.namespaces = set
	s.usedBits = 0
	for _, ns := range set {
		s.usedBits += ns.totalBits()
	}
	s.mu.Unlock()
}
