package server

import (
	"errors"
	"fmt"

	"shbf"
	"shbf/internal/cluster"
	"shbf/internal/sharded"
	"shbf/internal/wire"
)

// Cluster mode. A daemon started with -cluster-file knows the cluster
// map (internal/cluster) and its own node ID, and serves the map to
// clients over GET /v2/cluster and the ShBP cluster-map op — any node
// is a seed address. The daemon itself stays unaware of routing:
// clients split batches by owner range (client.Cluster) and every node
// answers whatever keys arrive. Replication converges through
// anti-entropy: GET .../membership/envelope exports a namespace's
// membership filter as a ShBE envelope, POST .../merge unions an
// uploaded envelope into the live filter (same Spec + seed ⇒ OR of bit
// arrays is the filter of the union; see sharded.Filter.Union).

// errNotClustered reports cluster endpoints on a daemon started
// without -cluster-file (404/StatusNotFound).
var errNotClustered = errors.New("server: no cluster map configured (start shbfd with -cluster-file)")

// errMergeWindowed reports a merge into a windowed namespace, refused
// until merges are epoch-aligned (409/StatusConflict).
var errMergeWindowed = errors.New("server: cannot merge into a windowed namespace (generation epochs are not aligned across nodes)")

// errMergeBadEnvelope tags merge-body decode failures
// (400/StatusBadRequest).
var errMergeBadEnvelope = errors.New("server: merge body is not a membership envelope")

// clusterState is the immutable cluster identity a daemon is started
// with.
type clusterState struct {
	m      *cluster.Map
	nodeID string
	// encoded is the map's JSON, rendered once at set time — the
	// GET /v2/cluster and OpClusterMap body.
	encoded []byte
}

// SetClusterMap puts the server in cluster mode: m is the map it will
// serve to clients, nodeID this daemon's own entry in it. Call before
// serving; the map is static for the process lifetime (rebalancing is
// a follow-on).
func (s *Server) SetClusterMap(m *cluster.Map, nodeID string) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if m.NodeByID(nodeID) == nil {
		return fmt.Errorf("server: node id %q is not in the cluster map", nodeID)
	}
	encoded, err := m.Encode()
	if err != nil {
		return err
	}
	s.cluster.Store(&clusterState{m: m, nodeID: nodeID, encoded: encoded})
	return nil
}

// ClusterMap returns the map set by SetClusterMap and this node's ID
// in it (nil, "" outside cluster mode).
func (s *Server) ClusterMap() (*cluster.Map, string) {
	cs := s.cluster.Load()
	if cs == nil {
		return nil, ""
	}
	return cs.m, cs.nodeID
}

// decodeMergeEnvelope decodes one uploaded ShBE envelope, classifying
// malformed bytes and trailing garbage as errMergeBadEnvelope.
func decodeMergeEnvelope(data []byte) (shbf.Filter, error) {
	src, rest, err := shbf.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errMergeBadEnvelope, err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after envelope", errMergeBadEnvelope, len(rest))
	}
	return src, nil
}

// mergeFilter unions one decoded ShBE filter into the matching member
// of the namespace trio, dispatching on the envelope's self-described
// kind: membership envelopes union into mem (bitwise OR), multiplicity
// envelopes into mult (counter-wise saturating add; see
// sharded.Multiplicity.Union). gate, when non-nil, runs between decode
// and mutation with the source filter's element count — the UDP ingest
// path charges the per-tenant rate quota there — and a gate error
// aborts with the destination untouched. Returns the source filter's
// element count.
func (ns *namespace) mergeFilter(src shbf.Filter, gate func(nKeys int) error) (int, error) {
	switch srcF := src.(type) {
	case *sharded.Filter:
		dstF, ok := ns.mem.(*sharded.Filter)
		if !ok {
			return 0, errMergeWindowed
		}
		n := srcF.N()
		if gate != nil {
			if err := gate(n); err != nil {
				return 0, err
			}
		}
		if err := dstF.Union(srcF); err != nil {
			return 0, err
		}
		return n, nil
	case *sharded.Multiplicity:
		dstF, ok := ns.mult.(*sharded.Multiplicity)
		if !ok {
			return 0, errMergeWindowed
		}
		n := srcF.N()
		if n < 0 {
			n = 0 // unsafe mode tracks no exact element set
		}
		if gate != nil {
			if err := gate(n); err != nil {
				return 0, err
			}
		}
		if err := dstF.Union(srcF); err != nil {
			return 0, err
		}
		return n, nil
	default:
		return 0, fmt.Errorf("%w: envelope holds a %s filter, want %s or %s",
			errMergeBadEnvelope, src.Kind(), shbf.KindShardedMembership, shbf.KindShardedMultiplicity)
	}
}

// mergeEnvelope unions one uploaded ShBE envelope into the live
// filter op names: a membership envelope for OpMembershipMerge, a
// multiplicity one (unioned by counter-wise saturating add, so merged
// counts never underestimate either side) for OpMultiplicityMerge. It
// returns the source filter's element count. Failures classify through
// errMergeBadEnvelope (bad request), errMergeWindowed and
// sharded.ErrIncompatible (both conflict: the filter is intact, the
// operator shipped the wrong envelope).
func (ns *namespace) mergeEnvelope(op byte, data []byte) (int, error) {
	src, err := decodeMergeEnvelope(data)
	if err != nil {
		return 0, err
	}
	want := shbf.KindShardedMembership
	if op == wire.OpMultiplicityMerge {
		want = shbf.KindShardedMultiplicity
	}
	if src.Kind() != want {
		return 0, fmt.Errorf("%w: envelope holds a %s filter, want %s", errMergeBadEnvelope, src.Kind(), want)
	}
	return ns.mergeFilter(src, nil)
}
