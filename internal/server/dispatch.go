package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"shbf"
	"shbf/internal/core"
	"shbf/internal/sharded"
	"shbf/internal/wire"
)

// The op core. dispatch is the only code that runs an op against a
// namespace: ShBP frames (binary.go), the HTTP routes (serveOp in
// httpcodec.go) and ShBU add-batches (udp.go) all decode into a
// wire.Request and run it here. Every transport therefore checks the
// same things in the same order — namespace lookup, the frozen-tenant
// gate, the association set, the rate quota — before the filter call
// and the query counters. Each op returns an error, statusOf classifies
// it once for every transport, and wire.HTTPStatus turns that status
// into the HTTP answer's.

// dispatchScratch is per-connection reusable result storage, so the
// query hot paths allocate only on batch-size growth.
type dispatchScratch struct {
	bools   []bool
	counts  []int
	regions []core.Region
	out     []byte // the encoded answer: a ShBP frame or an HTTP body

	// filterN is the merged-into filter's element count after a merge,
	// which the HTTP merge answer reports.
	filterN int
}

// Error classes: statusOf matches them, beside the registry's and the
// filters' own sentinels, with errors.Is.
var (
	// errBadRequest classes an error as the caller's fault.
	errBadRequest = errors.New("bad request")
	// errMidBatch classes a filter update that failed partway through a
	// batch: the updates before it stay applied, resp.Applied and the
	// namespace's key counters count them, and the HTTP answer reports
	// them as "applied".
	errMidBatch = errors.New("batch failed midway")
	// errMetricsDisabled answers OpMetrics on a NoMetrics daemon.
	errMetricsDisabled = errors.New("server: metrics disabled")
)

// classed is err with a class that errors.Is matches; its message is
// err's.
type classed struct {
	error
	class error
}

func (c classed) Is(target error) bool { return target == c.class }
func (c classed) Unwrap() error        { return c.error }

// badRequest classes err as the caller's fault.
func badRequest(err error) error { return classed{err, errBadRequest} }

// statusOf is the one error→status table. Checks run in order, so an
// error wrapping sentinels of two classes takes the first: a refused
// namespace create is a bad request unless it is a duplicate name
// (conflict) or past the daemon memory ceiling (overloaded).
func statusOf(err error) byte {
	is := func(targets ...error) bool {
		for _, t := range targets {
			if errors.Is(err, t) {
				return true
			}
		}
		return false
	}
	switch {
	case is(errOverloaded):
		return wire.StatusOverloaded
	case is(errUnknownNamespace, errNotClustered, errMetricsDisabled):
		return wire.StatusNotFound
	case is(errNamespaceFrozen, errNamespaceExists, errDefaultUndeletable, ErrNotWindowed,
		errMergeWindowed, sharded.ErrIncompatible,
		core.ErrCountOverflow, core.ErrCounterSaturated, core.ErrNotStored):
		return wire.StatusConflict
	case is(errBadRequest, errMergeBadEnvelope):
		return wire.StatusBadRequest
	}
	return wire.StatusInternal
}

// checkSet is the association-set check.
func checkSet(set int) error {
	if set != 1 && set != 2 {
		return badRequest(fmt.Errorf("set must be 1 or 2, got %d", set))
	}
	return nil
}

// dispatch runs one decoded request into resp and returns the error it
// failed with, whose status and message resp then carries.
func (s *Server) dispatch(req *wire.Request, resp *wire.Response, sc *dispatchScratch) error {
	// Regions keeps its capacity, so a classify reuses it.
	*resp = wire.Response{Status: wire.StatusOK, Op: req.Op, Regions: resp.Regions[:0]}
	err := s.apply(req, resp, sc)
	if err != nil {
		resp.Status, resp.Msg = statusOf(err), err.Error()
	}
	return err
}

// apply is dispatch's op switch.
func (s *Server) apply(req *wire.Request, resp *wire.Response, sc *dispatchScratch) error {
	// Control-plane ops that need no namespace.
	switch req.Op {
	case wire.OpPing:
		return nil
	case wire.OpNamespaceCreate:
		var nc NamespaceConfig
		if err := decodeStrict(bytes.NewReader(req.Blob), &nc); err != nil {
			return badRequest(err)
		}
		if nc.Name == "" {
			nc.Name = req.Namespace
		}
		req.Namespace = nc.Name // the HTTP answer names the tenant created
		if err := s.CreateNamespace(nc); err != nil {
			return badRequest(err)
		}
		return nil
	case wire.OpNamespaceDelete:
		return s.DeleteNamespace(req.Namespace)
	case wire.OpNamespaceList:
		return marshalBlob(resp, s.namespaceList())
	case wire.OpClusterMap:
		cs := s.cluster.Load()
		if cs == nil {
			return errNotClustered
		}
		resp.Blob = cs.encoded
		return nil
	case wire.OpMetrics:
		if s.met == nil {
			return errMetricsDisabled
		}
		resp.Blob = s.met.reg.Render()
		return nil
	}

	ns, err := s.lookup(req.Namespace)
	if err != nil {
		return err
	}
	// Frozen namespaces serve reads; every mutating op conflicts. The
	// write lock holds from this check to the op's last filter update,
	// so a freeze renders either before the write or after it.
	if writeOp(req.Op) || req.Op == wire.OpRotate {
		if err := ns.beginWrite(); err != nil {
			return err
		}
		defer ns.endWrite()
	}
	if req.Op == wire.OpAssociationAdd || req.Op == wire.OpAssociationRemove {
		if err := checkSet(int(req.Set)); err != nil {
			return err
		}
	}
	// Per-tenant rate quota on the data-plane ops, one token per key
	// (per key, not per increment, for the counting writes: admission
	// meters request traffic, the filters' MaxCount meters capacity).
	switch req.Op {
	case wire.OpMembershipAdd, wire.OpAssociationAdd, wire.OpAssociationRemove,
		wire.OpMultiplicityAdd, wire.OpMultiplicityRemove:
		err = ns.admit(len(req.Keys), true)
	case wire.OpMembershipContains, wire.OpAssociationQuery, wire.OpMultiplicityCount:
		err = ns.admit(len(req.Keys), false)
	}
	if err != nil {
		return err
	}

	n := uint64(len(req.Keys))
	switch req.Op {
	case wire.OpStats:
		return marshalBlob(resp, s.statsFor(ns))

	case wire.OpRotate:
		if resp.Rotated, err = s.rotate(ns); err != nil {
			return err
		}
		if win, ok := ns.mem.(shbf.Windowed); ok {
			resp.Epoch = win.Window().Epoch
		}

	case wire.OpMembershipAdd:
		// The batch path takes each shard lock once for the whole
		// request instead of once per key.
		if err := ns.mem.AddAll(req.Keys); err != nil {
			return err
		}
		ns.stats.membershipAdd.Add(n)
		resp.Applied = n

	case wire.OpMembershipContains:
		sc.bools = ns.mem.ContainsAll(sc.bools[:0], req.Keys)
		ns.stats.membershipContains.Add(n)
		resp.Bools = sc.bools

	case wire.OpMembershipMerge, wire.OpMultiplicityMerge:
		merged, err := ns.mergeEnvelope(req.Op, req.Blob)
		if err != nil {
			return err
		}
		resp.Applied = uint64(merged)
		dst := shbf.Filter(ns.mem)
		if req.Op == wire.OpMultiplicityMerge {
			dst = ns.mult
		}
		sc.filterN = dst.Stats().N

	case wire.OpMembershipDump:
		resp.Blob, err = shbf.AppendDump(nil, ns.mem)
		return err

	case wire.OpMultiplicityDump:
		resp.Blob, err = shbf.AppendDump(nil, ns.mult)
		return err

	case wire.OpFreeze:
		resp.Blob, err = ns.freezeMembership()
		return err

	case wire.OpAssociationAdd, wire.OpAssociationRemove:
		update := associationOp(ns, req.Op, req.Set)
		for i, k := range req.Keys {
			if err := update(k); err != nil {
				// Earlier keys stay applied; count them and report the
				// split point so the client can resume.
				resp.Applied = uint64(i)
				ns.stats.associationUpdate.Add(resp.Applied)
				return classed{err, errMidBatch}
			}
		}
		ns.stats.associationUpdate.Add(n)
		resp.Applied = n

	case wire.OpAssociationQuery:
		sc.regions = ns.assoc.QueryAll(sc.regions[:0], req.Keys)
		ns.stats.associationQuery.Add(n)
		for _, r := range sc.regions {
			resp.Regions = append(resp.Regions, byte(r))
		}

	case wire.OpMultiplicityAdd, wire.OpMultiplicityRemove:
		update := ns.mult.Insert
		if req.Op == wire.OpMultiplicityRemove {
			update = ns.mult.Delete
		}
		for i, k := range req.Keys {
			count := 1
			if len(req.Counts) != 0 {
				count = req.Counts[i]
			}
			for range count {
				if err := update(k); err != nil {
					ns.stats.multiplicityUpdate.Add(resp.Applied)
					return classed{fmt.Errorf("item %d: %w", i, err), errMidBatch}
				}
				resp.Applied++
			}
		}
		ns.stats.multiplicityUpdate.Add(resp.Applied)

	case wire.OpMultiplicityCount:
		sc.counts = ns.mult.CountAll(sc.counts[:0], req.Keys)
		ns.stats.multiplicityQuery.Add(n)
		resp.Counts = sc.counts

	default:
		return badRequest(fmt.Errorf("unhandled op %s", wire.OpName(req.Op)))
	}
	return nil
}

// marshalBlob answers v as a JSON blob.
func marshalBlob(resp *wire.Response, v any) (err error) {
	resp.Blob, err = json.Marshal(v)
	return err
}

// associationOp selects the association update for an op and a checked
// set.
func associationOp(ns *namespace, op, set byte) func([]byte) error {
	switch {
	case op == wire.OpAssociationAdd && set == 1:
		return ns.assoc.InsertS1
	case op == wire.OpAssociationAdd:
		return ns.assoc.InsertS2
	case set == 1:
		return ns.assoc.DeleteS1
	}
	return ns.assoc.DeleteS2
}
