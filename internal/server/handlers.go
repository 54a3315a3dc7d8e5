package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"shbf/internal/core"
)

// Request handlers. Every data-plane handler is namespace-
// parameterized: the v1 routes bind it to the default namespace (and
// stay byte-compatible with the pre-namespace daemon — guarded by
// TestV1CompatByteIdentical), the v2 routes to the tenant named in the
// URL. The ShBP binary listener (binary.go) dispatches onto the same
// namespace methods.

// maxBodyBytes bounds a request body; batches beyond this should be
// split by the client.
const maxBodyBytes = 32 << 20

// readJSON decodes the request body into dst, rejecting oversized and
// malformed bodies.
func readJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, maxBodyBytes), dst); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

// decodeStrict decodes one JSON value from src into dst, refusing
// unknown fields and trailing data.
func decodeStrict(src io.Reader, dst any) error {
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing more useful to do than drop it.
		_ = err
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// isCapacityErr reports the filter update errors that are the
// client's to handle — the one predicate behind both the HTTP 409 and
// the wire StatusConflict mappings (add new capacity-class errors
// here, never in one transport only).
func isCapacityErr(err error) bool {
	return errors.Is(err, core.ErrCountOverflow) ||
		errors.Is(err, core.ErrCounterSaturated) ||
		errors.Is(err, core.ErrNotStored)
}

// updateStatus maps a filter update error to an HTTP status: capacity
// conditions are the client's to handle (409), anything else is a
// server fault.
func updateStatus(err error) int {
	if isCapacityErr(err) {
		return http.StatusConflict
	}
	return http.StatusInternalServerError
}

// --- membership -----------------------------------------------------------

func (s *Server) nsMembershipAdd(ns *namespace, w http.ResponseWriter, r *http.Request) {
	if err := ns.writable(); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	b := getHTTPBody()
	defer b.release()
	if !b.read(w, r, shapeKeys) {
		return
	}
	if err := ns.admit(len(b.keys), true); err != nil {
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	// The batch path takes each shard lock once for the whole request
	// instead of once per key.
	if err := ns.mem.AddAll(b.keys); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	ns.stats.membershipAdd.Add(uint64(len(b.keys)))
	b.out = appendTally(b.out[:0], "added", len(b.keys))
	b.reply(w)
}

func (s *Server) nsMembershipContains(ns *namespace, w http.ResponseWriter, r *http.Request) {
	b := getHTTPBody()
	defer b.release()
	if !b.read(w, r, shapeKeys) {
		return
	}
	if err := ns.admit(len(b.keys), false); err != nil {
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	b.bools = ns.mem.ContainsAll(b.bools[:0], b.keys)
	ns.stats.membershipContains.Add(uint64(len(b.keys)))
	b.out = appendBools(b.out[:0], b.bools)
	b.reply(w)
}

// --- association ----------------------------------------------------------

// applySetBatch validates a setBatch and applies op1/op2 per key.
func (s *Server) applySetBatch(ns *namespace, w http.ResponseWriter, r *http.Request, op1, op2 func([]byte) error) {
	if err := ns.writable(); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	b := getHTTPBody()
	defer b.release()
	if !b.read(w, r, shapeSet) {
		return
	}
	if err := ns.admit(len(b.keys), true); err != nil {
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	op := op1
	if b.set == 2 {
		op = op2
	}
	for i, k := range b.keys {
		if err := op(k); err != nil {
			// Earlier keys in the batch stay applied; report the split
			// point so the client can resume.
			writeJSON(w, updateStatus(err), map[string]any{
				"error":   err.Error(),
				"applied": i,
			})
			return
		}
	}
	ns.stats.associationUpdate.Add(uint64(len(b.keys)))
	b.out = appendTally(b.out[:0], "applied", len(b.keys))
	b.reply(w)
}

func (s *Server) nsAssociationAdd(ns *namespace, w http.ResponseWriter, r *http.Request) {
	s.applySetBatch(ns, w, r, ns.assoc.InsertS1, ns.assoc.InsertS2)
}

func (s *Server) nsAssociationRemove(ns *namespace, w http.ResponseWriter, r *http.Request) {
	s.applySetBatch(ns, w, r, ns.assoc.DeleteS1, ns.assoc.DeleteS2)
}

func (s *Server) nsAssociationClassify(ns *namespace, w http.ResponseWriter, r *http.Request) {
	b := getHTTPBody()
	defer b.release()
	if !b.read(w, r, shapeKeys) {
		return
	}
	if err := ns.admit(len(b.keys), false); err != nil {
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	b.regions = ns.assoc.QueryAll(b.regions[:0], b.keys)
	ns.stats.associationQuery.Add(uint64(len(b.keys)))
	// Only the v2 route carries the raw mask; the v1 response shape is
	// frozen.
	b.out = appendRegions(b.out[:0], b.regions, r.PathValue("ns") != "")
	b.reply(w)
}

// --- multiplicity ---------------------------------------------------------

// applyCountedBatch applies op count-times per item (count defaults to
// 1). Every item is decoded and checked before the first update, so a
// malformed request is refused whole and never left partly applied.
func (s *Server) applyCountedBatch(ns *namespace, w http.ResponseWriter, r *http.Request, op func([]byte) error) {
	if err := ns.writable(); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	b := getHTTPBody()
	defer b.release()
	if !b.read(w, r, shapeItems) {
		return
	}
	// The quota charges per key, not per increment: admission meters
	// request traffic, capacity metering is the filters' MaxCount.
	if err := ns.admit(len(b.keys), true); err != nil {
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	applied := 0
	for i, key := range b.keys {
		count := b.itemCounts[i]
		if count == 0 {
			count = 1
		}
		for j := 0; j < count; j++ {
			if err := op(key); err != nil {
				writeJSON(w, updateStatus(err), map[string]any{
					"error":   fmt.Sprintf("item %d: %s", i, err),
					"applied": applied,
				})
				return
			}
			applied++
		}
	}
	ns.stats.multiplicityUpdate.Add(uint64(applied))
	b.out = appendTally(b.out[:0], "applied", applied)
	b.reply(w)
}

func (s *Server) nsMultiplicityAdd(ns *namespace, w http.ResponseWriter, r *http.Request) {
	s.applyCountedBatch(ns, w, r, ns.mult.Insert)
}

func (s *Server) nsMultiplicityRemove(ns *namespace, w http.ResponseWriter, r *http.Request) {
	s.applyCountedBatch(ns, w, r, ns.mult.Delete)
}

func (s *Server) nsMultiplicityCount(ns *namespace, w http.ResponseWriter, r *http.Request) {
	b := getHTTPBody()
	defer b.release()
	if !b.read(w, r, shapeKeys) {
		return
	}
	if err := ns.admit(len(b.keys), false); err != nil {
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	b.counts = ns.mult.CountAll(b.counts[:0], b.keys)
	ns.stats.multiplicityQuery.Add(uint64(len(b.keys)))
	b.out = appendCounts(b.out[:0], b.counts)
	b.reply(w)
}

// --- snapshot -------------------------------------------------------------

// snapshotRequest is the optional body of POST /v1|v2/snapshot.
type snapshotRequest struct {
	// RotationConsistent serializes the snapshot against rotations, so
	// every shard of every window ring is captured at one epoch (the
	// default interleaves them: per-shard consistent, possibly
	// adjacent-epoch).
	RotationConsistent bool `json:"rotation_consistent,omitempty"`
}

// handleSnapshot serves POST /v1/snapshot and POST /v2/snapshot: both
// persist the entire namespace set (the container format is shared)
// and both honor the rotation_consistent option. The body is optional.
// The v1 route stays lenient — the pre-namespace daemon ignored the
// body entirely, so a malformed one is treated as "no options" rather
// than rejected; v2 validates strictly.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.cfg.SnapshotPath == "" {
		writeError(w, http.StatusConflict, errors.New("no snapshot path configured (start shbfd with -snapshot)"))
		return
	}
	var req snapshotRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading request: %w", err))
		return
	}
	if len(body) > 0 {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			if strings.HasPrefix(r.URL.Path, "/v2/") {
				writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
				return
			}
			req = snapshotRequest{} // v1 compatibility: bodies were never read
		}
	}
	n, err := s.SaveSnapshotOpts(s.cfg.SnapshotPath, req.RotationConsistent)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.snapshots.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{"path": s.cfg.SnapshotPath, "bytes": n})
}

// --- namespaces (v2) ------------------------------------------------------

func (s *Server) handleNamespaceCreate(w http.ResponseWriter, r *http.Request) {
	var nc NamespaceConfig
	if !readJSON(w, r, &nc) {
		return
	}
	if err := s.CreateNamespace(nc); err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, errNamespaceExists):
			status = http.StatusConflict
		case IsOverloaded(err): // daemon memory ceiling
			status = http.StatusTooManyRequests
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"created": nc.Name})
}

func (s *Server) handleNamespaceDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("ns")
	if err := s.DeleteNamespace(name); err != nil {
		status := http.StatusNotFound
		if name == DefaultNamespace {
			status = http.StatusConflict
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

func (s *Server) handleNamespaceList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.namespaceList())
}

// namespaceList assembles the GET /v2/namespaces (and OpNamespaceList)
// body.
func (s *Server) namespaceList() map[string]any {
	list := s.snapshotList()
	infos := make([]NamespaceInfo, len(list))
	for i, ns := range list {
		infos[i] = ns.info()
	}
	return map[string]any{"namespaces": infos}
}

// handleDaemonStats serves GET /v2/stats: uptime plus every tenant's
// summary (per-tenant detail lives at /v2/namespaces/{ns}/stats).
func (s *Server) handleDaemonStats(w http.ResponseWriter, r *http.Request) {
	body := s.namespaceList()
	body["uptime_seconds"] = time.Since(s.start).Seconds()
	body["snapshots"] = s.snapshots.Load()
	writeJSON(w, http.StatusOK, body)
}
