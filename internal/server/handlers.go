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
)

// The HTTP handlers with no wire op — snapshot and daemon stats — and
// the JSON helpers every route shares. The routes with a wire op are
// serveOp codecs over dispatch (httpcodec.go).

// maxBodyBytes bounds a request body; batches beyond this should be
// split by the client.
const maxBodyBytes = 32 << 20

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
	json.NewEncoder(w).Encode(v) // on failure the headers are gone; nothing more to do
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
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
