package server

import (
	"errors"

	"shbf"
	"shbf/internal/wire"
)

// Rotation of the daemon's sliding windows. A windowed namespace's
// three filters implement shbf.Windowed; rotating the namespace walks
// them, retiring each one's oldest generation under its striped shard
// locks, so queries keep flowing on every shard a rotation is not
// currently touching. Two callers share this path: the rotate op
// (POST /v2/namespaces/{ns}/rotate, its v1 shim POST /v1/rotate, and
// ShBP OpRotate, all through dispatch) and shbfd's -tick loop
// (RotateAll). Both hold the namespace's write gate, and all rotations
// serialize on Server.rotMu so a rotation-consistent snapshot can
// exclude rotations entirely and capture every ring at one epoch.

// ErrNotWindowed reports a rotation request against a namespace whose
// filters are classic unbounded ones (no -window / window_generations).
var ErrNotWindowed = errors.New("server: filters are not windowed (start shbfd with -window)")

// rotate retires the oldest generation of each of the namespace's
// windowed filters and returns the names of the filters rotated. A
// classic namespace returns ErrNotWindowed.
func (s *Server) rotate(ns *namespace) ([]string, error) {
	s.rotMu.Lock()
	defer s.rotMu.Unlock()
	var rotated []string
	for _, f := range ns.filters() {
		w, ok := f.filter.(shbf.Windowed)
		if !ok {
			continue
		}
		if err := w.Rotate(); err != nil {
			return rotated, err
		}
		rotated = append(rotated, f.name)
	}
	if len(rotated) == 0 {
		return nil, ErrNotWindowed
	}
	ns.stats.rotations.Add(1)
	return rotated, nil
}

// Rotate retires the oldest generation of the default namespace's
// windowed filters — the v1 behavior — as the rotate op, so a frozen
// default namespace refuses it. Safe for concurrent use.
func (s *Server) Rotate() ([]string, error) {
	var (
		resp wire.Response
		sc   dispatchScratch
	)
	err := s.dispatch(&wire.Request{Op: wire.OpRotate}, &resp, &sc)
	return resp.Rotated, err
}

// RotateAll rotates every windowed namespace (the shbfd -tick driver)
// and returns the names of the tenants rotated. With no windowed
// tenant at all it returns ErrNotWindowed, so the tick loop can shut
// its ticker down.
func (s *Server) RotateAll() ([]string, error) {
	var rotated []string
	for _, ns := range s.snapshotList() {
		// Frozen tenants are read-only; the tick loop skips them
		// rather than erroring the whole sweep.
		if !ns.windowed() || ns.beginWrite() != nil {
			continue
		}
		_, err := s.rotate(ns)
		ns.endWrite()
		if err != nil {
			return rotated, err
		}
		rotated = append(rotated, ns.name)
	}
	if len(rotated) == 0 {
		return nil, ErrNotWindowed
	}
	return rotated, nil
}

// Windowed reports whether the default namespace's filters rotate
// (i.e. were built with Config.WindowGenerations ≥ 2 or restored from
// a windowed snapshot).
func (s *Server) Windowed() bool {
	return s.defaultNS().windowed()
}
