package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"shbf"
	"shbf/internal/core"
	"shbf/internal/wire"
)

// ShBP serving: the binary batch listener. Each connection runs one
// goroutine in a read-frame → dispatch → write-frame loop; requests on
// a connection are answered in order, so clients can pipeline. One
// decoded frame feeds the library's batch paths directly — keys are
// subslices of the connection's frame buffer (the filters don't retain
// them: the key-storing kinds copy into their hash tables), so the
// per-request cost is one buffer read and zero per-key allocations,
// versus the JSON path's string decode + base64 per key. This is the
// transport that lets one daemon approach the library's native
// throughput on small batches (ROADMAP's binary-protocol item;
// measured in BENCH_PR5.json).

// ServeShBP accepts ShBP connections on ln until ctx is cancelled or
// ln fails, serving every namespace. It blocks; run it in its own
// goroutine alongside the HTTP server.
func (s *Server) ServeShBP(ctx context.Context, ln net.Listener) error {
	var (
		mu    sync.Mutex
		conns = map[net.Conn]struct{}{}
		wg    sync.WaitGroup
	)
	stop := context.AfterFunc(ctx, func() {
		ln.Close()
		mu.Lock()
		for c := range conns {
			c.Close()
		}
		mu.Unlock()
	})
	defer stop()
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil // clean shutdown
			}
			return fmt.Errorf("server: shbp accept: %w", err)
		}
		// Register under the lock with a cancellation re-check: a
		// connection accepted just as ctx fires could otherwise slip
		// into the map after the AfterFunc's sweep and hold wg.Wait()
		// open until the remote side hangs up.
		mu.Lock()
		if ctx.Err() != nil {
			mu.Unlock()
			conn.Close()
			return nil
		}
		conns[conn] = struct{}{}
		mu.Unlock()
		if s.met != nil {
			s.met.openConns.Inc()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				mu.Lock()
				delete(conns, conn)
				mu.Unlock()
				conn.Close()
				if s.met != nil {
					s.met.openConns.Dec()
				}
			}()
			if err := s.serveShBPConn(conn); err != nil && ctx.Err() == nil {
				log.Printf("server: shbp conn %s: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// serveShBPConn runs one connection's request loop. A protocol error
// is answered with a bad-request frame and closes the connection (the
// stream position is unrecoverable); op-level errors, and answers too
// large for one frame, are answered in band and the loop continues.
// With cfg.ShBPIdleTimeout set, a connection that completes no frame
// within the timeout is reaped — the deadline re-arms before every
// frame read, so an active pipelined connection never trips it while
// a dialed-and-silent one cannot hold its goroutine and buffers
// forever.
func (s *Server) serveShBPConn(conn net.Conn) error {
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	var (
		frame []byte
		req   wire.Request
		resp  wire.Response
		sc    dispatchScratch
	)
	for {
		var err error
		if idle := s.cfg.ShBPIdleTimeout; idle > 0 {
			conn.SetReadDeadline(time.Now().Add(idle))
		}
		frame, err = wire.ReadFrame(br, frame)
		if err != nil {
			if err == io.EOF {
				return nil
			}
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				return nil // idle reap, not a fault
			}
			return err
		}
		if derr := wire.DecodeRequest(&req, frame); derr != nil {
			// The frame boundary held (ReadFrame consumed exactly the
			// declared bytes) but the payload is malformed; answer and
			// drop the connection in case the client is confused about
			// the protocol version.
			resp = wire.Response{Status: wire.StatusBadRequest, Op: req.Op, Msg: derr.Error()}
			if sc.out, err = wire.AppendResponse(sc.out[:0], &resp); err == nil {
				bw.Write(sc.out)
				bw.Flush()
			}
			return derr
		}
		if err = s.handleFrame(&req, &resp, &sc); err != nil {
			return fmt.Errorf("encoding %s response: %w", wire.OpName(req.Op), err)
		}
		if _, err = bw.Write(sc.out); err != nil {
			return err
		}
		// Flush when no further request is already buffered, so
		// pipelined batches share one write syscall.
		if br.Buffered() == 0 {
			if err = bw.Flush(); err != nil {
				return err
			}
		}
	}
}

// handleFrame admits, dispatches and encodes one decoded frame into
// sc.out, recording its latency, request counter and in-flight gauge.
// The in-flight frame cap sheds before dispatch, writes first; the shed
// answer is in-band — the connection stays usable, so a
// backoff-and-retry client keeps its pipeline. The request counter
// sees the status actually sent, an oversize refusal included.
// Instrumentation is a time read plus a handful of atomic adds, zero
// allocations (metrics_alloc_test.go) — except for OpMetrics itself,
// which is served entirely unrecorded so a scrape never changes what
// the next scrape (on either transport) renders.
func (s *Server) handleFrame(req *wire.Request, resp *wire.Response, sc *dispatchScratch) error {
	met := s.met
	if met == nil || req.Op == wire.OpMetrics {
		if gerr := s.frames.acquire(writeOp(req.Op)); gerr != nil {
			*resp = wire.Response{Status: wire.StatusOverloaded, Op: req.Op, Msg: gerr.Error()}
		} else {
			s.dispatch(req, resp, sc)
			s.frames.release()
		}
		return sc.encode(resp)
	}
	start := time.Now()
	if gerr := s.frames.acquire(writeOp(req.Op)); gerr != nil {
		*resp = wire.Response{Status: wire.StatusOverloaded, Op: req.Op, Msg: gerr.Error()}
		met.shedInflight.Inc()
	} else {
		met.inflight.Inc()
		s.dispatch(req, resp, sc)
		met.inflight.Dec()
		s.frames.release()
	}
	if h := met.shbpDur[req.Op]; h != nil {
		h.Observe(time.Since(start))
	}
	err := sc.encode(resp)
	if c := met.shbpReqs[req.Op][statusIndex(resp.Status)]; c != nil {
		c.Inc()
	}
	return err
}

// encode encodes resp as one frame into sc.out. An answer larger than
// wire.MaxFrame — the envelope of a tenant bigger than the frame
// limit — is replaced by an in-band StatusConflict naming the limit,
// the same error the HTTP client reports for such a body, so the
// client learns why and the connection keeps serving.
func (sc *dispatchScratch) encode(resp *wire.Response) error {
	var err error
	if sc.out, err = wire.AppendResponse(sc.out[:0], resp); err == nil || resp.Status != wire.StatusOK {
		return err
	}
	*resp = wire.Response{Status: wire.StatusConflict, Op: resp.Op, Msg: wire.OversizeMsg(resp.Op)}
	sc.out, err = wire.AppendResponse(sc.out[:0], resp)
	return err
}

// dispatchScratch is per-connection reusable result storage, so the
// query hot paths allocate only on batch-size growth.
type dispatchScratch struct {
	bools   []bool
	counts  []int
	regions []core.Region
	out     []byte // the encoded response frame
}

// dispatch answers one decoded request into resp. It never returns an
// error: failures become in-band status responses, mirroring the HTTP
// layer's status mapping.
func (s *Server) dispatch(req *wire.Request, resp *wire.Response, sc *dispatchScratch) {
	*resp = wire.Response{Status: wire.StatusOK, Op: req.Op}

	// Control-plane ops that need no namespace.
	switch req.Op {
	case wire.OpPing:
		return
	case wire.OpNamespaceCreate:
		var nc NamespaceConfig
		if err := json.Unmarshal(req.Blob, &nc); err != nil {
			resp.Status, resp.Msg = wire.StatusBadRequest, fmt.Sprintf("decoding config: %s", err)
			return
		}
		if nc.Name == "" {
			nc.Name = req.Namespace
		}
		if err := s.CreateNamespace(nc); err != nil {
			resp.Status, resp.Msg = wire.StatusBadRequest, err.Error()
			switch {
			case errors.Is(err, errNamespaceExists):
				resp.Status = wire.StatusConflict
			case IsOverloaded(err): // daemon memory ceiling
				resp.Status = wire.StatusOverloaded
			}
		}
		return
	case wire.OpNamespaceDelete:
		if err := s.DeleteNamespace(req.Namespace); err != nil {
			resp.Status, resp.Msg = wire.StatusNotFound, err.Error()
			if req.Namespace == DefaultNamespace {
				resp.Status = wire.StatusConflict
			}
		}
		return
	case wire.OpNamespaceList:
		blob, err := json.Marshal(s.namespaceList())
		if err != nil {
			resp.Status, resp.Msg = wire.StatusInternal, err.Error()
			return
		}
		resp.Blob = blob
		return
	case wire.OpClusterMap:
		cs := s.cluster.Load()
		if cs == nil {
			resp.Status, resp.Msg = wire.StatusNotFound, errNotClustered.Error()
			return
		}
		resp.Blob = cs.encoded
		return
	case wire.OpMetrics:
		if s.met == nil {
			resp.Status, resp.Msg = wire.StatusNotFound, "server: metrics disabled"
			return
		}
		resp.Blob = s.met.reg.Render()
		return
	}

	ns, err := s.lookup(req.Namespace)
	if err != nil {
		resp.Status, resp.Msg = wire.StatusNotFound, err.Error()
		return
	}
	// Frozen namespaces serve reads; every mutating op conflicts, on
	// this transport exactly as over HTTP (freeze.go).
	switch req.Op {
	case wire.OpMembershipAdd, wire.OpMembershipMerge, wire.OpAssociationAdd,
		wire.OpAssociationRemove, wire.OpMultiplicityAdd, wire.OpMultiplicityRemove,
		wire.OpMultiplicityMerge, wire.OpRotate:
		if err := ns.writable(); err != nil {
			resp.Status, resp.Msg = wire.StatusConflict, err.Error()
			return
		}
	}
	// Per-tenant rate quota on the data-plane ops, charging one token
	// per key — the same gate, costs and message as the HTTP handlers,
	// so both transports shed byte-identically.
	switch req.Op {
	case wire.OpMembershipAdd, wire.OpAssociationAdd, wire.OpAssociationRemove,
		wire.OpMultiplicityAdd, wire.OpMultiplicityRemove:
		if err := ns.admit(len(req.Keys), true); err != nil {
			resp.Status, resp.Msg = wire.StatusOverloaded, err.Error()
			return
		}
	case wire.OpMembershipContains, wire.OpAssociationQuery, wire.OpMultiplicityCount:
		if err := ns.admit(len(req.Keys), false); err != nil {
			resp.Status, resp.Msg = wire.StatusOverloaded, err.Error()
			return
		}
	}
	switch req.Op {
	case wire.OpStats:
		blob, err := json.Marshal(s.statsFor(ns))
		if err != nil {
			resp.Status, resp.Msg = wire.StatusInternal, err.Error()
			return
		}
		resp.Blob = blob

	case wire.OpRotate:
		rotated, err := s.rotate(ns)
		if err != nil {
			resp.Status, resp.Msg = wire.StatusInternal, err.Error()
			if errors.Is(err, ErrNotWindowed) {
				resp.Status = wire.StatusConflict
			}
			return
		}
		resp.Rotated = rotated
		if win, ok := ns.mem.(shbf.Windowed); ok {
			resp.Epoch = win.Window().Epoch
		}

	case wire.OpMembershipAdd:
		if err := ns.mem.AddAll(req.Keys); err != nil {
			resp.Status, resp.Msg = wire.StatusInternal, err.Error()
			return
		}
		ns.stats.membershipAdd.Add(uint64(len(req.Keys)))
		resp.Applied = uint64(len(req.Keys))

	case wire.OpMembershipContains:
		sc.bools = ns.mem.ContainsAll(sc.bools[:0], req.Keys)
		ns.stats.membershipContains.Add(uint64(len(req.Keys)))
		resp.Bools = sc.bools

	case wire.OpMembershipMerge:
		n, err := ns.mergeEnvelope(req.Blob)
		if err != nil {
			resp.Status, resp.Msg = mergeStatusWire(err), err.Error()
			return
		}
		resp.Applied = uint64(n)

	case wire.OpMembershipDump:
		env, err := ns.membershipEnvelope()
		if err != nil {
			resp.Status, resp.Msg = wire.StatusInternal, err.Error()
			return
		}
		resp.Blob = env

	case wire.OpFreeze:
		blob, err := ns.freezeMembership()
		if err != nil {
			resp.Status, resp.Msg = wire.StatusInternal, err.Error()
			return
		}
		resp.Blob = blob

	case wire.OpAssociationAdd, wire.OpAssociationRemove:
		op, err := associationOp(ns, req.Op, req.Set)
		if err != nil {
			resp.Status, resp.Msg = wire.StatusBadRequest, err.Error()
			return
		}
		for i, k := range req.Keys {
			if err := op(k); err != nil {
				resp.Status, resp.Msg = wireUpdateStatus(err), err.Error()
				resp.Applied = uint64(i)
				return
			}
		}
		ns.stats.associationUpdate.Add(uint64(len(req.Keys)))
		resp.Applied = uint64(len(req.Keys))

	case wire.OpAssociationQuery:
		sc.regions = ns.assoc.QueryAll(sc.regions[:0], req.Keys)
		ns.stats.associationQuery.Add(uint64(len(req.Keys)))
		if cap(resp.Regions) < len(sc.regions) {
			resp.Regions = make([]byte, len(sc.regions))
		}
		resp.Regions = resp.Regions[:len(sc.regions)]
		for i, r := range sc.regions {
			resp.Regions[i] = byte(r)
		}

	case wire.OpMultiplicityAdd, wire.OpMultiplicityRemove:
		op := ns.mult.Insert
		if req.Op == wire.OpMultiplicityRemove {
			op = ns.mult.Delete
		}
		applied := uint64(0)
		for i, k := range req.Keys {
			count := 1
			if len(req.Counts) != 0 {
				count = req.Counts[i]
			}
			for j := 0; j < count; j++ {
				if err := op(k); err != nil {
					resp.Status = wireUpdateStatus(err)
					resp.Msg = fmt.Sprintf("key %d: %s", i, err)
					resp.Applied = applied
					return
				}
				applied++
			}
		}
		ns.stats.multiplicityUpdate.Add(applied)
		resp.Applied = applied

	case wire.OpMultiplicityCount:
		sc.counts = ns.mult.CountAll(sc.counts[:0], req.Keys)
		ns.stats.multiplicityQuery.Add(uint64(len(req.Keys)))
		resp.Counts = sc.counts

	case wire.OpMultiplicityMerge:
		n, err := ns.mergeMultiplicityEnvelope(req.Blob)
		if err != nil {
			resp.Status, resp.Msg = mergeStatusWire(err), err.Error()
			return
		}
		resp.Applied = uint64(n)

	case wire.OpMultiplicityDump:
		env, err := ns.multiplicityEnvelope()
		if err != nil {
			resp.Status, resp.Msg = wire.StatusInternal, err.Error()
			return
		}
		resp.Blob = env

	default:
		resp.Status, resp.Msg = wire.StatusBadRequest, fmt.Sprintf("unhandled op %s", wire.OpName(req.Op))
	}
}

// associationOp selects the association update for an op/set pair.
func associationOp(ns *namespace, op, set byte) (func([]byte) error, error) {
	if set != 1 && set != 2 {
		return nil, fmt.Errorf("set must be 1 or 2, got %d", set)
	}
	if op == wire.OpAssociationAdd {
		if set == 1 {
			return ns.assoc.InsertS1, nil
		}
		return ns.assoc.InsertS2, nil
	}
	if set == 1 {
		return ns.assoc.DeleteS1, nil
	}
	return ns.assoc.DeleteS2, nil
}

// mergeStatusWire maps a mergeEnvelope error to a wire status,
// mirroring mergeStatusHTTP case for case so the two transports can
// never disagree.
func mergeStatusWire(err error) byte {
	switch mergeStatusHTTP(err) {
	case http.StatusBadRequest:
		return wire.StatusBadRequest
	case http.StatusConflict:
		return wire.StatusConflict
	}
	return wire.StatusInternal
}

// wireUpdateStatus maps a filter update error to a wire status; it
// shares the capacity-error predicate with the HTTP mapping so the
// transports can never disagree on what client.IsConflict reports.
func wireUpdateStatus(err error) byte {
	if isCapacityErr(err) {
		return wire.StatusConflict
	}
	return wire.StatusInternal
}
