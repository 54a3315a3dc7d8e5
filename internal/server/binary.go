package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

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
// throughput on small batches (gated at ≥ 3× the JSON path's keys/s
// at 256-key batches by client's TestGateShBPvsJSON, -tags perfgate).

// ServeShBP accepts ShBP connections on ln until ctx is cancelled or
// ln fails, serving every namespace. It blocks; run it in its own
// goroutine alongside the HTTP server. When it returns after a
// cancellation, ln and every connection it accepted are closed.
func (s *Server) ServeShBP(ctx context.Context, ln net.Listener) error {
	var (
		mu       sync.Mutex
		conns    = map[net.Conn]struct{}{}
		wg       sync.WaitGroup
		shutdown = make(chan struct{})
	)
	stop := context.AfterFunc(ctx, func() {
		defer close(shutdown)
		ln.Close()
		mu.Lock()
		for c := range conns {
			c.Close()
		}
		mu.Unlock()
	})
	// The shutdown callback runs on its own goroutine, and the loop
	// below can see the cancellation before the callback has closed ln.
	// Once it has started, wait for it, so that the port is closed when
	// ServeShBP returns.
	defer func() {
		if !stop() {
			<-shutdown
		}
	}()
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
