package clustertest

import (
	"io"
	"net"
	"sync"
	"time"
)

// Proxy is a fault-injecting TCP proxy for one backend: tests dial the
// proxy's address instead of the daemon's and then turn the network
// hostile — added latency, a blackhole that accepts bytes and answers
// nothing, connections cut after N bytes of response, or the listener
// torn down and later restored on the same address. It is how the
// client's deadline, retry and failover paths are exercised against
// real sockets without leaving the test process.
//
// All knobs are safe for concurrent use and apply to new I/O as it
// happens: existing connections pick up latency/blackhole changes on
// their next chunk. The zero state forwards transparently.
type Proxy struct {
	backend string
	ln      net.Listener

	mu        sync.Mutex
	latency   time.Duration // added before each response chunk
	blackhole bool          // swallow responses (requests still drain)
	dropAfter int64         // cut the conn after this many response bytes (0 = never)
	conns     map[net.Conn]struct{}
	killed    bool
	closed    bool
}

// NewProxy starts a proxy on a fresh loopback port forwarding to
// backend ("host:port").
func NewProxy(backend string) (*Proxy, error) {
	ln, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	p := &Proxy{backend: backend, ln: ln, conns: make(map[net.Conn]struct{})}
	go p.accept(ln)
	return p, nil
}

// Addr returns the proxy's listen address — the address the client
// under test dials. It stays stable across Kill/Restore.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetLatency injects d of delay before each response chunk reaches the
// client (0 restores transparency).
func (p *Proxy) SetLatency(d time.Duration) {
	p.mu.Lock()
	p.latency = d
	p.mu.Unlock()
}

// SetBlackhole, when on, keeps accepting and draining client bytes but
// delivers no response bytes — the hung-server shape that only a
// deadline gets a client out of.
func (p *Proxy) SetBlackhole(on bool) {
	p.mu.Lock()
	p.blackhole = on
	p.mu.Unlock()
}

// DropAfter cuts each connection after n response bytes have been
// delivered to the client (0 = never) — the mid-frame failure shape.
func (p *Proxy) DropAfter(n int64) {
	p.mu.Lock()
	p.dropAfter = n
	p.mu.Unlock()
}

// CloseConns abruptly closes every open proxied connection (the
// listener stays up, so the next dial succeeds) — a connection reset,
// the failure a retry policy recovers from.
func (p *Proxy) CloseConns() {
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
}

// Kill tears the listener down and cuts every connection: dials to the
// proxy now fail outright, as they would against a dead node. Restore
// undoes it.
func (p *Proxy) Kill() {
	p.mu.Lock()
	if p.killed || p.closed {
		p.mu.Unlock()
		return
	}
	p.killed = true
	ln := p.ln
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	ln.Close()
}

// Restore re-binds the same address after a Kill.
func (p *Proxy) Restore() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.killed || p.closed {
		return nil
	}
	ln, err := net.Listen("tcp", p.ln.Addr().String())
	if err != nil {
		return err
	}
	p.ln, p.killed = ln, false
	go p.accept(ln)
	return nil
}

// Close shuts the proxy down for good.
func (p *Proxy) Close() {
	p.mu.Lock()
	p.closed = true
	ln := p.ln
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	ln.Close()
}

// accept runs one listener's accept loop; it exits when the listener
// closes (Kill or Close).
func (p *Proxy) accept(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go p.serve(conn)
	}
}

// track registers a connection for CloseConns/Kill, or closes it
// immediately when the proxy is already down.
func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.killed || p.closed {
		c.Close()
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

// serve proxies one client connection to the backend, applying the
// fault knobs to the response direction (requests always drain, so the
// backend never sees the faults — they are the network's, not the
// daemon's).
func (p *Proxy) serve(client net.Conn) {
	if !p.track(client) {
		return
	}
	defer p.untrack(client)
	defer client.Close()
	backend, err := net.DialTimeout("tcp", p.backend, 5*time.Second)
	if err != nil {
		return
	}
	if !p.track(backend) {
		return
	}
	defer p.untrack(backend)
	defer backend.Close()

	done := make(chan struct{}, 2)
	// Client → backend: transparent.
	go func() {
		io.Copy(backend, client)
		if tc, ok := backend.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		done <- struct{}{}
	}()
	// Backend → client: the faulted direction.
	go func() {
		var delivered int64
		buf := make([]byte, 32<<10)
		for {
			n, err := backend.Read(buf)
			if n > 0 {
				p.mu.Lock()
				latency, blackhole, dropAfter := p.latency, p.blackhole, p.dropAfter
				p.mu.Unlock()
				if latency > 0 {
					time.Sleep(latency)
				}
				if blackhole {
					// Swallow; keep draining so the backend finishes
					// its write and moves on.
					continue
				}
				chunk := buf[:n]
				if dropAfter > 0 && delivered+int64(n) >= dropAfter {
					chunk = chunk[:dropAfter-delivered]
				}
				if len(chunk) > 0 {
					if _, werr := client.Write(chunk); werr != nil {
						break
					}
					delivered += int64(len(chunk))
				}
				if dropAfter > 0 && delivered >= dropAfter {
					client.Close()
					backend.Close()
					break
				}
			}
			if err != nil {
				break
			}
		}
		if tc, ok := client.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		done <- struct{}{}
	}()
	<-done
	<-done
}
