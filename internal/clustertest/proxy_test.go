package clustertest

import (
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// echoBackend accepts connections and echoes bytes back.
func echoBackend(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				io.Copy(c, c)
			}(c)
		}
	}()
	return ln
}

// TestProxyFaults exercises every knob against an echo backend: the
// transparent path, injected latency, drop-after-N, blackhole, and
// kill/restore on a stable address.
func TestProxyFaults(t *testing.T) {
	backend := echoBackend(t)
	p, err := NewProxy(backend.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	dial := func() net.Conn {
		t.Helper()
		c, err := net.DialTimeout("tcp", p.Addr(), time.Second)
		if err != nil {
			t.Fatalf("dial proxy: %v", err)
		}
		c.SetDeadline(time.Now().Add(5 * time.Second))
		return c
	}
	echo := func(c net.Conn, msg string) (string, error) {
		if _, err := c.Write([]byte(msg)); err != nil {
			return "", err
		}
		buf := make([]byte, len(msg))
		n, err := io.ReadFull(c, buf)
		return string(buf[:n]), err
	}

	// Transparent.
	c := dial()
	if got, err := echo(c, "hello"); err != nil || got != "hello" {
		t.Fatalf("transparent echo: %q, %v", got, err)
	}
	c.Close()

	// Latency: the echo takes at least the injected delay.
	p.SetLatency(80 * time.Millisecond)
	c = dial()
	start := time.Now()
	if got, err := echo(c, "slow"); err != nil || got != "slow" {
		t.Fatalf("latency echo: %q, %v", got, err)
	}
	if d := time.Since(start); d < 80*time.Millisecond {
		t.Fatalf("echo took %v, want ≥ 80ms of injected latency", d)
	}
	c.Close()
	p.SetLatency(0)

	// DropAfter: exactly n response bytes arrive, then the conn dies.
	p.DropAfter(3)
	c = dial()
	if _, err := c.Write([]byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, _ := io.ReadFull(c, buf[:3])
	if n != 3 || string(buf[:3]) != "abc" {
		t.Fatalf("got %q before the drop, want \"abc\"", buf[:n])
	}
	if _, err := c.Read(buf); err == nil {
		t.Fatal("read past the drop point succeeded")
	}
	c.Close()
	p.DropAfter(0)

	// Blackhole: requests drain, responses never come; only the read
	// deadline gets us out.
	p.SetBlackhole(true)
	c = dial()
	c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := c.Write([]byte("void")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(buf); err == nil {
		t.Fatal("read from a blackhole answered")
	}
	c.Close()
	p.SetBlackhole(false)

	// Kill: dials fail. Restore: same address serves again.
	addr := p.Addr()
	p.Kill()
	if _, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		t.Fatal("dial to a killed proxy succeeded")
	}
	if err := p.Restore(); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if p.Addr() != addr {
		t.Fatalf("address changed across kill/restore: %s → %s", addr, p.Addr())
	}
	c = dial()
	if got, err := echo(c, "back"); err != nil || got != "back" {
		t.Fatalf("echo after restore: %q, %v", got, err)
	}
	c.Close()
}

// TestNodeRestart: a killed node comes back on the same addresses and
// serves again; in-memory state is gone (abrupt kill, no snapshot),
// which is exactly what the chaos suite's anti-entropy merges repair.
func TestNodeRestart(t *testing.T) {
	n := Start(t, Options{Nodes: 1}).Nodes[0]
	httpAddr, shbpAddr := n.HTTPAddr, n.ShBPAddr

	n.Kill()
	if _, err := net.DialTimeout("tcp", shbpAddr, 200*time.Millisecond); err == nil {
		t.Fatal("dial to a killed node succeeded")
	}
	if err := n.Restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if n.HTTPAddr != httpAddr || n.ShBPAddr != shbpAddr {
		t.Fatal("addresses changed across restart")
	}
	conn, err := net.DialTimeout("tcp", shbpAddr, time.Second)
	if err != nil {
		t.Fatalf("dial restarted node: %v", err)
	}
	conn.Close()
	if n.Srv == nil {
		t.Fatal("restarted node has no server")
	}
	// Restart is a no-op on a live node.
	if err := n.Restart(); err != nil {
		t.Fatalf("restart of a live node: %v", err)
	}
}

// TestListenersBelowEphemeralRange: node and proxy listeners take
// ports below the kernel's ephemeral range, where no outgoing
// connection or bind to port 0 can take one while a killed node or
// proxy is down.
func TestListenersBelowEphemeralRange(t *testing.T) {
	b, err := os.ReadFile(portRangeFile)
	if err != nil {
		t.Skipf("no ephemeral port range to check against: %v", err)
	}
	f := strings.Fields(string(b))
	low, err := strconv.Atoi(f[0])
	if err != nil || low <= portFloor {
		t.Skipf("ephemeral range %q leaves no room above %d", b, portFloor)
	}
	n := Start(t, Options{Nodes: 1}).Nodes[0]
	p, err := NewProxy(n.ShBPAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, addr := range []string{n.HTTPAddr, n.ShBPAddr, p.Addr()} {
		_, port, err := net.SplitHostPort(addr)
		if err != nil {
			t.Fatal(err)
		}
		if p, _ := strconv.Atoi(port); p < portFloor || p >= low {
			t.Errorf("listener %s outside [%d, %d)", addr, portFloor, low)
		}
	}
}
