package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"

	"shbf/client"
	"shbf/internal/wire"
)

// children are the processes this run started; stopChildren ends them
// all, also on the error paths.
var (
	childrenMu sync.Mutex
	children   = map[*exec.Cmd]chan struct{}{}
)

// startChild starts cmd, registers it for stopChildren, and returns a
// channel closed once it has exited.
func startChild(cmd *exec.Cmd) (<-chan struct{}, error) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	done := make(chan struct{})
	childrenMu.Lock()
	children[cmd] = done
	childrenMu.Unlock()
	go func() {
		cmd.Wait()
		close(done)
	}()
	return done, nil
}

// stopChild asks cmd to exit (SIGTERM), kills it after a grace period,
// and returns once it has exited.
func stopChild(cmd *exec.Cmd) {
	childrenMu.Lock()
	done, ok := children[cmd]
	delete(children, cmd)
	childrenMu.Unlock()
	if !ok {
		return
	}
	cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		<-done
	}
}

func stopChildren() {
	childrenMu.Lock()
	var cmds []*exec.Cmd
	for c := range children {
		cmds = append(cmds, c)
	}
	childrenMu.Unlock()
	for _, c := range cmds {
		stopChild(c)
	}
}

// daemon is one running shbfd.
type daemon struct {
	cmd      *exec.Cmd
	pid      int
	shbpAddr string
	httpAddr string
	udpAddr  string
	log      *logWriter
}

var (
	reShBP  = regexp.MustCompile(`shbp \(binary protocol\) on (\S+)`)
	reShBU  = regexp.MustCompile(`shbu \(udp ingest\) on (\S+)`)
	reServe = regexp.MustCompile(`serving on (\S+) \(`)
)

// logWriter is the daemon's standard error: it keeps the last lines
// for error reports and takes the listener addresses from the startup
// lines, closing ready at the last of them.
type logWriter struct {
	mu      sync.Mutex
	partial []byte
	tail    []string
	addrs   map[*regexp.Regexp]string
	ready   chan struct{}
}

func (l *logWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.partial = append(l.partial, p...)
	for {
		line, rest, ok := strings.Cut(string(l.partial), "\n")
		if !ok {
			break
		}
		l.partial = []byte(rest)
		if l.tail = append(l.tail, line); len(l.tail) > 50 {
			l.tail = l.tail[1:]
		}
		for _, re := range []*regexp.Regexp{reShBP, reShBU, reServe} {
			if m := re.FindStringSubmatch(line); m != nil && l.addrs[re] == "" {
				l.addrs[re] = m[1]
				if re == reServe {
					close(l.ready)
				}
			}
		}
	}
	return len(p), nil
}

func (l *logWriter) lines() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.tail, " | ")
}

// startDaemon execs shbfd on loopback ports chosen by the kernel and
// returns once its HTTP listener (the last one it opens) is up.
func startDaemon(bin string, udp bool, maxProcs int) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-shbp-addr", "127.0.0.1:0", "-shbp-idle-timeout", "0"}
	if udp {
		args = append(args, "-udp-addr", "127.0.0.1:0")
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", maxProcs))
	lw := &logWriter{addrs: map[*regexp.Regexp]string{}, ready: make(chan struct{})}
	cmd.Stderr = lw
	exited, err := startChild(cmd)
	if err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	select {
	case <-lw.ready:
	case <-exited:
		return nil, fmt.Errorf("shbfd exited during startup: %s", lw.lines())
	case <-time.After(60 * time.Second):
		stopChild(cmd)
		return nil, fmt.Errorf("shbfd did not start within 60s: %s", lw.lines())
	}
	lw.mu.Lock()
	d := &daemon{cmd: cmd, pid: cmd.Process.Pid, log: lw,
		shbpAddr: lw.addrs[reShBP], udpAddr: lw.addrs[reShBU], httpAddr: lw.addrs[reServe]}
	lw.mu.Unlock()
	if d.shbpAddr == "" || (udp && d.udpAddr == "") {
		stopChild(cmd)
		return nil, fmt.Errorf("shbfd did not report its ShBP or UDP address: %s", lw.lines())
	}
	return d, nil
}

func (d *daemon) stop() { stopChild(d.cmd) }

// reqKey is one row of shbf_requests_total.
type reqKey struct{ transport, op, status string }

// transportError is the status recorded for a call that got no answer
// from the daemon; the daemon may or may not have counted it.
const transportError = "transport-error"

// tally counts the requests this process sent the daemon, row for row
// with the daemon's shbf_requests_total. Each caller owns one; they are
// merged after the phase.
type tally map[reqKey]int64

// record counts one call and reports whether it succeeded.
func (t tally) record(transport string, op byte, err error) bool {
	status := wire.StatusName(wire.StatusOK)
	if err != nil {
		var e *client.Error
		if errors.As(err, &e) {
			status = wire.StatusName(e.Status)
		} else {
			status = transportError
		}
	}
	t[reqKey{transport, wire.OpName(op), status}]++
	return err == nil
}

func (t tally) merge(o tally) {
	for k, v := range o {
		t[k] += v
	}
}
