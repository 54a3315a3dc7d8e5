package main

import (
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"shbf"
	"shbf/client"
	"shbf/internal/ingest"
	"shbf/internal/wire"
)

// call is one timed request: when it started and ended relative to the
// phase start, how many keys it carried, and whether it succeeded.
type call struct {
	startNs int64
	endNs   int64
	keys    int32
	ok      bool
}

// replayReq is a request kept, bytes and all, for the traced replays,
// with its client call's start and end relative to the phase start.
type replayReq struct {
	id             uint64
	op             byte
	keys           [][]byte
	startNs, endNs int64
}

// caller is one closed-loop load generator on its own connection.
type caller struct {
	id        int
	w         *workload
	m         *model
	transport string
	rng       *rand.Rand
	set       *client.Set
	assoc     *client.Associator
	ctr       *client.Counter
	wset      *client.Set
	wctr      *client.Counter
	batch     [][]byte
	truth     []uint64 // per key: membership 0/1, region, or count
	bools     []bool
	regions   []shbf.Region
	counts    []int
	seq       uint64
	writeSeq  uint64

	tally      tally
	calls      []call
	ackedMem   []uint64 // first index of each acked membership write
	ackedMult  []uint64 // first index of each acked multiplicity write
	violations violations

	// Traced phases keep every sampleEvery-th request for replay.
	sampled []replayReq
}

// violations collects wrong answers; the first few are kept verbatim.
type violations struct {
	n     int64
	first []string
}

func (v *violations) add(format string, args ...any) {
	v.n++
	if len(v.first) < 5 {
		v.first = append(v.first, fmt.Sprintf(format, args...))
	}
}

func (v *violations) merge(o violations) {
	v.n += o.n
	for _, s := range o.first {
		if len(v.first) < 5 {
			v.first = append(v.first, s)
		}
	}
}

// dialHTTP opens an HTTP caller's own client, limited to one keep-alive
// connection.
func dialHTTP(d *daemon) (*client.Client, error) {
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return client.DialHTTP("http://"+d.httpAddr, hc)
}

func newCaller(id int, w *workload, m *model, seed uint64, c *client.Client) *caller {
	ns, wns := c.Namespace(w.ns), c.Namespace(w.writeNS)
	return &caller{
		id: id, w: w, m: m, transport: w.transport, rng: callerRand(seed, id),
		set: ns.Set(), assoc: ns.Associator(), ctr: ns.Counter(),
		wset: wns.Set(), wctr: wns.Counter(),
		batch: newKeys(w.batch), truth: make([]uint64, w.batch),
		tally: tally{},
	}
}

// next draws the caller's next request from its seeded stream and
// fills c.batch and c.truth.
func (c *caller) next() byte {
	mx, m, keys := c.w.mix, c.m, c.batch
	r := c.rng.IntN(100)
	switch {
	case r < mx.check:
		// Half members, half never-added keys.
		for k := range keys {
			if c.rng.Uint64()&1 == 0 {
				m.g.put(keys[k], spaceMember, c.rng.Uint64N(m.nMember))
				c.truth[k] = 1
			} else {
				m.g.put(keys[k], spaceNonMember, c.rng.Uint64()>>8)
				c.truth[k] = 0
			}
		}
		return wire.OpMembershipContains
	case r < mx.check+mx.classify:
		for k := range keys {
			i := c.rng.Uint64N(m.nAssoc)
			m.g.put(keys[k], spaceAssoc, i)
			c.truth[k] = uint64(m.region(i))
		}
		return wire.OpAssociationQuery
	case r < mx.check+mx.classify+mx.counts:
		for k := range keys {
			i := c.rng.Uint64N(m.nMult)
			m.g.put(keys[k], spaceMult, i)
			c.truth[k] = uint64(m.count(i))
		}
		return wire.OpMultiplicityCount
	default:
		space, op := uint8(spaceWriteMem), byte(wire.OpMembershipAdd)
		if r >= mx.check+mx.classify+mx.counts+mx.writeMem {
			space, op = spaceWriteMult, wire.OpMultiplicityAdd
		}
		base := uint64(c.id)<<40 | c.writeSeq
		c.writeSeq += uint64(len(keys))
		for k := range keys {
			m.g.put(keys[k], space, base+uint64(k))
			c.truth[k] = base
		}
		return op
	}
}

// do sends the current request and keeps the answers for check. It
// returns the call's error.
func (c *caller) do(op byte) (err error) {
	keys := c.batch
	switch op {
	case wire.OpMembershipContains:
		c.bools, err = c.set.Check(keys)
	case wire.OpAssociationQuery:
		c.regions, err = c.assoc.Classify(keys)
	case wire.OpMultiplicityCount:
		c.counts, err = c.ctr.Counts(keys)
	case wire.OpMembershipAdd:
		err = c.wset.AddAll(keys)
	case wire.OpMultiplicityAdd:
		err = c.wctr.AddAll(keys)
	}
	return err
}

// check holds a successful call's answers to the model: no false
// negative for a preloaded member, no association answer that excludes
// the true region, no count below the true count. Acked writes are
// remembered for the verification pass.
func (c *caller) check(op byte) {
	keys := c.batch
	switch op {
	case wire.OpMembershipContains:
		for k, in := range c.bools {
			if c.truth[k] == 1 && !in {
				c.violations.add("false negative for preloaded member %x", keys[k])
			}
		}
	case wire.OpAssociationQuery:
		for k, r := range c.regions {
			if !r.Contains(shbf.Region(c.truth[k])) {
				c.violations.add("association answer %v excludes true region %v for %x", r, shbf.Region(c.truth[k]), keys[k])
			}
		}
	case wire.OpMultiplicityCount:
		for k, n := range c.counts {
			if n < int(c.truth[k]) {
				c.violations.add("count %d below true count %d for %x", n, c.truth[k], keys[k])
			}
		}
	case wire.OpMembershipAdd:
		c.ackedMem = append(c.ackedMem, c.truth[0])
	case wire.OpMultiplicityAdd:
		c.ackedMult = append(c.ackedMult, c.truth[0])
	}
}

// sampleEvery is the replay sampling stride of a traced phase, and
// maxSampled the replays kept per caller.
const (
	sampleEvery = 61
	maxSampled  = 4096
)

// run drives requests until the deadline. Each call's record is
// appended after it returns; the checking above is outside the timed
// interval but inside the closed loop, and gen.late_p99_ms reports it.
func (c *caller) run(t0, deadline time.Time, traced bool) {
	for time.Now().Before(deadline) {
		op := c.next()
		id := uint64(c.id)<<40 | c.seq
		c.seq++
		start := time.Now()
		err := c.do(op)
		end := time.Now()
		ok := c.tally.record(c.transport, op, err)
		if ok {
			c.check(op)
		}
		c.calls = append(c.calls, call{startNs: int64(start.Sub(t0)), endNs: int64(end.Sub(t0)),
			keys: int32(len(c.batch)), ok: ok})
		if traced {
			c.keep(id, op, start.Sub(t0), end.Sub(t0))
		}
	}
}

// keep copies every sampleEvery-th request of a traced phase for the
// replays.
func (c *caller) keep(id uint64, op byte, start, end time.Duration) {
	if c.seq%sampleEvery != 0 || len(c.sampled) >= maxSampled {
		return
	}
	keys := make([][]byte, len(c.batch))
	for k, key := range c.batch {
		keys[k] = append([]byte(nil), key...)
	}
	c.sampled = append(c.sampled, replayReq{id: id, op: op, keys: keys, startNs: int64(start), endNs: int64(end)})
}

// phase is the record of one timed phase.
type phase struct {
	t0         time.Time
	span       time.Duration
	calls      []call // every caller's, in caller order
	sampled    []replayReq
	tally      tally
	violations violations
	ackedMem   []uint64
	ackedMult  []uint64
	lateNs     []float64 // generator lateness: schedule slip (ingest) or closed-loop gaps
	daemon     procSnap  // counter growth over the phase
	gen        procSnap
	ing        *ingestRun
	mallocs    uint64    // generator heap allocations over the phase
	lagMs      []float64 // ingest: flush-to-visible lag per seen flush
	flushNs    []float64 // ingest: AddAll+Flush time per key, per flush
	stealFrac  float64   // share of the host's CPU time the hypervisor took

	// ingestLo, ingestHi bound the spaceIngest indices sent in the phase.
	ingestLo, ingestHi uint64
}

// runPhase runs the callers (and, for ingest, the agent) for dur and
// snapshots both processes' kernel counters around it.
func runPhase(d *daemon, callers []*caller, ing *ingestRun, dur time.Duration, traced bool) (*phase, error) {
	for _, c := range callers {
		c.calls, c.sampled = c.calls[:0], c.sampled[:0]
	}
	d0, err := readProc("/proc", d.pid)
	if err != nil {
		return nil, fmt.Errorf("reading daemon counters: %w", err)
	}
	g0, err := readProc("/proc", selfPID)
	if err != nil {
		return nil, err
	}
	var ingestLo uint64
	if ing != nil {
		ing.startPhase(traced)
		ingestLo = ing.next
	}
	m0 := mallocs()
	st0 := hostSteal()
	t0 := time.Now()
	deadline := t0.Add(dur)
	var wg sync.WaitGroup
	for _, c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if ing != nil {
				ing.read(c, t0, deadline, traced)
			} else {
				c.run(t0, deadline, traced)
			}
		}()
	}
	if ing != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ing.flushLoop(t0, dur)
		}()
	}
	wg.Wait()
	span := time.Since(t0)
	st1 := hostSteal()
	m1 := mallocs()
	d1, err := readProc("/proc", d.pid)
	if err != nil {
		return nil, fmt.Errorf("reading daemon counters: %w", err)
	}
	g1, err := readProc("/proc", selfPID)
	if err != nil {
		return nil, err
	}
	p := &phase{
		t0: t0, span: span, tally: tally{}, daemon: d1.sub(d0), gen: g1.sub(g0), ing: ing, mallocs: m1 - m0,
		stealFrac: float64(st1-st0) / float64(int64(span)*int64(runtime.NumCPU())),
	}
	for _, c := range callers {
		p.calls = append(p.calls, c.calls...)
		p.sampled = append(p.sampled, c.sampled...)
		p.tally.merge(c.tally)
		c.tally = tally{}
		p.violations.merge(c.violations)
		c.violations = violations{}
		p.ackedMem = append(p.ackedMem, c.ackedMem...)
		p.ackedMult = append(p.ackedMult, c.ackedMult...)
		for i := 1; i < len(c.calls); i++ {
			p.lateNs = append(p.lateNs, float64(c.calls[i].startNs-c.calls[i-1].endNs))
		}
	}
	if ing != nil {
		p.lateNs = slices.Clone(ing.lateNs)
		p.flushNs = slices.Clone(ing.flushNs)
		p.lagMs = ing.lagMs()
		p.ingestLo, p.ingestHi = ingestLo, ing.next
		ing.tee.armed = false
	}
	return p, nil
}

// hostSteal is the CPU time, in ns, the hypervisor has taken from this
// machine's CPUs (the steal column of /proc/stat); 0 where unknown.
func hostSteal() uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return ticks * 1e7 // USER_HZ is 100 on Linux
}

// --- ingest -----------------------------------------------------------------

// flushRec is one agent flush: which keys it carried, when it
// finished sending them, and when a read first saw them.
type flushRec struct {
	lo, hi uint64 // spaceIngest key indices
	doneNs int64
	seenNs int64 // 0 until seen
}

// ingestRun is the open-loop half of the ingest workload: an Agent
// that receives ingestRate keys/s and flushes every flushEvery to the
// daemon's UDP listener, plus the bookkeeping that turns the reader's
// answers into flush-to-visible lag.
type ingestRun struct {
	w     *workload
	m     *model
	agent *ingest.Agent
	conn  net.Conn
	tee   *teeWriter

	mu      sync.Mutex
	flushes []flushRec
	next    uint64 // first spaceIngest index not yet sent

	lateNs  []float64
	flushNs []float64 // AddAll+Flush time per key, per flush
}

// teeWriter passes datagrams to the socket and, when armed, keeps
// copies for the ingest.Receiver replay.
type teeWriter struct {
	w     net.Conn
	keep  int
	kept  [][]byte
	armed bool
}

func (t *teeWriter) Write(p []byte) (int, error) {
	if t.armed && len(t.kept) < t.keep {
		t.kept = append(t.kept, append([]byte(nil), p...))
	}
	return t.w.Write(p)
}

func newIngestRun(w *workload, m *model, d *daemon, seed uint64) (*ingestRun, error) {
	conn, err := net.Dial("udp", d.udpAddr)
	if err != nil {
		return nil, err
	}
	tee := &teeWriter{w: conn, keep: 4096}
	agent, err := ingest.NewAgent(tee, ingest.AgentConfig{Namespace: w.ns, Source: mix64(seed) | 1, Mode: ingest.ModeKeys})
	if err != nil {
		conn.Close()
		return nil, err
	}
	return &ingestRun{w: w, m: m, agent: agent, conn: conn, tee: tee}, nil
}

// startPhase clears the per-phase records before a phase's goroutines
// start; a traced phase also keeps copies of the datagrams it sends.
func (ir *ingestRun) startPhase(traced bool) {
	ir.tee.armed = traced
	ir.flushes = ir.flushes[:0]
	ir.lateNs, ir.flushNs = ir.lateNs[:0], ir.flushNs[:0]
}

// flushLoop runs the open-loop schedule: flush n is due at
// t0 + n×flushEvery and carries the keys that arrived in the interval
// before it. A late flush still carries exactly its keys, so the number
// of keys sent depends on dur alone.
func (ir *ingestRun) flushLoop(t0 time.Time, dur time.Duration) {
	perFlush := ir.perFlush()
	ticks := int(dur / ir.w.flushEvery)
	b := newKeys(int(perFlush))
	for n := 1; n <= ticks; n++ {
		due := t0.Add(time.Duration(n) * ir.w.flushEvery)
		time.Sleep(time.Until(due))
		start := time.Now()
		ir.lateNs = append(ir.lateNs, float64(start.Sub(due)))
		lo := ir.next
		for j := range perFlush {
			ir.m.g.put(b[j], spaceIngest, lo+j)
		}
		err := ir.agent.AddAll(b)
		if err == nil {
			err = ir.agent.Flush()
		}
		done := time.Now()
		if err != nil {
			// A send error loses the flush; the verification pass
			// counts its keys as lost.
			fmt.Printf("ingest: flush %d: %v\n", n, err)
		}
		ir.flushNs = append(ir.flushNs, float64(done.Sub(start))/float64(perFlush))
		ir.mu.Lock()
		ir.flushes = append(ir.flushes, flushRec{lo: lo, hi: lo + perFlush, doneNs: int64(done.Sub(t0))})
		ir.next = lo + perFlush
		ir.mu.Unlock()
	}
}

// Reader probe layout: each request probes up to readerPending unseen
// flushes with probesPerFlush keys each; the rest of the batch re-reads
// keys of the latest flushes.
const (
	readerPending  = 8
	probesPerFlush = 16
)

// read is the ingest workload's closed-loop reader: 256-key Check
// requests over keys from recent flushes. A flush counts as seen when
// every probe of it answers present; its lag runs from the end of the
// flush to the end of that read.
func (ir *ingestRun) read(c *caller, t0, deadline time.Time, traced bool) {
	keys := c.batch
	probes := make([]int, len(keys)) // index into pending per key, -1 = filler
	for time.Now().Before(deadline) {
		ir.mu.Lock()
		nf := len(ir.flushes)
		pending := make([]int, 0, readerPending)
		for f := nf - 1; f >= 0 && f >= nf-100 && len(pending) < readerPending; f-- {
			if ir.flushes[f].seenNs == 0 {
				pending = append(pending, f)
			}
		}
		k := 0
		for i, f := range pending {
			fr := ir.flushes[f]
			for range probesPerFlush {
				ir.m.g.put(keys[k], spaceIngest, fr.lo+c.rng.Uint64N(fr.hi-fr.lo))
				probes[k] = i
				k++
			}
		}
		for ; k < len(keys); k++ {
			probes[k] = -1
			if nf == 0 {
				ir.m.g.put(keys[k], spaceMember, c.rng.Uint64N(ir.m.nMember))
				continue
			}
			fr := ir.flushes[nf-1-c.rng.IntN(min(nf, 4))]
			ir.m.g.put(keys[k], spaceIngest, fr.lo+c.rng.Uint64N(fr.hi-fr.lo))
		}
		ir.mu.Unlock()

		id := uint64(c.id)<<40 | c.seq
		c.seq++
		start := time.Now()
		res, err := c.set.Check(keys)
		end := time.Now()
		ok := c.tally.record("shbp", wire.OpMembershipContains, err)
		c.calls = append(c.calls, call{startNs: int64(start.Sub(t0)), endNs: int64(end.Sub(t0)),
			keys: int32(len(keys)), ok: ok})
		if traced {
			c.keep(id, wire.OpMembershipContains, start.Sub(t0), end.Sub(t0))
		}
		if !ok {
			continue
		}
		var missed [readerPending]bool
		for k, in := range res {
			if probes[k] >= 0 && !in {
				missed[probes[k]] = true
			}
		}
		ir.mu.Lock()
		for i, f := range pending {
			if !missed[i] && ir.flushes[f].seenNs == 0 {
				ir.flushes[f].seenNs = int64(end.Sub(t0))
			}
		}
		ir.mu.Unlock()
	}
}

func (ir *ingestRun) perFlush() uint64 {
	return uint64(float64(ir.w.ingestRate) * ir.w.flushEvery.Seconds())
}

// lagMs is each seen flush's flush-to-visible lag in milliseconds.
func (ir *ingestRun) lagMs() []float64 {
	ir.mu.Lock()
	defer ir.mu.Unlock()
	var out []float64
	for _, f := range ir.flushes {
		if f.seenNs != 0 {
			out = append(out, float64(f.seenNs-f.doneNs)/1e6)
		}
	}
	return out
}

func (ir *ingestRun) close() { ir.conn.Close() }
