package main

// The traced run's per-layer budget. After the timed phases, a sample
// of the traced phase's own requests is replayed, bytes and all,
// through each layer's public functions in isolation: the wire codec,
// an in-process server.Server fed over net.Pipe, its HTTP handler, a
// shbf.New copy of the tenant's filters, the digest, a loopback echo
// peer, and the ingest agent and receiver. Every replay is a span whose
// parent is the request's root span (its client call) and that carries
// the request's id; spans are kept in memory and written out at the
// end. Per-request figures are medians over the sample.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"shbf"
	"shbf/client"
	"shbf/internal/hashing"
	"shbf/internal/ingest"
	"shbf/internal/server"
	"shbf/internal/wire"
)

// span is one traced interval: a root span is a client call of the
// traced phase; a child is one layer's replay of that request.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced phase started
	End    int64  `json:"end_ns"`
	Reps   int    `json:"reps,omitempty"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (tr *tracer) add(s span) uint64 {
	s.ID = uint64(len(tr.spans)) + 1
	tr.spans = append(tr.spans, s)
	return s.ID
}

// time runs fn reps times as one child span of parent and returns the
// time per run in nanoseconds.
func (tr *tracer) time(name string, parent, req uint64, reps int, fn func()) float64 {
	start := time.Now()
	for range reps {
		fn()
	}
	end := time.Now()
	tr.add(span{Parent: parent, Req: req, Name: name, Start: int64(start.Sub(tr.t0)), End: int64(end.Sub(tr.t0)), Reps: reps})
	return float64(end.Sub(start)) / float64(reps)
}

func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replay is one sampled request prepared for the layer replays.
type replay struct {
	replayReq
	root  uint64
	reps  int // 1 for writes, which must not be applied repeatedly
	req   wire.Request
	frame []byte // request frame, length prefix included
	resp  []byte // the in-process server's response payload
}

// replaySize is how many sampled requests are replayed and how many
// times each read is repeated, so a replay pass stays around a second.
func replaySize(batch int) (n, reps int) {
	if batch >= 1024 {
		return 48, 3
	}
	return 256, 8
}

// pickSample takes n requests spread evenly over the traced phase's
// sample.
func pickSample(all []replayReq, n int) []replayReq {
	if len(all) <= n {
		return all
	}
	out := make([]replayReq, n)
	for i := range out {
		out[i] = all[i*len(all)/n]
	}
	return out
}

func perLayer(w *workload, m *model, seed uint64, untraced, traced *phase, all []series, outDir string) (map[string]metric, error) {
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	tr := &tracer{t0: traced.t0}
	n, reps := replaySize(w.batch)
	sample := pickSample(traced.sampled, n)
	if len(sample) == 0 {
		return nil, errors.New("traced phase kept no requests to replay")
	}
	fmt.Printf("replays: %d of the traced half's %d requests (one in %d kept), reads repeated %d times; per-request figures are medians over them\n",
		len(sample), len(traced.calls), sampleEvery, reps)

	// Client: root spans, allocations, tracing overhead.
	rs := make([]*replay, len(sample))
	var callNs []float64
	for i, r := range sample {
		rp := &replay{replayReq: r, reps: reps}
		rp.root = tr.add(span{Req: r.id, Name: "client.call", Start: r.startNs, End: r.endNs})
		rp.req = wire.Request{Op: r.op, Namespace: w.ns, KeyWidth: keyLen, Keys: r.keys}
		if r.op == wire.OpMembershipAdd || r.op == wire.OpMultiplicityAdd {
			rp.req.Namespace, rp.reps = w.writeNS, 1
		}
		rs[i] = rp
		callNs = append(callNs, float64(r.endNs-r.startNs))
	}
	put("client.call_ns", median(callNs), "ns")
	put("client.allocs_per_req", float64(untraced.mallocs)/float64(len(untraced.calls)), "allocs/req")
	put("trace.overhead_p50_us", callP50us(traced)-callP50us(untraced), "us")

	// Wire codec on the requests' own bytes.
	var encReq, decReq, reqBytes []float64
	for _, rp := range rs {
		var err error
		if rp.frame, err = wire.AppendRequest(nil, &rp.req); err != nil {
			return nil, fmt.Errorf("encoding request %d: %w", rp.id, err)
		}
		buf := make([]byte, 0, len(rp.frame))
		encReq = append(encReq, tr.time("wire.encode_req", rp.root, rp.id, rp.reps, func() {
			buf, _ = wire.AppendRequest(buf[:0], &rp.req)
		}))
		var dec wire.Request
		decReq = append(decReq, tr.time("wire.decode_req", rp.root, rp.id, rp.reps, func() {
			wire.DecodeRequest(&dec, rp.frame[4:])
		}))
		reqBytes = append(reqBytes, float64(len(rp.frame)))
	}
	put("wire.encode_req_ns", median(encReq), "ns")
	put("wire.decode_req_ns", median(decReq), "ns")
	put("wire.req_bytes", median(reqBytes), "bytes")

	// In-process servers, preloaded like the daemon: the default Config
	// (frames, then the HTTP handler), then a NoMetrics twin fed the same
	// frames. One at a time, so the generator holds one tenant copy.
	def, err := preloadedServer(server.DefaultConfig(), w, m)
	if err != nil {
		return nil, err
	}
	frameNs, err := replayFrames(def, rs, tr, "server.frame", true)
	if err != nil {
		def.close()
		return nil, err
	}
	// A second pass that keeps nothing counts the allocations.
	m0 := mallocs()
	if _, err := replayFrames(def, rs, tr, "server.frame_allocs", false); err != nil {
		def.close()
		return nil, err
	}
	serverAllocs := float64(mallocs()-m0) / float64(replayedFrames(rs))
	httpNs, httpAllocs, err := replayHTTP(def.srv, rs, tr)
	def.close()
	if err != nil {
		return nil, err
	}
	// Collect the dropped copy now, so the next one reuses its memory
	// instead of growing the heap to twice the live size.
	runtime.GC()
	noMet := server.DefaultConfig()
	noMet.NoMetrics = true
	bare, err := preloadedServer(noMet, w, m)
	if err != nil {
		return nil, err
	}
	bareNs, err := replayFrames(bare, rs, tr, "server.frame_nometrics", false)
	bare.close()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	put("server.frame_ns", median(frameNs), "ns")
	put("server.allocs_per_req", serverAllocs, "allocs/req")
	put("metrics.overhead_ns_per_req", median(frameNs)-median(bareNs), "ns")
	put("server.http_ns", httpNs, "ns")
	put("server.http_allocs_per_req", httpAllocs, "allocs/req")

	var encResp, decResp, respBytes []float64
	for _, rp := range rs {
		var resp wire.Response
		if err := wire.DecodeResponse(&resp, rp.resp); err != nil || resp.Status != wire.StatusOK {
			return nil, fmt.Errorf("in-process replay of request %d: status %s: %v", rp.id, wire.StatusName(resp.Status), err)
		}
		buf := make([]byte, 0, len(rp.resp)+4)
		encResp = append(encResp, tr.time("wire.encode_resp", rp.root, rp.id, reps, func() {
			buf, _ = wire.AppendResponse(buf[:0], &resp)
		}))
		var dec wire.Response
		decResp = append(decResp, tr.time("wire.decode_resp", rp.root, rp.id, reps, func() {
			wire.DecodeResponse(&dec, rp.resp)
		}))
		respBytes = append(respBytes, float64(len(rp.resp)+4))
	}
	put("wire.encode_resp_ns", median(encResp), "ns")
	put("wire.decode_resp_ns", median(decResp), "ns")
	put("wire.resp_bytes", median(respBytes), "bytes")

	// The sharded filters alone, on a shbf.New copy of the tenant.
	sh, err := shardedLayer(w, m, seed, rs, tr, frameNs)
	if err != nil {
		return nil, err
	}
	for k, v := range sh {
		out[k] = v
	}

	var digestNs []float64
	for _, rp := range rs {
		var sink uint64
		ns := tr.time("hashing.digest", rp.root, rp.id, reps, func() {
			for _, k := range rp.keys {
				sink += hashing.KeyDigest(k).Shard(0xffff)
			}
		})
		digestNs = append(digestNs, ns/float64(len(rp.keys)))
	}
	put("hashing.digest_ns_per_key", median(digestNs), "ns/key")

	rtt, err := echoRTT(rs, tr, reps)
	if err != nil {
		return nil, err
	}
	put("kernel.echo_rtt_ns", rtt, "ns")

	// Kernel counters over the untraced phase, per request.
	reqs := float64(len(untraced.calls))
	put("kernel.daemon_read_syscalls_per_req", float64(untraced.daemon.Syscr)/reqs, "syscalls/req")
	put("kernel.daemon_write_syscalls_per_req", float64(untraced.daemon.Syscw)/reqs, "syscalls/req")
	put("kernel.daemon_ctx_switches_per_req", float64(untraced.daemon.CtxSw)/reqs, "switches/req")
	put("kernel.daemon_runq_wait_ns_per_req", float64(untraced.daemon.RunqNs)/reqs, "ns/req")
	put("kernel.gen_cpu_ns_per_req", float64(untraced.gen.CPUNs)/reqs, "ns/req")
	put("kernel.gen_ctx_switches_per_req", float64(untraced.gen.CtxSw)/reqs, "switches/req")
	put("kernel.gen_runq_wait_ns_per_req", float64(untraced.gen.RunqNs)/reqs, "ns/req")

	// Daemon gauges after the run.
	nsLabel := w.ns
	if nsLabel == "" {
		nsLabel = server.DefaultNamespace
	}
	fill, _ := gauge(all, "shbf_namespace_fill_ratio", map[string]string{"namespace": nsLabel, "filter": "membership"})
	estFPR, _ := gauge(all, "shbf_namespace_estimated_fpr", map[string]string{"namespace": nsLabel})
	put("core.fill_ratio", fill, "fraction")
	put("core.est_fpr", estFPR, "fraction")
	put("ingest.dropped", sumSeries(all, "shbf_udp_datagrams_dropped_total"), "datagrams")
	lost, _ := gauge(all, "shbf_udp_lost_datagrams", nil)
	put("ingest.lost", lost, "datagrams")
	reord, _ := gauge(all, "shbf_udp_reordered_total", nil)
	put("ingest.reordered", reord, "datagrams")

	ing, err := ingestLayer(w, rs, traced, tr)
	if err != nil {
		return nil, err
	}
	for k, v := range ing {
		out[k] = v
	}
	late, _, _ := percentile(untraced.lateNs, 0.99)
	put("gen.late_p99_ms", late/1e6, "ms")

	// The server's part is its time on the transport the run used.
	serverNs := out["server.frame_ns"].Value
	if w.transport == "http" {
		serverNs = out["server.http_ns"].Value
	}
	res, frac := budget{
		CallNs:       out["client.call_ns"].Value,
		EncodeReqNs:  out["wire.encode_req_ns"].Value,
		EchoRTTNs:    rtt,
		FrameNs:      serverNs,
		DecodeRespNs: out["wire.decode_resp_ns"].Value,
	}.residual()
	put("residual_ns", res, "ns")
	put("residual_frac", frac, "fraction")

	path := filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans %d written to %s\n", len(tr.spans), path)
	return out, nil
}

// callP50us is the median client call time of a phase in µs.
func callP50us(p *phase) float64 {
	lat := make([]float64, len(p.calls))
	for i, c := range p.calls {
		lat[i] = float64(c.endNs-c.startNs) / 1e3
	}
	return median(lat)
}

func replayedFrames(rs []*replay) int {
	n := 0
	for _, rp := range rs {
		n += rp.reps
	}
	return n
}

// --- in-process server over net.Pipe ----------------------------------------

// pipeListener hands ServeShBP the server ends of net.Pipe pairs.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// pipeServer is an in-process server.Server serving ShBP on one pipe.
type pipeServer struct {
	srv    *server.Server
	conn   net.Conn
	br     *bufio.Reader
	buf    []byte
	cancel context.CancelFunc
	done   chan struct{}
}

func newPipeServer(cfg server.Config) (*pipeServer, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	ps := &pipeServer{srv: srv, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(ps.done)
		srv.ServeShBP(ctx, ln)
	}()
	cli, srvEnd := net.Pipe()
	select {
	case ln.conns <- srvEnd:
	case <-ps.done:
		return nil, errors.New("in-process server stopped before accepting")
	}
	ps.conn, ps.br = cli, bufio.NewReaderSize(cli, 64<<10)
	return ps, nil
}

// roundTrip sends one request frame and returns the response payload
// (valid until the next call).
func (ps *pipeServer) roundTrip(frame []byte) ([]byte, error) {
	if _, err := ps.conn.Write(frame); err != nil {
		return nil, err
	}
	var err error
	ps.buf, err = wire.ReadFrame(ps.br, ps.buf)
	return ps.buf, err
}

func (ps *pipeServer) close() {
	ps.conn.Close()
	ps.cancel()
	<-ps.done
}

// preloadPipe gives an in-process server the daemon's tenants and
// preload, as ShBP frames.
func preloadPipe(ps *pipeServer, w *workload, m *model) error {
	for _, cfg := range []*client.NamespaceConfig{w.nsConfig, {Name: w.writeNS}} {
		if cfg != nil && cfg.Name != "" {
			if err := ps.srv.CreateNamespace(*cfg); err != nil {
				return err
			}
		}
	}
	b := newKeys(preloadBatch)
	keys := make([][]byte, 0, preloadBatch)
	var frame []byte
	for _, p := range preloadBatches(m) {
		req := wire.Request{Op: p.op, Set: byte(p.set), Namespace: w.ns, KeyWidth: keyLen, Keys: p.fill(m, b, keys)}
		var err error
		if frame, err = wire.AppendRequest(frame[:0], &req); err != nil {
			return err
		}
		resp, err := ps.roundTrip(frame)
		if err != nil {
			return err
		}
		if resp[0] != wire.StatusOK {
			return fmt.Errorf("in-process preload: %s answered %s", wire.OpName(p.op), wire.StatusName(resp[0]))
		}
	}
	return nil
}

// preloadedServer builds an in-process server from cfg and gives it
// the daemon's tenants and preload.
func preloadedServer(cfg server.Config, w *workload, m *model) (*pipeServer, error) {
	ps, err := newPipeServer(cfg)
	if err != nil {
		return nil, fmt.Errorf("in-process server: %w", err)
	}
	if err := preloadPipe(ps, w, m); err != nil {
		ps.close()
		return nil, fmt.Errorf("in-process server: %w", err)
	}
	return ps, nil
}

// replayFrames sends every sampled request's frame to ps, reads
// repeated rp.reps times, as spans named name; with keep, each
// request's response payload is kept in rp.resp. It returns the time
// per frame of each request.
func replayFrames(ps *pipeServer, rs []*replay, tr *tracer, name string, keep bool) ([]float64, error) {
	var per []float64
	for _, rp := range rs {
		var rerr error
		var last []byte
		per = append(per, tr.time(name, rp.root, rp.id, rp.reps, func() {
			var err error
			if last, err = ps.roundTrip(rp.frame); err != nil {
				rerr = err
			}
		}))
		if rerr != nil {
			return nil, rerr
		}
		if keep {
			rp.resp = append([]byte(nil), last...)
		}
	}
	return per, nil
}

// --- HTTP handler -------------------------------------------------------------

// captured is one HTTP request as the client package encoded it.
type captured struct {
	method, target string
	header         http.Header
	body           []byte
}

// captureTransport serves the client's requests from an in-process
// handler and records them.
type captureTransport struct {
	h    http.Handler
	last captured
}

func (c *captureTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	var body []byte
	if r.Body != nil {
		var err error
		if body, err = io.ReadAll(r.Body); err != nil {
			return nil, err
		}
		r.Body.Close()
	}
	c.last = captured{method: r.Method, target: r.URL.RequestURI(), header: r.Header.Clone(), body: body}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(r.Method, r.URL.RequestURI(), bytes.NewReader(body))
	req.Header = r.Header.Clone()
	c.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// replayHTTP captures each sampled request's JSON encoding through the
// shipped HTTP client, then times Server.Handler().ServeHTTP on it
// with a recorder, and counts its allocations.
func replayHTTP(srv *server.Server, rs []*replay, tr *tracer) (ns, allocs float64, err error) {
	h := srv.Handler()
	ct := &captureTransport{h: h}
	c, err := client.DialHTTP("http://in-process", &http.Client{Transport: ct})
	if err != nil {
		return 0, 0, err
	}
	caps := make([]captured, len(rs))
	for i, rp := range rs {
		ns := c.Namespace(rp.req.Namespace)
		switch rp.op {
		case wire.OpMembershipContains:
			_, err = ns.Set().Check(rp.keys)
		case wire.OpAssociationQuery:
			_, err = ns.Associator().Classify(rp.keys)
		case wire.OpMultiplicityCount:
			_, err = ns.Counter().Counts(rp.keys)
		case wire.OpMembershipAdd:
			err = ns.Set().AddAll(rp.keys)
		case wire.OpMultiplicityAdd:
			err = ns.Counter().AddAll(rp.keys)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("HTTP replay of request %d: %w", rp.id, err)
		}
		caps[i] = ct.last
	}
	newReq := func(cp captured) (*http.Request, *httptest.ResponseRecorder) {
		r := httptest.NewRequest(cp.method, cp.target, bytes.NewReader(cp.body))
		r.Header = cp.header.Clone()
		return r, httptest.NewRecorder()
	}
	var per []float64
	for i, rp := range rs {
		reqs := make([]*http.Request, rp.reps)
		recs := make([]*httptest.ResponseRecorder, rp.reps)
		for j := range reqs {
			reqs[j], recs[j] = newReq(caps[i])
		}
		j := 0
		per = append(per, tr.time("server.http", rp.root, rp.id, rp.reps, func() {
			h.ServeHTTP(recs[j], reqs[j])
			j++
		}))
	}
	// One more pass, reads only, for the allocation count.
	var reqs []*http.Request
	var recs []*httptest.ResponseRecorder
	for i, rp := range rs {
		if rp.reps > 1 {
			r, rec := newReq(caps[i])
			reqs, recs = append(reqs, r), append(recs, rec)
		}
	}
	if len(reqs) == 0 {
		return median(per), 0, nil
	}
	m0 := mallocs()
	for j := range reqs {
		h.ServeHTTP(recs[j], reqs[j])
	}
	return median(per), float64(mallocs()-m0) / float64(len(reqs)), nil
}

// --- sharded filters ------------------------------------------------------------

// shardedLayer builds shbf.New copies of the read tenant's three
// filters from its Spec, preloads them like the daemon (timing the
// membership AddAll batches), then times the sampled requests' filter
// calls per key. Ops the workload does not send are timed on batches
// of its size drawn from the preloaded keys. dispatch overhead is the
// in-process frame time minus the filter call on the same request.
func shardedLayer(w *workload, m *model, seed uint64, rs []*replay, tr *tracer, frameNs []float64) (map[string]metric, error) {
	memSpec, assocSpec, multSpec := w.config().Specs()
	memF, err := shbf.New(memSpec)
	if err != nil {
		return nil, err
	}
	assocF, err := shbf.New(assocSpec)
	if err != nil {
		return nil, err
	}
	multF, err := shbf.New(multSpec)
	if err != nil {
		return nil, err
	}
	mem := memF.(*shbf.ShardedMembership)
	assoc := assocF.(*shbf.ShardedAssociation)
	mult := multF.(*shbf.ShardedMultiplicity)

	var addNs []float64
	var wg sync.WaitGroup
	var errs [2]error
	wg.Add(1)
	go func() {
		defer wg.Done()
		b := newKeys(preloadBatch)
		for _, p := range preloadBatches(m) {
			if p.op != wire.OpMultiplicityAdd {
				continue
			}
			for i := p.lo; i < p.hi && errs[1] == nil; i++ {
				m.g.put(b[0], spaceMult, i)
				for range m.count(i) {
					if errs[1] = mult.Insert(b[0]); errs[1] != nil {
						break
					}
				}
			}
		}
	}()
	b := newKeys(preloadBatch)
	for _, p := range preloadBatches(m) {
		switch p.op {
		case wire.OpMembershipAdd:
			keys := p.fill(m, b, nil)
			start := time.Now()
			errs[0] = mem.AddAll(keys)
			addNs = append(addNs, float64(time.Since(start))/float64(len(keys)))
		case wire.OpAssociationAdd:
			for _, k := range p.fill(m, b, nil) {
				if p.set == 1 {
					errs[0] = assoc.InsertS1(k)
				} else {
					errs[0] = assoc.InsertS2(k)
				}
				if errs[0] != nil {
					break
				}
			}
		}
		if errs[0] != nil {
			break
		}
	}
	wg.Wait()
	if err := errors.Join(errs[0], errs[1]); err != nil {
		return nil, fmt.Errorf("sharded copy preload: %w", err)
	}

	bools := make([]bool, 0, w.batch)
	regions := make([]shbf.Region, 0, w.batch)
	counts := make([]int, 0, w.batch)
	call := func(op byte, keys [][]byte) {
		switch op {
		case wire.OpMembershipContains:
			bools = mem.ContainsAll(bools[:0], keys)
		case wire.OpAssociationQuery:
			regions = assoc.QueryAll(regions[:0], keys)
		case wire.OpMultiplicityCount:
			counts = mult.CountAll(counts[:0], keys)
		case wire.OpMembershipAdd:
			mem.AddAll(keys)
		case wire.OpMultiplicityAdd:
			mult.AddAll(keys)
		}
	}
	perKey := map[byte][]float64{}
	var dispatch []float64
	for i, rp := range rs {
		ns := tr.time("sharded."+wire.OpName(rp.op), rp.root, rp.id, rp.reps, func() { call(rp.op, rp.keys) })
		dispatch = append(dispatch, frameNs[i]-ns)
		perKey[rp.op] = append(perKey[rp.op], ns/float64(len(rp.keys)))
	}
	// Reads the workload does not send are timed on batches of its
	// size drawn from the preloaded keys.
	rng := callerRand(seed, 2000)
	reads := []struct {
		op    byte
		space uint8
		n     uint64
	}{
		{wire.OpMembershipContains, spaceMember, m.nMember},
		{wire.OpAssociationQuery, spaceAssoc, m.nAssoc},
		{wire.OpMultiplicityCount, spaceMult, m.nMult},
	}
	for _, r := range reads {
		if len(perKey[r.op]) > 0 {
			continue
		}
		b := newKeys(w.batch)
		for range 32 {
			for _, k := range b {
				m.g.put(k, r.space, rng.Uint64N(r.n))
			}
			start := time.Now()
			for range rs[0].reps {
				call(r.op, b)
			}
			perKey[r.op] = append(perKey[r.op], float64(time.Since(start))/float64(rs[0].reps*w.batch))
		}
	}
	return map[string]metric{
		"sharded.contains_ns_per_key": {median(perKey[wire.OpMembershipContains]), "ns/key"},
		"sharded.query_ns_per_key":    {median(perKey[wire.OpAssociationQuery]), "ns/key"},
		"sharded.count_ns_per_key":    {median(perKey[wire.OpMultiplicityCount]), "ns/key"},
		"sharded.add_ns_per_key":      {median(addNs), "ns/key"},
		"server.dispatch_overhead_ns": {median(dispatch), "ns"},
	}, nil
}

// --- loopback echo peer -----------------------------------------------------------

// serveEcho is the echo peer's process body: it listens on loopback,
// prints its address, and answers each frame [u32 n][u32 reply][n-4
// bytes] with reply bytes, until its standard input closes.
func serveEcho(in io.Reader, out io.Writer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Fprintln(out, ln.Addr())
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go echoConn(conn)
		}
	}()
	_, err = io.Copy(io.Discard, in)
	return err
}

func echoConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	var buf, reply []byte
	for {
		frame, err := wire.ReadFrame(br, buf)
		if err != nil || len(frame) < 4 {
			return
		}
		buf = frame
		n := int(binary.LittleEndian.Uint32(frame))
		if cap(reply) < n {
			reply = make([]byte, n)
		}
		if _, err := conn.Write(reply[:n]); err != nil {
			return
		}
	}
}

// echoRTT bounces each sampled request's frame size, and a reply of
// its response size, off the echo peer: the kernel's share of a round
// trip with no daemon work in it.
func echoRTT(rs []*replay, tr *tracer, reps int) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "--echo-peer")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	if _, err := startChild(cmd); err != nil {
		return 0, err
	}
	defer func() {
		stdin.Close()
		stopChild(cmd)
	}()
	addr, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("echo peer: %w", err)
	}
	conn, err := net.Dial("tcp", strings.TrimSpace(addr))
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	var per []float64
	for _, rp := range rs {
		frame := make([]byte, len(rp.frame))
		binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
		binary.LittleEndian.PutUint32(frame[4:], uint32(len(rp.resp)+4))
		reply := make([]byte, len(rp.resp)+4)
		var rerr error
		per = append(per, tr.time("kernel.echo_rtt", rp.root, rp.id, reps, func() {
			if _, err := conn.Write(frame); err != nil {
				rerr = err
				return
			}
			if _, err := io.ReadFull(conn, reply); err != nil {
				rerr = err
			}
		}))
		if rerr != nil {
			return 0, fmt.Errorf("echo peer: %w", rerr)
		}
	}
	return median(per), nil
}

// --- ingest agent and receiver --------------------------------------------------

// datagramLog keeps every datagram written to it.
type datagramLog struct{ kept [][]byte }

func (l *datagramLog) Write(p []byte) (int, error) {
	l.kept = append(l.kept, append([]byte(nil), p...))
	return len(p), nil
}

// nopHandler accepts every ingest payload and does nothing with it.
type nopHandler struct{}

func (nopHandler) HandleBatch(string, [][]byte) ingest.DropReason { return ingest.DropNone }
func (nopHandler) HandleEnvelope(string, []byte) ingest.DropReason {
	return ingest.DropNone
}

// ingestLayer reports the agent's flush cost and wire economics and the
// receiver's per-datagram cost. On ingest they come from the run's own
// agent and the datagrams copied off its send path; elsewhere the
// sampled requests' keys are flushed, one request per flush, through an
// agent writing to memory.
func ingestLayer(w *workload, rs []*replay, traced *phase, tr *tracer) (map[string]metric, error) {
	var (
		flushNs []float64
		dgrams  [][]byte
		st      ingest.AgentStats
	)
	if traced.ing != nil {
		flushNs = traced.flushNs
		dgrams = traced.ing.tee.kept
		st = traced.ing.agent.Stats()
	} else {
		log := &datagramLog{}
		ns := w.ns
		if ns == "" {
			ns = server.DefaultNamespace
		}
		agent, err := ingest.NewAgent(log, ingest.AgentConfig{Namespace: ns, Source: 1, Mode: ingest.ModeKeys})
		if err != nil {
			return nil, err
		}
		for _, rp := range rs {
			var ferr error
			ns := tr.time("ingest.flush", rp.root, rp.id, 1, func() {
				if ferr = agent.AddAll(rp.keys); ferr == nil {
					ferr = agent.Flush()
				}
			})
			if ferr != nil {
				return nil, ferr
			}
			flushNs = append(flushNs, ns/float64(len(rp.keys)))
		}
		dgrams, st = log.kept, agent.Stats()
	}
	if len(dgrams) == 0 {
		return nil, errors.New("no ingest datagrams to replay")
	}
	// Fresh receivers per pass: a receiver drops a datagram it has
	// seen, which would make later passes measure duplicate drops.
	const passes = 5
	var passNs []float64
	for range passes {
		rcv := ingest.NewReceiver(nopHandler{})
		start := time.Now()
		for _, dg := range dgrams {
			if r := rcv.Process(dg); r != ingest.DropNone {
				return nil, fmt.Errorf("receiver replay dropped a datagram: %s", r)
			}
		}
		passNs = append(passNs, float64(time.Since(start))/float64(len(dgrams)))
	}
	return map[string]metric{
		"ingest.flush_ns_per_key":        {median(flushNs), "ns/key"},
		"ingest.process_ns_per_datagram": {median(passNs), "ns"},
		"ingest.bytes_per_key":           {float64(st.BytesSent) / float64(st.KeysAdded), "bytes/key"},
		"ingest.datagrams":               {float64(st.DatagramsSent), "datagrams"},
	}, nil
}
