// Command e2ebench is the repository's benchmark: it starts the
// commit's own shbfd as a separate process, drives it from this single
// load-generator process through the shipped client package and
// ingest.Agent, prints every end-to-end metric with its unit, and
// checks the daemon's answers against an exact reference model. With
// --trace 1 it instead prints the per-layer budget of the same
// workload. See README.md.
//
//	go build -o shbfd ../cmd/shbfd && go run . --daemon ./shbfd \
//	    --workload small-batch --seed 1 --seconds 12 --trace 0
//
// run.sh builds both binaries and is the command BENCHMARK.json names.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"shbf/client"
)

var selfPID = os.Getpid()

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// setupReps is how many times a run starts and preloads a daemon; the
// last one serves the timed phase and setup_s is the median.
const setupReps = 3

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "small-batch", "workload: "+strings.Join(workloadNames, ", "))
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 12, "timed-phase length in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		bin      = flag.String("daemon", ".bench_build/shbfd", "shbfd binary")
		outDir   = flag.String("out", ".bench_build", "directory for span files")
		echoPeer = flag.Bool("echo-peer", false, "internal: serve the loopback echo peer on stdin/stdout")
	)
	flag.Parse()
	if *echoPeer {
		if err := serveEcho(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "echo peer:", err)
			os.Exit(1)
		}
		return
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopChildren()
		os.Exit(2)
	}()
	res, err := run(*name, *seed, *seconds, *trace == 1, *bin, *outDir)
	stopChildren()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool, bin, outDir string) (*result, error) {
	w, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds %d: want at least 1", seconds)
	}
	// The generator runs on at most 2 Ps; the daemon on one per CPU.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(min(2, nproc))
	daemonSHA, err := fileSHA(bin)
	if err != nil {
		return nil, fmt.Errorf("daemon binary: %w", err)
	}
	m := w.model(seed)

	// Set-up: exec → Ping → preload, setupReps times; the last daemon
	// stays up for the timed phase.
	reps := setupReps
	if traced {
		reps = 1
	}
	var (
		d      *daemon
		conns  [2]*client.Client
		t      tally
		setups []float64
	)
	closeConns := func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}
	for i := range reps {
		if d != nil {
			closeConns()
			d.stop()
		}
		start := time.Now()
		if d, err = startDaemon(bin, w.ingest, nproc); err != nil {
			return nil, err
		}
		for j := range conns {
			if conns[j], err = client.Dial("shbp://" + d.shbpAddr); err != nil {
				return nil, err
			}
		}
		t = tally{}
		if err := w.setUp(conns, t, m); err != nil {
			return nil, fmt.Errorf("set-up %d: %w (daemon log: %s)", i, err, d.log.lines())
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer closeConns()
	defer d.stop()
	fmt.Printf("workload %s seed %d seconds %d trace %v\n", w.name, seed, seconds, traced)
	// The checkout may not be a git repository; the daemon binary's
	// hash identifies the commit's code instead.
	fmt.Printf("env nproc %d gen_gomaxprocs %d daemon_gomaxprocs %d go %s daemon_sha256 %s\n",
		nproc, runtime.GOMAXPROCS(0), nproc, runtime.Version(), daemonSHA)

	// The generator holds at most two connections in the timed phase:
	// ShBP callers drive the daemon on set-up connections, HTTP callers
	// each open their own. The set-up connections no caller uses are
	// closed now and dialled again for the verification pass.
	callers := make([]*caller, w.callers)
	var httpConns []*client.Client
	defer func() {
		for _, c := range httpConns {
			c.Close()
		}
	}()
	for i := range callers {
		conn := conns[i]
		if w.transport == "http" {
			if conn, err = dialHTTP(d); err != nil {
				return nil, err
			}
			httpConns = append(httpConns, conn)
		}
		callers[i] = newCaller(i, w, m, seed, conn)
	}
	for i, c := range conns {
		if w.transport == "http" || i >= w.callers {
			c.Close()
			conns[i] = nil
		}
	}
	var ing *ingestRun
	if w.ingest {
		if ing, err = newIngestRun(w, m, d, seed); err != nil {
			return nil, err
		}
		defer ing.close()
	}

	dur := time.Duration(seconds) * time.Second
	var phases []*phase
	if traced {
		// Untraced and traced halves on the same daemon, so the
		// difference between them is the tracing overhead.
		dur /= 2
	}
	untraced, err := runPhase(d, callers, ing, dur, false)
	if err != nil {
		return nil, err
	}
	phases = append(phases, untraced)
	var tracedPh *phase
	if traced {
		if tracedPh, err = runPhase(d, callers, ing, dur, true); err != nil {
			return nil, err
		}
		phases = append(phases, tracedPh)
	}
	for _, p := range phases {
		t.merge(p.tally)
	}
	for _, c := range httpConns {
		c.Close()
	}
	httpConns = nil
	for i := range conns {
		if conns[i] == nil {
			if conns[i], err = client.Dial("shbp://" + d.shbpAddr); err != nil {
				return nil, err
			}
		}
	}
	ctl := conns[0]

	var ingestSent uint64
	if ing != nil {
		ingestSent = ing.next
		if err := awaitIngest(ctl, ing); err != nil {
			return nil, err
		}
	}
	acc, v, err := verify(conns, t, w, m, phases, ingestSent)
	if err != nil {
		return nil, err
	}
	for _, p := range phases {
		v.merge(p.violations)
	}
	scrape, err := ctl.Metrics()
	if err != nil {
		return nil, fmt.Errorf("scraping daemon metrics: %w", err)
	}
	all, err := parseScrape(scrape)
	if err != nil {
		return nil, err
	}
	diffs := crossCheck(all, t)
	hwm, err := readProc("/proc", d.pid)
	if err != nil {
		return nil, err
	}

	out := outcomeOf(phases, acc)
	ws := windows(untraced)
	e2e := endToEnd(untraced, ws, acc, out, setups, hwm.VmHWMkB)
	printLines(e2e, ws, untraced, acc, out)
	for _, s := range v.first {
		fmt.Println("violation:", s)
	}
	for _, s := range diffs {
		fmt.Println("request-count mismatch:", s)
	}
	correct := v.n == 0 && len(diffs) == 0
	fmt.Printf("verification violations %d request_count_mismatches %d correct %v\n", v.n, len(diffs), correct)

	res := &result{Correct: correct, Attempted: out.Attempted, Failed: out.Failed, Metrics: map[string]metric{}}
	if !traced {
		for _, k := range endToEndNames {
			res.Metrics[k] = e2e[k]
		}
		return res, nil
	}
	layers, err := perLayer(w, m, seed, untraced, tracedPh, all, outDir)
	if err != nil {
		return nil, err
	}
	for _, k := range sortedKeys(layers) {
		fmt.Printf("layer %-40s %16.6g %s\n", k, layers[k].Value, layers[k].Unit)
	}
	res.Metrics = layers
	return res, nil
}

// awaitIngest waits until the daemon has taken in every datagram the
// agent sent (or 2 s pass), so the verification pass does not count
// datagrams still in the socket buffer as lost.
func awaitIngest(c *client.Client, ir *ingestRun) error {
	sent := float64(ir.agent.Stats().DatagramsSent)
	deadline := time.Now().Add(2 * time.Second)
	for {
		scrape, err := c.Metrics()
		if err != nil {
			return fmt.Errorf("scraping daemon metrics: %w", err)
		}
		all, err := parseScrape(scrape)
		if err != nil {
			return err
		}
		if sumSeries(all, "shbf_udp_datagrams_received_total")+sumSeries(all, "shbf_udp_datagrams_dropped_total") >= sent ||
			time.Now().After(deadline) {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// endToEndNames are the metrics BENCHMARK.json gates, in print order.
var endToEndNames = []string{
	"setup_s", "keys_per_s", "req_p50_us", "ok_frac",
	"daemon_cpu_ns_per_key", "daemon_rss_mb", "fpr", "assoc_clear_frac", "mult_exact_frac",
}

// minWindowReqs is the fewest requests a window should hold on
// average, so that its p99 has ten samples beyond it.
const minWindowReqs = 1000

// windowWidth is the phase's window: the shortest of a few widths that
// holds minWindowReqs requests on average.
func windowWidth(nCalls int, span time.Duration) time.Duration {
	for _, w := range []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond, time.Second, 2 * time.Second} {
		if float64(nCalls)*w.Seconds()/span.Seconds() >= minWindowReqs {
			return w
		}
	}
	return span
}

// windowStats are a phase's figures per window.
type windowStats struct {
	width          time.Duration
	p50, p99, rate []float64
}

// windows cuts a phase into windows and computes, for each, the
// latency median and p99 and the keys answered per second.
func windows(p *phase) windowStats {
	ws := windowStats{width: windowWidth(len(p.calls), p.span)}
	w := int64(ws.width)
	n := int(int64(p.span) / w)
	lat := make([][]float64, n)
	keys := make([]float64, n)
	for _, c := range p.calls {
		k := int(c.endNs / w)
		if k >= n {
			continue
		}
		lat[k] = append(lat[k], float64(c.endNs-c.startNs)/1e3)
		if c.ok {
			keys[k] += float64(c.keys)
		}
	}
	for k := range n {
		if v, _, ok := percentile(lat[k], 0.5); ok {
			ws.p50 = append(ws.p50, v)
		}
		if v, _, ok := tailPercentile(lat[k], 0.99); ok {
			ws.p99 = append(ws.p99, v)
		}
		ws.rate = append(ws.rate, keys[k]/ws.width.Seconds())
	}
	return ws
}

// quantile is percentile without the count, on a copy.
func quantile(v []float64, q float64) float64 {
	x, _, _ := percentile(slices.Clone(v), q)
	return x
}

// outcomeOf tallies the operations of the phases: every request, and
// every ingest key flushed, of which those the verification pass found
// absent failed.
func outcomeOf(phases []*phase, acc accuracy) outcome {
	var out outcome
	for _, p := range phases {
		for _, c := range p.calls {
			out.add(c.ok)
		}
	}
	out.lostKeys(int64(acc.ingestSent), int64(len(acc.ingestLost)))
	return out
}

// endToEnd computes the end-to-end metrics of an untraced phase: the
// gated ones (endToEndNames) and req_p99_us. out is the run's outcome,
// so ok_frac is 1 − the printed fail_frac.
func endToEnd(p *phase, ws windowStats, acc accuracy, out outcome, setups []float64, hwmKB uint64) map[string]metric {
	var okKeys float64
	for _, c := range p.calls {
		if c.ok {
			okKeys += float64(c.keys)
		}
	}
	// The daemon processed the answered keys and the ingest keys that
	// arrived; a lost datagram costs it nothing.
	processed := okKeys + float64(acc.arrived(p.ingestLo, p.ingestHi))
	return map[string]metric{
		"setup_s":               {median(slices.Clone(setups)), "s"},
		"keys_per_s":            {quantile(ws.rate, 0.5), "keys/s"},
		"req_p50_us":            {quantile(ws.p50, 0.5), "us"},
		"req_p99_us":            {quantile(ws.p99, 0.5), "us"},
		"ok_frac":               {1 - out.failFrac(), "fraction"},
		"daemon_cpu_ns_per_key": {float64(p.daemon.CPUNs) / processed, "ns/key"},
		"daemon_rss_mb":         {float64(hwmKB) / 1024, "MiB"},
		"fpr":                   {acc.fpr(), "fraction"},
		"assoc_clear_frac":      {acc.assocClearFrac(), "fraction"},
		"mult_exact_frac":       {acc.multExactFrac(), "fraction"},
	}
}

// printLines prints the human-readable block: every end-to-end metric
// with its unit, the sample counts behind the latency figures, and the
// metrics BENCHMARK.json does not gate.
func printLines(e2e map[string]metric, ws windowStats, p *phase, acc accuracy, out outcome) {
	for _, k := range endToEndNames {
		fmt.Printf("e2e %-22s %14.6g %s\n", k, e2e[k].Value, e2e[k].Unit)
	}
	fmt.Printf("e2e %-22s %14.6g us (not gated)\n", "req_p99_us", e2e["req_p99_us"].Value)
	fmt.Printf("latency: %d requests in %d windows of %v; p50 and p99 are medians over windows, p99 over the %d windows with at least %d samples beyond it; host steal %.2g%%\n",
		len(p.calls), len(ws.rate), ws.width, len(ws.p99), minTail, 100*p.stealFrac)
	fmt.Printf("e2e %-22s %14.6g fraction (not gated; failed %d of %d attempted)\n", "fail_frac", out.failFrac(), out.Failed, out.Attempted)
	fmt.Printf("accuracy: %d false positives of %d non-member probes; %d of %d association answers clear; %d of %d counts exact\n",
		acc.fps, acc.fpProbes, acc.assocClear, acc.assocN, acc.multExact, acc.multN)
	if p.ing != nil {
		lag := slices.Clone(p.lagMs)
		l50, _, _ := percentile(lag, 0.5)
		l99, beyond, tailOK := tailPercentile(lag, 0.99)
		fmt.Printf("e2e %-22s %14.6g ms (not gated; %d flushes seen)\n", "ingest_lag_p50_ms", l50, len(lag))
		fmt.Printf("e2e %-22s %14.6g ms (not gated; %d beyond it, enough %v)\n", "ingest_lag_p99_ms", l99, beyond, tailOK)
		fmt.Printf("ingest: %d keys sent, %d lost\n", acc.ingestSent, len(acc.ingestLost))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func fileSHA(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
