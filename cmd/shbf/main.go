// Command shbf builds, evaluates, plans, and ships Shifting Bloom
// Filters through the unified Spec API. Every subcommand names the
// filter with -kind (a shbf.Kind name) and the geometry with the same
// unified flags (-m -k -c -t -g -shards -seed), instead of the
// per-kind flag sets this tool grew up with.
//
// Usage:
//
//	shbf eval -kind membership   -trace t.bin [-m 0] [-k 8] [-probes 1000000]
//	shbf eval -kind association  -trace t.bin -trace2 u.bin [-k 8]
//	shbf eval -kind multiplicity -trace t.bin [-k 8] [-c 57]
//	shbf plan -kind membership -n 1000000 -target 0.001
//	shbf dump -kind membership -trace t.bin -out f.shbf [-m 0] [-k 8]
//	shbf load -in f.shbf [-trace t.bin]
//	shbf freeze -in f.shbf -out f.shbz
//	shbf stack -out filters.shbk a.shbz b.shbf ...
//	shbf stack -in filters.shbk
//
// eval builds a filter from a trace and reports quality (fill ratio,
// memory, measured vs theoretical error). plan sizes a geometry from
// an accuracy target and prints the Spec. dump builds from a trace and
// writes the filter as a self-describing envelope; load reads any
// envelope back — no kind flag needed, the envelope says what it is —
// and reports its spec and stats, optionally probing it with a trace.
// freeze compacts an envelope into a read-only ShBZ container
// (shbf.OpenFrozen serves it zero-copy from a file or mmap region);
// stack packs containers and envelopes into one ShBK stack file, or
// lists one with -in.
// With -m 0 the filter is sized optimally from the trace (m = nk/ln2
// for membership/association, 1.5× that for multiplicity, following
// the paper's experimental setups).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"shbf"
	"shbf/internal/analytic"
	"shbf/internal/sizing"
	"shbf/internal/trace"
	"shbf/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "shbf:", err)
		os.Exit(1)
	}
}

// run dispatches the subcommand; a leading flag means eval, the
// historical default.
func run(args []string) error {
	sub := "eval"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		sub, args = args[0], args[1:]
	}
	switch sub {
	case "eval":
		return runEval(args)
	case "plan":
		return runPlan(args)
	case "dump":
		return runDump(args)
	case "load":
		return runLoad(args)
	case "freeze":
		return runFreeze(args)
	case "stack":
		return runStack(args)
	default:
		return fmt.Errorf("unknown subcommand %q (eval, plan, dump, load, freeze, stack)", sub)
	}
}

// specFlags registers the unified geometry flags on fs and returns a
// builder that assembles the Spec after parsing.
func specFlags(fs *flag.FlagSet) func() (shbf.Spec, error) {
	var (
		kind   = fs.String("kind", "membership", "filter kind (shbf.Kind name)")
		m      = fs.Int("m", 0, "filter bits (0 = optimal for the trace, where a trace is given)")
		k      = fs.Int("k", 8, "bit positions per element")
		c      = fs.Int("c", 0, "maximum multiplicity (multiplicity kinds; default 57)")
		t      = fs.Int("t", 0, "offsets per group (tshift)")
		g      = fs.Int("g", 0, "number of sets (multi-association)")
		shards = fs.Int("shards", 0, "shard count (sharded kinds)")
		seed   = fs.Uint64("seed", 1, "filter/probe seed")
		cwidth = fs.Uint("counter-width", 0, "counter bit width (counting kinds, SCM; 0 = kind default)")
		woff   = fs.Int("max-offset", 0, "maximum offset w̄ (offset-windowed kinds; 0 = default 57)")
		unsafe = fs.Bool("unsafe", false, "Section 5.3.1 update mode (counting-multiplicity kinds)")
	)
	return func() (shbf.Spec, error) {
		kd, err := shbf.ParseKind(*kind)
		if err != nil {
			return shbf.Spec{}, err
		}
		spec := shbf.Spec{Kind: kd, M: *m, K: *k, C: *c, T: *t, G: *g, Shards: *shards,
			Seed: *seed, CounterWidth: *cwidth, MaxOffset: *woff, UnsafeUpdates: *unsafe}
		if spec.C == 0 && kd.Multiplicity() {
			spec.C = 57
		}
		return spec, nil
	}
}

func loadTrace(path string) ([]trace.Flow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Read(f)
}

func ids(flows []trace.Flow) [][]byte {
	out := make([][]byte, len(flows))
	for i := range flows {
		out[i] = flows[i].ID[:]
	}
	return out
}

// sizeFromTrace fills spec.M when it is 0, using the paper's optimal
// sizing for the trace.
func sizeFromTrace(spec shbf.Spec, n int) shbf.Spec {
	if spec.M != 0 {
		return spec
	}
	m := float64(n) * float64(spec.K) / math.Ln2
	if spec.Kind.Multiplicity() {
		m *= 1.5
	}
	spec.M = int(m)
	return spec
}

// --- eval -----------------------------------------------------------------

func runEval(args []string) error {
	fs := flag.NewFlagSet("shbf eval", flag.ContinueOnError)
	spec := specFlags(fs)
	var (
		path   = fs.String("trace", "", "trace file (see cmd/tracegen)")
		path2  = fs.String("trace2", "", "second trace file (association: set S2)")
		probes = fs.Int("probes", 1000000, "negative probes for FPR measurement")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp, err := spec()
	if err != nil {
		return err
	}
	// The membership/multiplicity paths validate inside shbf.New; the
	// association path builds via BuildAssociation, so validate here
	// so misapplied flags error on every eval kind.
	if err := sp.Validate(); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("-trace is required")
	}
	flows, err := loadTrace(*path)
	if err != nil {
		return err
	}
	switch sp.Kind {
	case shbf.KindMembership:
		return evalMember(sp, flows, *probes)
	case shbf.KindAssociation:
		if *path2 == "" {
			return fmt.Errorf("association eval needs -trace2")
		}
		flows2, err := loadTrace(*path2)
		if err != nil {
			return err
		}
		return evalAssoc(sp, flows, flows2)
	case shbf.KindMultiplicity:
		return evalMult(sp, flows)
	default:
		return fmt.Errorf("eval supports membership, association, multiplicity (got %s)", sp.Kind)
	}
}

func evalMember(sp shbf.Spec, flows []trace.Flow, probes int) error {
	n := len(flows)
	sp = sizeFromTrace(sp, n)
	built, err := shbf.New(sp)
	if err != nil {
		return err
	}
	f := built.(*shbf.Membership)
	if err := f.AddAll(ids(flows)); err != nil {
		return err
	}
	gen := trace.NewGenerator(int64(sp.Seed) + 1000)
	fp := 0
	negs := workload.Negatives(gen, probes)
	for _, e := range negs {
		if f.Contains(e) {
			fp++
		}
	}
	measured := float64(fp) / float64(len(negs))
	theory := analytic.FPRShBFM(sp.M, n, float64(sp.K), f.MaxOffset())

	fmt.Printf("ShBF_M over %d elements: m=%d k=%d w̄=%d\n", n, sp.M, sp.K, f.MaxOffset())
	fmt.Printf("memory:        %d bytes (%.2f bits/element)\n", f.SizeBytes(), float64(8*f.SizeBytes())/float64(n))
	fmt.Printf("fill ratio:    %.4f\n", f.FillRatio())
	fmt.Printf("FPR measured:  %.6f  (over %d probes)\n", measured, len(negs))
	fmt.Printf("FPR theory:    %.6f  (paper Equation 1)\n", theory)
	fmt.Printf("hash ops/add:  %d (BF would use %d)\n", f.HashOpsPerAdd(), sp.K)
	return nil
}

func evalAssoc(sp shbf.Spec, flows1, flows2 []trace.Flow) error {
	s1, s2 := ids(flows1), ids(flows2)
	union := map[string]bool{}
	for _, e := range s1 {
		union[string(e)] = true
	}
	for _, e := range s2 {
		union[string(e)] = true
	}
	sp = sizeFromTrace(sp, len(union))
	a, err := shbf.BuildAssociation(s1, s2, sp.M, sp.K, sp.Options()...)
	if err != nil {
		return err
	}
	clear, total := 0, 0
	var regions []shbf.Region
	for _, group := range [][][]byte{s1, s2} {
		regions = a.QueryAll(regions, group)
		for _, r := range regions {
			if r.Clear() {
				clear++
			}
			total++
		}
	}
	fmt.Printf("ShBF_A over |S1|=%d |S2|=%d (|S1∩S2|=%d): m=%d k=%d\n",
		a.N1(), a.N2(), a.NBoth(), sp.M, sp.K)
	fmt.Printf("memory:          %d bytes\n", a.SizeBytes())
	fmt.Printf("fill ratio:      %.4f\n", a.FillRatio())
	fmt.Printf("clear answers:   %.4f measured, %.4f theory (Table 2)\n",
		float64(clear)/float64(total), analytic.ClearProbShBFA(sp.K))
	fmt.Printf("hash ops/query:  %d (iBF would use %d)\n", a.HashOpsPerQuery(), 2*sp.K)
	return nil
}

func evalMult(sp shbf.Spec, flows []trace.Flow) error {
	n := len(flows)
	sp = sizeFromTrace(sp, n)
	built, err := shbf.New(sp)
	if err != nil {
		return err
	}
	f := built.(*shbf.Multiplicity)
	counts := make([]int, 0, n)
	for _, fl := range flows {
		cnt := fl.Count
		if cnt > sp.C {
			cnt = sp.C
		}
		if err := f.AddWithCount(fl.ID[:], cnt); err != nil {
			return err
		}
		counts = append(counts, cnt)
	}
	correct, over := 0, 0
	got := f.CountAll(nil, ids(flows))
	for i := range flows {
		switch {
		case got[i] == counts[i]:
			correct++
		case got[i] > counts[i]:
			over++
		default:
			return fmt.Errorf("false negative on flow %d: %d < %d", i, got[i], counts[i])
		}
	}
	fmt.Printf("ShBF_X over %d flows: m=%d k=%d c=%d\n", n, sp.M, sp.K, sp.C)
	fmt.Printf("memory:       %d bytes\n", f.SizeBytes())
	fmt.Printf("fill ratio:   %.4f\n", f.FillRatio())
	fmt.Printf("correct:      %.4f measured, %.4f theory (Equations 26–28)\n",
		float64(correct)/float64(n), analytic.CRWorkload(sp.M, n, sp.K, sp.C, counts))
	fmt.Printf("overestimates: %d (never underestimates)\n", over)
	return nil
}

// --- plan -----------------------------------------------------------------

func runPlan(args []string) error {
	fs := flag.NewFlagSet("shbf plan", flag.ContinueOnError)
	var (
		kind   = fs.String("kind", "membership", "filter kind to size")
		n      = fs.Int("n", 100000, "expected elements (per tick with -window)")
		c      = fs.Int("c", 57, "maximum multiplicity (multiplicity)")
		target = fs.Float64("target", 0.01, "target FPR (membership) / clear probability (association) / correctness rate (multiplicity)")
		window = fs.Int("window", 0, "size a sliding-window membership ring of this many generations (-n becomes keys per tick; target is the whole-window FPR)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	kd, err := shbf.ParseKind(*kind)
	if err != nil {
		return err
	}
	if *window > 0 && kd != shbf.KindMembership {
		return fmt.Errorf("-window sizing supports membership only (got %s)", kd)
	}
	switch kd {
	case shbf.KindMembership:
		if *window > 0 {
			plan, err := sizing.Window(*n, *window, *target, shbf.DefaultMaxOffset)
			if err != nil {
				return err
			}
			fmt.Printf("Sliding-window ShBF_M plan for %d keys/tick, G=%d, window FPR ≤ %g:\n",
				*n, plan.Generations, *target)
			fmt.Printf("  per generation: m=%d bits (%.1f KiB), k=%d, FPR budget %.6g\n",
				plan.Generation.M, float64(plan.Generation.M)/8192,
				plan.Generation.K, plan.Generation.PredictedFPR)
			fmt.Printf("  window: total %d bits (%.1f KiB), predicted FPR %.6g\n",
				plan.TotalBits, float64(plan.TotalBits)/8192, plan.PredictedWindowFPR)
			fmt.Printf("  base spec: %s (wrap with shbf.NewWindow, Generations=%d)\n",
				specString(plan.Spec()), plan.Generations)
			return nil
		}
		plan, err := sizing.Membership(*n, *target, shbf.DefaultMaxOffset)
		if err != nil {
			return err
		}
		fmt.Printf("ShBF_M plan for n=%d, FPR ≤ %g:\n", *n, *target)
		fmt.Printf("  m=%d bits (%.1f KiB, %.2f bits/element), k=%d, predicted FPR %.6f\n",
			plan.M, float64(plan.M)/8192, plan.BitsPerElem, plan.K, plan.PredictedFPR)
		fmt.Printf("  spec: %s\n", specString(plan.Spec()))
	case shbf.KindAssociation:
		plan, err := sizing.Association(*n, *target)
		if err != nil {
			return err
		}
		fmt.Printf("ShBF_A plan for |S1∪S2|=%d, P(clear) ≥ %g:\n", *n, *target)
		fmt.Printf("  m=%d bits (%.1f KiB), k=%d, predicted clear %.6f\n",
			plan.M, float64(plan.M)/8192, plan.K, plan.PredictedClear)
		fmt.Printf("  spec: %s\n", specString(plan.Spec()))
	case shbf.KindMultiplicity:
		plan, err := sizing.Multiplicity(*n, *c, *target)
		if err != nil {
			return err
		}
		fmt.Printf("ShBF_X plan for n=%d, c=%d, CR ≥ %g:\n", *n, *c, *target)
		fmt.Printf("  m=%d bits (%.1f KiB, %.2f bits/element), k=%d, predicted CR %.6f\n",
			plan.M, float64(plan.M)/8192, plan.BitsPerElem, plan.K, plan.PredictedCR)
		fmt.Printf("  spec: %s\n", specString(plan.Spec()))
	default:
		return fmt.Errorf("plan supports membership, association, multiplicity (got %s)", kd)
	}
	return nil
}

// specString renders the non-zero fields of a spec as flags.
func specString(sp shbf.Spec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "-kind %s -m %d -k %d", sp.Kind, sp.M, sp.K)
	if sp.C != 0 {
		fmt.Fprintf(&b, " -c %d", sp.C)
	}
	if sp.T != 0 {
		fmt.Fprintf(&b, " -t %d", sp.T)
	}
	if sp.G != 0 {
		fmt.Fprintf(&b, " -g %d", sp.G)
	}
	if sp.Shards != 0 {
		fmt.Fprintf(&b, " -shards %d", sp.Shards)
	}
	if sp.Seed != 0 {
		fmt.Fprintf(&b, " -seed %d", sp.Seed)
	}
	if sp.CounterWidth != 0 {
		fmt.Fprintf(&b, " -counter-width %d", sp.CounterWidth)
	}
	if sp.MaxOffset != 0 && sp.MaxOffset != shbf.DefaultMaxOffset {
		fmt.Fprintf(&b, " -max-offset %d", sp.MaxOffset)
	}
	if sp.UnsafeUpdates {
		b.WriteString(" -unsafe")
	}
	return b.String()
}

// --- dump / load ----------------------------------------------------------

// runDump builds a filter from the trace and writes it as one
// self-describing envelope.
func runDump(args []string) error {
	fs := flag.NewFlagSet("shbf dump", flag.ContinueOnError)
	spec := specFlags(fs)
	var (
		path = fs.String("trace", "", "trace file to build from")
		out  = fs.String("out", "", "output file for the filter envelope")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp, err := spec()
	if err != nil {
		return err
	}
	if *path == "" || *out == "" {
		return fmt.Errorf("dump needs -trace and -out")
	}
	flows, err := loadTrace(*path)
	if err != nil {
		return err
	}
	sp = sizeFromTrace(sp, len(flows))
	built, err := shbf.New(sp)
	if err != nil {
		return err
	}
	// The count-carrying kinds must encode each flow's trace
	// multiplicity, not one insert per flow.
	switch f := built.(type) {
	case *shbf.Multiplicity:
		for _, fl := range flows {
			cnt := fl.Count
			if cnt > sp.C {
				cnt = sp.C
			}
			if err := f.AddWithCount(fl.ID[:], cnt); err != nil {
				return err
			}
		}
	case shbf.Counter: // counting/sharded multiplicity: insert count times
		u, ok := f.(shbf.Updatable)
		if !ok {
			return fmt.Errorf("dump cannot populate a %s filter from one trace", sp.Kind)
		}
		for _, fl := range flows {
			cnt := fl.Count
			if sp.C > 0 && cnt > sp.C {
				cnt = sp.C
			}
			for j := 0; j < cnt; j++ {
				if err := u.Insert(fl.ID[:]); err != nil {
					return err
				}
			}
		}
	case *shbf.SCMSketch:
		for _, fl := range flows {
			for j := 0; j < fl.Count; j++ {
				f.Insert(fl.ID[:])
			}
		}
	case shbf.Adder: // membership kinds: one insert per distinct flow
		if err := f.AddAll(ids(flows)); err != nil {
			return err
		}
	default:
		return fmt.Errorf("dump cannot populate a %s filter from one trace", sp.Kind)
	}
	w, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer w.Close()
	if err := shbf.Dump(w, built); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	st := built.Stats()
	fmt.Printf("dumped %s filter: n=%d, %d bytes of arrays, fill %.4f → %s\n",
		st.Kind, st.N, st.SizeBytes, st.FillRatio, *out)
	return nil
}

// runLoad reads any envelope back — the kind travels in the file — and
// reports what it holds; with -trace it also probes the filter.
func runLoad(args []string) error {
	fs := flag.NewFlagSet("shbf load", flag.ContinueOnError)
	var (
		in   = fs.String("in", "", "filter envelope to load")
		path = fs.String("trace", "", "optional trace of keys to probe")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("load needs -in")
	}
	r, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer r.Close()
	f, err := shbf.Load(r)
	if err != nil {
		return err
	}
	sp, st := f.Spec(), f.Stats()
	fmt.Printf("loaded %s filter from %s\n", sp.Kind, *in)
	fmt.Printf("spec:  %s\n", specString(sp))
	fmt.Printf("stats: n=%d, %d bytes of arrays, fill %.4f", st.N, st.SizeBytes, st.FillRatio)
	if st.Shards > 0 {
		fmt.Printf(", %d shards", st.Shards)
	}
	fmt.Println()
	if *path == "" {
		return nil
	}
	flows, err := loadTrace(*path)
	if err != nil {
		return err
	}
	keys := ids(flows)
	switch q := f.(type) {
	// Keyed on ContainsAll rather than the full Set interface so the
	// counting membership kind (Insert, no Add) is probeable too.
	case interface {
		ContainsAll(dst []bool, keys [][]byte) []bool
	}:
		hits := 0
		for _, ok := range q.ContainsAll(nil, keys) {
			if ok {
				hits++
			}
		}
		fmt.Printf("probe: %d/%d trace keys positive\n", hits, len(keys))
	case shbf.Counter:
		nonzero := 0
		for _, c := range q.CountAll(nil, keys) {
			if c > 0 {
				nonzero++
			}
		}
		fmt.Printf("probe: %d/%d trace keys with count > 0\n", nonzero, len(keys))
	case shbf.Associator:
		clear := 0
		for _, r := range q.QueryAll(nil, keys) {
			if r.Clear() {
				clear++
			}
		}
		fmt.Printf("probe: %d/%d trace keys with clear region\n", clear, len(keys))
	default:
		fmt.Printf("probe: %s filters are not probeable from a trace\n", sp.Kind)
	}
	return nil
}
