// Command shbench regenerates every table and figure of the ShBF
// paper's evaluation (Section 6) and the reproduction's extra
// ablations. Output goes to stdout as aligned text and, with -out, to
// per-figure .txt and .csv files.
//
// Usage:
//
//	shbench [-fig all|3|4|7|8|9|10|11|table2|general|scm|update|
//	              updates|costmodel|multiset|skew|zoo|window]
//	        [-out dir] [-svg] [-quick] [-seed N] [-trials N] [-probes N]
//	        [-assoc-size N] [-mult-size N]
//
// Examples:
//
//	shbench -fig all -out results    # full reproduction
//	shbench -fig 9 -quick            # one figure, test-scale
//
// The hot-path timings behind Figure 9 are the root package's Perf
// benchmarks (`go test -bench Perf -run '^$' .`), and every `go test`
// holds them to zero allocations (TestPerfHotPathsAllocateNothing).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"shbf/internal/experiment"
)

func main() {
	var (
		figFlag   = flag.String("fig", "all", "figure to run: all, or a comma list of experiment ids (see usage)")
		outDir    = flag.String("out", "", "directory for .txt/.csv outputs (created if missing)")
		quick     = flag.Bool("quick", false, "use the small test-scale configuration")
		seed      = flag.Int64("seed", 0, "override workload seed (0 = config default)")
		trials    = flag.Int("trials", 0, "override trial count (0 = config default)")
		probes    = flag.Int("probes", 0, "override negative probes per FPR point (0 = default)")
		assocSize = flag.Int("assoc-size", 0, "override |S1|=|S2| for Figure 10 (0 = default)")
		multSize  = flag.Int("mult-size", 0, "override distinct elements for Figure 11 (0 = default)")
		svg       = flag.Bool("svg", false, "with -out: also write one .svg chart per figure")
	)
	flag.Parse()

	cfg := experiment.Default()
	if *quick {
		cfg = experiment.Quick()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *trials != 0 {
		cfg.Trials = *trials
	}
	if *probes != 0 {
		cfg.Probes = *probes
	}
	if *assocSize != 0 {
		cfg.AssocSetSize = *assocSize
	}
	if *multSize != 0 {
		cfg.MultisetSize = *multSize
	}

	writeSVG = *svg
	if err := run(*figFlag, *outDir, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "shbench:", err)
		os.Exit(1)
	}
}

// writeSVG selects .svg emission alongside .txt/.csv.
var writeSVG bool

// runner produces the figures (and possibly a table) for one experiment
// id.
type runner struct {
	id   string
	desc string
	figs func(experiment.Config) []*experiment.Figure
	tab  func(experiment.Config) *experiment.Table
}

var runners = []runner{
	{id: "3", desc: "theoretical FPR vs w̄", figs: experiment.RunFig3},
	{id: "4", desc: "theoretical ShBF_M vs BF FPR", figs: experiment.RunFig4},
	{id: "7", desc: "membership FPR vs 1MemBF", figs: experiment.RunFig7},
	{id: "8", desc: "membership memory accesses", figs: experiment.RunFig8},
	{id: "9", desc: "membership query speed", figs: experiment.RunFig9},
	{id: "table2", desc: "association analytic comparison", tab: experiment.RunTable2},
	{id: "10", desc: "association queries vs iBF", figs: experiment.RunFig10},
	{id: "11", desc: "multiplicity queries vs Spectral/CM", figs: experiment.RunFig11},
	{id: "general", desc: "t-shift generalization ablation", figs: experiment.RunGeneralAblation},
	{id: "scm", desc: "shifting count-min ablation", figs: experiment.RunSCMAblation},
	{id: "update", desc: "CShBF_X update-mode ablation", figs: experiment.RunUpdateAblation},
	{id: "updates", desc: "update (churn) throughput table", tab: experiment.RunUpdateTable},
	{id: "costmodel", desc: "SRAM/DRAM latency model table", tab: experiment.RunCostModelTable},
	{id: "multiset", desc: "g-set association extension vs CodedBF", figs: experiment.RunMultiSetAblation},
	{id: "skew", desc: "multiplicity correctness under count skew", figs: experiment.RunSkewAblation},
	{id: "zoo", desc: "membership scheme zoo", figs: experiment.RunMembershipZoo},
	{id: "window", desc: "sliding-window accuracy (generation ring)", figs: experiment.RunWindowAblation},
}

func run(figFlag, outDir string, cfg experiment.Config) error {
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return fmt.Errorf("creating %s: %w", outDir, err)
		}
	}
	selected := strings.Split(figFlag, ",")
	matched := false
	for _, r := range runners {
		if !contains(selected, r.id) && figFlag != "all" {
			continue
		}
		matched = true
		start := time.Now()
		fmt.Printf("=== experiment %s: %s ===\n", r.id, r.desc)
		if r.figs != nil {
			for _, fig := range r.figs(cfg) {
				if err := emitFigure(fig, outDir); err != nil {
					return err
				}
			}
		}
		if r.tab != nil {
			if err := emitTable(r.tab(cfg), outDir); err != nil {
				return err
			}
		}
		fmt.Printf("    (%.1fs)\n\n", time.Since(start).Seconds())
	}
	if !matched {
		return fmt.Errorf("unknown figure %q (valid: all, %s)", figFlag, idList())
	}
	return nil
}

func emitFigure(fig *experiment.Figure, outDir string) error {
	if err := fig.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	if outDir == "" {
		return nil
	}
	txt, err := os.Create(filepath.Join(outDir, "fig"+fig.ID+".txt"))
	if err != nil {
		return err
	}
	defer txt.Close()
	if err := fig.Render(txt); err != nil {
		return err
	}
	csv, err := os.Create(filepath.Join(outDir, "fig"+fig.ID+".csv"))
	if err != nil {
		return err
	}
	defer csv.Close()
	if err := fig.WriteCSV(csv); err != nil {
		return err
	}
	if writeSVG {
		svgFile, err := os.Create(filepath.Join(outDir, "fig"+fig.ID+".svg"))
		if err != nil {
			return err
		}
		defer svgFile.Close()
		return fig.WriteSVG(svgFile)
	}
	return nil
}

func emitTable(tab *experiment.Table, outDir string) error {
	if err := tab.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	if outDir == "" {
		return nil
	}
	txt, err := os.Create(filepath.Join(outDir, "table"+tab.ID+".txt"))
	if err != nil {
		return err
	}
	defer txt.Close()
	if err := tab.Render(txt); err != nil {
		return err
	}
	csv, err := os.Create(filepath.Join(outDir, "table"+tab.ID+".csv"))
	if err != nil {
		return err
	}
	defer csv.Close()
	return tab.WriteCSV(csv)
}

func contains(list []string, v string) bool {
	for _, s := range list {
		if s == v {
			return true
		}
	}
	return false
}

func idList() string {
	ids := make([]string, len(runners))
	for i, r := range runners {
		ids[i] = r.id
	}
	return strings.Join(ids, ", ")
}
