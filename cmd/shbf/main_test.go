package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shbf"
	"shbf/internal/trace"
)

func writeTrace(t *testing.T, path string, n, maxCount int, seed int64) {
	t.Helper()
	gen := trace.NewGenerator(seed)
	flows := gen.UniformMultiset(n, maxCount)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.Write(f, flows); err != nil {
		t.Fatal(err)
	}
}

func TestEvalMembership(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.bin")
	writeTrace(t, path, 5000, 57, 1)
	if err := run([]string{"eval", "-kind", "membership", "-trace", path, "-probes", "50000"}); err != nil {
		t.Fatal(err)
	}
	// Explicit m and bare-flag (implicit eval) forms.
	if err := run([]string{"-kind", "membership", "-trace", path, "-m", "80000", "-probes", "20000"}); err != nil {
		t.Fatal(err)
	}
}

func TestEvalMultiplicity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.bin")
	writeTrace(t, path, 3000, 30, 2)
	if err := run([]string{"eval", "-kind", "multiplicity", "-trace", path}); err != nil {
		t.Fatal(err)
	}
	// Trace counts above c must be clamped, not rejected.
	if err := run([]string{"eval", "-kind", "multiplicity", "-trace", path, "-k", "6", "-c", "10"}); err != nil {
		t.Fatalf("clamping failed: %v", err)
	}
}

func TestEvalAssociation(t *testing.T) {
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.bin")
	p2 := filepath.Join(dir, "b.bin")
	writeTrace(t, p1, 3000, 5, 3)
	writeTrace(t, p2, 3000, 5, 4)
	if err := run([]string{"eval", "-kind", "association", "-trace", p1, "-trace2", p2}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.bin")
	writeTrace(t, path, 100, 5, 5)

	cases := [][]string{
		{"eval", "-kind", "membership"},                  // missing -trace
		{"eval", "-kind", "bogus", "-trace", path},       // unknown kind
		{"eval", "-kind", "member", "-trace", path},      // short alias, not a Kind name
		{"eval", "-kind", "association", "-trace", path}, // missing -trace2
		{"eval", "-kind", "tshift", "-trace", path},      // kind outside eval
		{"eval", "-kind", "membership", "-trace", filepath.Join(dir, "missing.bin")},
		{"eval", "-kind", "membership", "-trace", path, "-m", "-5"},                  // constructor error surfaces
		{"eval", "-kind", "association", "-trace", path, "-trace2", path, "-c", "5"}, // C on association
		{"eval", "-kind", "membership", "-trace", path, "-unsafe"},                   // option outside kind
		{"bogus-subcommand"},
		{"dump", "-kind", "membership", "-trace", path}, // missing -out
		{"load"},                    // missing -in
		{"plan", "-kind", "tshift"}, // kind outside plan
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%q) succeeded, want error", strings.Join(args, " "))
		}
	}
}

func TestPlan(t *testing.T) {
	for _, args := range [][]string{
		{"plan", "-kind", "membership", "-n", "100000", "-target", "0.001"},
		{"plan", "-kind", "association", "-n", "100000", "-target", "0.99"},
		{"plan", "-kind", "multiplicity", "-n", "100000", "-c", "57", "-target", "0.95"},
	} {
		if err := run(args); err != nil {
			t.Fatalf("run(%q): %v", strings.Join(args, " "), err)
		}
	}
	if err := run([]string{"plan", "-kind", "membership", "-n", "0"}); err == nil {
		t.Error("invalid n accepted")
	}
}

// TestDumpLoadRoundTrip ships a filter through the envelope and reads
// it back without naming the kind.
func TestDumpLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "t.bin")
	writeTrace(t, tr, 2000, 57, 7)

	for _, kind := range []string{"membership", "counting-membership", "tshift", "multiplicity", "scm-sketch", "sharded-membership"} {
		t.Run(kind, func(t *testing.T) {
			out := filepath.Join(dir, kind+".shbf")
			args := []string{"dump", "-kind", kind, "-trace", tr, "-out", out, "-m", "40000", "-k", "8"}
			switch kind {
			case "tshift":
				args = append(args, "-t", "3")
			case "scm-sketch":
				args = append(args, "-m", "4096", "-k", "4")
			case "sharded-membership":
				args = append(args, "-shards", "4")
			}
			if err := run(args); err != nil {
				t.Fatalf("dump: %v", err)
			}
			if err := run([]string{"load", "-in", out, "-trace", tr}); err != nil {
				t.Fatalf("load: %v", err)
			}
		})
	}

	if err := run([]string{"load", "-in", tr}); err == nil {
		t.Error("loading a non-envelope file succeeded")
	}
}

// TestDumpPreservesMultiplicityCounts: dumping a counting or sharded
// multiplicity filter must encode each flow's trace count, not one
// insert per flow.
func TestDumpPreservesMultiplicityCounts(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "t.bin")
	writeTrace(t, tr, 300, 9, 11)
	flows, err := loadTrace(tr)
	if err != nil {
		t.Fatal(err)
	}

	for _, kind := range []string{"multiplicity", "counting-multiplicity", "sharded-multiplicity"} {
		t.Run(kind, func(t *testing.T) {
			out := filepath.Join(dir, kind+".shbf")
			args := []string{"dump", "-kind", kind, "-trace", tr, "-out", out,
				"-m", "100000", "-k", "4", "-c", "9"}
			if kind == "sharded-multiplicity" {
				args = append(args, "-shards", "2")
			}
			if err := run(args); err != nil {
				t.Fatalf("dump: %v", err)
			}
			r, err := os.Open(out)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			f, err := shbf.Load(r)
			if err != nil {
				t.Fatal(err)
			}
			counter := f.(shbf.Counter)
			for _, fl := range flows {
				if got := counter.Count(fl.ID[:]); got < fl.Count {
					t.Fatalf("flow count %d underestimated as %d (counts dropped)", fl.Count, got)
				}
			}
		})
	}
}
