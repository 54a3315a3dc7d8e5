package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shbf/internal/experiment"
)

func TestRunSingleFigure(t *testing.T) {
	dir := t.TempDir()
	cfg := experiment.Quick()
	if err := run("3", dir, cfg); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig3a.txt", "fig3a.csv", "fig3b.txt", "fig3b.csv"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("missing output %s: %v", want, err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig3a.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "wbar,") {
		t.Errorf("csv header: %q", strings.SplitN(string(data), "\n", 2)[0])
	}
}

func TestRunTable(t *testing.T) {
	dir := t.TempDir()
	cfg := experiment.Quick()
	if err := run("table2", dir, cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table2.txt"))
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	for _, want := range []string{"iBF", "ShBF_A", "P(clear)"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q", want)
		}
	}
}

func TestRunMultipleIDs(t *testing.T) {
	cfg := experiment.Quick()
	if err := run("3,4", "", cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run("nope", "", experiment.Quick()); err == nil {
		t.Fatal("unknown figure id accepted")
	}
}

func TestRunnersCoverEveryExperiment(t *testing.T) {
	want := map[string]bool{
		"3": true, "4": true, "7": true, "8": true, "9": true,
		"table2": true, "10": true, "11": true,
		"general": true, "scm": true, "update": true, "updates": true, "zoo": true,
		"costmodel": true, "multiset": true, "skew": true, "window": true,
	}
	for _, r := range runners {
		delete(want, r.id)
		if r.figs == nil && r.tab == nil {
			t.Errorf("runner %s has no implementation", r.id)
		}
		if r.desc == "" {
			t.Errorf("runner %s has no description", r.id)
		}
	}
	if len(want) != 0 {
		t.Errorf("missing runners: %v", want)
	}
}
