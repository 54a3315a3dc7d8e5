package main

import (
	"os"
	"path/filepath"
	"testing"
)

// A three-thread process as /proc shows it.
var procFixture = map[string]string{
	"4242/status": "Name:\tshbfd\nState:\tS (sleeping)\nVmPeak:\t  300000 kB\nVmHWM:\t  196884 kB\nVmRSS:\t  190000 kB\nThreads:\t3\n" +
		"voluntary_ctxt_switches:\t5\nnonvoluntary_ctxt_switches:\t1\n",
	"4242/io":                  "rchar: 123456\nwchar: 654321\nsyscr: 1000\nsyscw: 900\nread_bytes: 0\nwrite_bytes: 0\ncancelled_write_bytes: 0\n",
	"4242/task/4242/schedstat": "1000000 200000 30\n",
	"4242/task/4242/status":    "Name:\tshbfd\nvoluntary_ctxt_switches:\t10\nnonvoluntary_ctxt_switches:\t2\n",
	"4242/task/4243/schedstat": "3000000 400000 70\n",
	"4242/task/4243/status":    "Name:\tshbfd\nvoluntary_ctxt_switches:\t100\nnonvoluntary_ctxt_switches:\t20\n",
	"4242/task/4250/schedstat": "500 0 1\n",
	"4242/task/4250/status":    "Name:\tshbfd\nvoluntary_ctxt_switches:\t0\nnonvoluntary_ctxt_switches:\t0\n",
}

func writeFixture(t *testing.T, files map[string]string) string {
	root := t.TempDir()
	for name, text := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestReadProcSumsThreads(t *testing.T) {
	s, err := readProc(writeFixture(t, procFixture), 4242)
	if err != nil {
		t.Fatal(err)
	}
	want := procSnap{CPUNs: 4000500, RunqNs: 600000, CtxSw: 132, Syscr: 1000, Syscw: 900, VmHWMkB: 196884, Threads: 3}
	if s != want {
		t.Errorf("readProc = %+v\nwant       %+v", s, want)
	}
}

func TestReadProcSkipsExitedThread(t *testing.T) {
	files := map[string]string{}
	for k, v := range procFixture {
		files[k] = v
	}
	delete(files, "4242/task/4250/schedstat") // the thread exited mid-listing
	s, err := readProc(writeFixture(t, files), 4242)
	if err != nil {
		t.Fatal(err)
	}
	if s.Threads != 2 || s.CPUNs != 4000000 {
		t.Errorf("readProc = %+v, want 2 threads and 4000000 ns", s)
	}
}

func TestProcSnapSub(t *testing.T) {
	a := procSnap{CPUNs: 10, RunqNs: 20, CtxSw: 3, Syscr: 4, Syscw: 5, VmHWMkB: 100, Threads: 2}
	b := procSnap{CPUNs: 15, RunqNs: 26, CtxSw: 10, Syscr: 9, Syscw: 5, VmHWMkB: 120, Threads: 3}
	want := procSnap{CPUNs: 5, RunqNs: 6, CtxSw: 7, Syscr: 5, Syscw: 0, VmHWMkB: 120, Threads: 3}
	if got := b.sub(a); got != want {
		t.Errorf("sub = %+v, want %+v", got, want)
	}
}

func TestProcParsersRejectMalformed(t *testing.T) {
	if _, _, err := parseSchedstat("123"); err == nil {
		t.Error("one-field schedstat accepted")
	}
	if _, _, err := parseSchedstat("x 1 2"); err == nil {
		t.Error("non-numeric schedstat accepted")
	}
	if _, err := parseCtxSwitches("voluntary_ctxt_switches:\t3\n"); err == nil {
		t.Error("status without nonvoluntary_ctxt_switches accepted")
	}
	if _, _, err := parseIO("syscr: 1\n"); err == nil {
		t.Error("io without syscw accepted")
	}
	if _, err := readProc(t.TempDir(), 1); err == nil {
		t.Error("missing process accepted")
	}
}

func TestReadProcSelf(t *testing.T) {
	s, err := readProc("/proc", os.Getpid())
	if err != nil {
		t.Skipf("no /proc here: %v", err)
	}
	if s.Threads < 1 || s.CPUNs == 0 || s.VmHWMkB == 0 {
		t.Errorf("readProc(self) = %+v", s)
	}
}
