package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// procSnap is one process's kernel counters at an instant, summed over
// its threads: CPU time and run-queue wait from each task's schedstat,
// context switches from each task's status, read and write syscalls
// from the process's io file, and peak resident memory.
type procSnap struct {
	CPUNs   uint64 // time on CPU, user + system
	RunqNs  uint64 // time runnable but waiting for a CPU
	CtxSw   uint64 // voluntary + involuntary context switches
	Syscr   uint64 // read-class syscalls
	Syscw   uint64 // write-class syscalls
	VmHWMkB uint64 // peak resident set size
	Threads int
}

// sub is the counter growth from earlier to s (VmHWM and Threads are
// taken from s).
func (s procSnap) sub(earlier procSnap) procSnap {
	return procSnap{
		CPUNs:   s.CPUNs - earlier.CPUNs,
		RunqNs:  s.RunqNs - earlier.RunqNs,
		CtxSw:   s.CtxSw - earlier.CtxSw,
		Syscr:   s.Syscr - earlier.Syscr,
		Syscw:   s.Syscw - earlier.Syscw,
		VmHWMkB: s.VmHWMkB,
		Threads: s.Threads,
	}
}

// parseSchedstat parses /proc/<pid>/task/<tid>/schedstat: time on CPU
// (ns), time waiting on a run queue (ns), timeslices run.
func parseSchedstat(text string) (cpuNs, runqNs uint64, err error) {
	f := strings.Fields(text)
	if len(f) < 2 {
		return 0, 0, fmt.Errorf("schedstat: %d fields in %q", len(f), text)
	}
	if cpuNs, err = strconv.ParseUint(f[0], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("schedstat cpu: %w", err)
	}
	if runqNs, err = strconv.ParseUint(f[1], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("schedstat wait: %w", err)
	}
	return cpuNs, runqNs, nil
}

// statusFields reads the "Name:\tvalue kB" lines of a status file that
// are named in want.
func statusFields(text string, want ...string) (map[string]uint64, error) {
	out := make(map[string]uint64, len(want))
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		for _, w := range want {
			if name != w {
				continue
			}
			f := strings.Fields(rest)
			if len(f) == 0 {
				return nil, fmt.Errorf("status: empty %s", name)
			}
			v, err := strconv.ParseUint(f[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("status %s: %w", name, err)
			}
			out[name] = v
		}
	}
	for _, w := range want {
		if _, ok := out[w]; !ok {
			return nil, fmt.Errorf("status: no %s line", w)
		}
	}
	return out, nil
}

// parseCtxSwitches sums a task status file's voluntary and involuntary
// context switches.
func parseCtxSwitches(text string) (uint64, error) {
	f, err := statusFields(text, "voluntary_ctxt_switches", "nonvoluntary_ctxt_switches")
	if err != nil {
		return 0, err
	}
	return f["voluntary_ctxt_switches"] + f["nonvoluntary_ctxt_switches"], nil
}

// parseIO reads syscr and syscw from /proc/<pid>/io.
func parseIO(text string) (syscr, syscw uint64, err error) {
	f, err := statusFields(text, "syscr", "syscw")
	if err != nil {
		return 0, 0, err
	}
	return f["syscr"], f["syscw"], nil
}

// readProc snapshots process pid under the proc root (normally
// "/proc"; tests point it at fixture trees). Threads that exit between
// listing and reading are skipped.
func readProc(root string, pid int) (procSnap, error) {
	var s procSnap
	dir := filepath.Join(root, strconv.Itoa(pid))
	tasks, err := os.ReadDir(filepath.Join(dir, "task"))
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		ss, err1 := os.ReadFile(filepath.Join(dir, "task", t.Name(), "schedstat"))
		st, err2 := os.ReadFile(filepath.Join(dir, "task", t.Name(), "status"))
		if os.IsNotExist(err1) || os.IsNotExist(err2) {
			continue
		}
		if err1 != nil {
			return s, err1
		}
		if err2 != nil {
			return s, err2
		}
		cpu, runq, err := parseSchedstat(string(ss))
		if err != nil {
			return s, fmt.Errorf("task %s: %w", t.Name(), err)
		}
		ctx, err := parseCtxSwitches(string(st))
		if err != nil {
			return s, fmt.Errorf("task %s: %w", t.Name(), err)
		}
		s.CPUNs += cpu
		s.RunqNs += runq
		s.CtxSw += ctx
		s.Threads++
	}
	io, err := os.ReadFile(filepath.Join(dir, "io"))
	if err != nil {
		return s, err
	}
	if s.Syscr, s.Syscw, err = parseIO(string(io)); err != nil {
		return s, err
	}
	st, err := os.ReadFile(filepath.Join(dir, "status"))
	if err != nil {
		return s, err
	}
	f, err := statusFields(string(st), "VmHWM")
	if err != nil {
		return s, err
	}
	s.VmHWMkB = f["VmHWM"]
	return s, nil
}
