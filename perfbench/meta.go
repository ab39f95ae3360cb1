package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"agilepower"
)

// runMeta identifies what was measured and where, so two sets of runs
// can be compared and a run from another machine spotted.
type runMeta struct {
	Workload    string         `json:"workload"`
	Seed        uint64         `json:"seed"`
	Seconds     int            `json:"seconds"`
	Traced      bool           `json:"traced"`
	Commit      string         `json:"commit"`
	CodeVersion string         `json:"codeVersion"`
	GoVersion   string         `json:"goVersion"`
	NumCPU      int            `json:"nproc"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	Sizes       map[string]int `json:"sizes"`
	// CalibNs is the speed of this CPU before and after the workload,
	// as calibrate measures it: a run whose figures moved together with
	// these was measured in a slow spell of the machine, not on slower
	// code.
	CalibNs [2]float64 `json:"calibNsPerIter"`
}

func newMeta(workload string, seed uint64, seconds int, traced bool, sizes map[string]int, calib [2]float64) runMeta {
	return runMeta{
		Workload:    workload,
		Seed:        seed,
		Seconds:     seconds,
		Traced:      traced,
		Commit:      commit(),
		CodeVersion: agilepower.CodeVersion,
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Sizes:       sizes,
		CalibNs:     calib,
	}
}

// calibSink keeps the compiler from dropping the calibration loop.
var calibSink uint64

// calibrate times a fixed integer loop that touches no memory and
// calls nothing, and returns its median ns per iteration over five
// rounds: a figure the program under test cannot move.
func calibrate() float64 {
	const iters = 1 << 22
	var rounds []float64
	for r := 0; r < 5; r++ {
		x := uint64(r + 1)
		start := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		rounds = append(rounds, float64(time.Since(start).Nanoseconds())/iters)
		calibSink += x
	}
	return summarize(rounds).Median
}

// commit is the VCS revision the binary was built from, as the go
// tool stamped it; a build outside a git checkout has none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// cpuSeconds reads a process's user plus system CPU time from
// /proc/<pid>/stat, in clock ticks of 1/100 s (USER_HZ on Linux).
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name in parentheses may hold spaces; the fields
	// after it start with the state, field 3, so utime (14) and stime
	// (15) are the 12th and 13th.
	paren := bytes.LastIndexByte(data, ')')
	if paren < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	fields := strings.Fields(string(data[paren+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	var ticks float64
	for _, f := range fields[11:13] {
		t, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, err
		}
		ticks += t
	}
	return ticks / 100, nil
}

// rssEvery is how often an rssSampler reads the resident set: often
// enough to catch a GC cycle's peak (the runtime returns freed pages
// to the OS over seconds, not milliseconds), cheap enough not to take
// the simulation's core.
const rssEvery = 5 * time.Millisecond

// rssSampler tracks the highest resident set of this process between
// sampleRSS and end.
type rssSampler struct {
	stop chan struct{}
	peak chan float64
}

func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), peak: make(chan float64)}
	go func() {
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		peak := rssMB()
		for {
			select {
			case <-s.stop:
				s.peak <- max(peak, rssMB())
				return
			case <-t.C:
				peak = max(peak, rssMB())
			}
		}
	}()
	return s
}

// end stops the sampler and returns the peak it saw, in MiB.
func (s *rssSampler) end() float64 {
	close(s.stop)
	return <-s.peak
}

// rssMB reads this process's current resident set in MiB from
// /proc/self/statm, or 0 if it cannot.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, os.ErrNotExist
}
