package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// substream derives an independent generator for one (workload,
// purpose, index) from the run seed, so every input is a function of
// -seed alone and iterations do not share draws.
func substream(seed int64, label string, i int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, label, i)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// checks counts the in-run correctness checks: every operation whose
// output the benchmark verifies is one attempt.
type checks struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string // first few, for the report
}

const maxFailureNotes = 20

// check records one verified operation.
func (c *checks) check(ok bool, format string, args ...any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !ok {
		c.failed++
		if len(c.failures) < maxFailureNotes {
			c.failures = append(c.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// tracer hands a workload the span recorder of a traced iteration. A
// nil tracer (every end-to-end iteration) records nothing.
type tracer struct {
	rec    *Recorder
	parent int
}

// span opens a child span and returns the tracer for its own children
// plus the function that closes it.
func (t *tracer) span(name string) (*tracer, func()) {
	if t == nil {
		return nil, func() {}
	}
	id := t.rec.Begin(name, t.parent)
	return &tracer{rec: t.rec, parent: id}, func() { t.rec.End(id) }
}

// iterSample is the host cost of one iteration.
type iterSample struct {
	wall, cpu, allocMiB, peakRSSMiB float64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

const mib = 1 << 20

// resetPeakRSS collects, hands the freed heap back to the system and
// restarts the kernel's resident-set high-water mark. Best effort: on
// kernels without the knob the mark stays cumulative.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// measure times f: wall clock, user+sys CPU of the whole process, bytes
// allocated and the resident-set peak. Every iteration starts on the
// footing of a fresh process: heap collected and returned, high-water
// mark reset.
func measure(f func()) iterSample {
	resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	f()
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - c0
	runtime.ReadMemStats(&m1)
	return iterSample{wall: wall, cpu: cpu, allocMiB: float64(m1.TotalAlloc-m0.TotalAlloc) / mib, peakRSSMiB: peakRSSMiB()}
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// runtimeCost is what the Go runtime reports about a profiled call.
type runtimeCost struct {
	cpu        cpuAttribution
	gcCycles   float64
	gcPauseMs  float64
	heapPeakMB float64
}

// profiled runs f under a CPU profile and returns its CPU time by layer
// and the collector's counters.
func profiled(f func()) (runtimeCost, error) {
	var buf bytes.Buffer
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return runtimeCost{}, fmt.Errorf("start CPU profile: %w", err)
	}
	f()
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&m1)
	prof, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		return runtimeCost{}, err
	}
	return runtimeCost{
		cpu:        attribute(prof),
		gcCycles:   float64(m1.NumGC - m0.NumGC),
		gcPauseMs:  float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
		heapPeakMB: float64(m1.HeapSys) / mib,
	}, nil
}

// medianOf times f n times and returns the median duration in seconds.
func medianOf(n int, f func()) float64 {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = time.Since(t0).Seconds()
	}
	return median(ds)
}
