package main

import "time"

// workload is one set of inputs the benchmark runs. Implementations
// live in wl_*.go; they call only public functions of cpx/internal
// packages and time them from outside.
type workload interface {
	// Setup draws every input of the run from the seed, builds what the
	// iterations need and runs one fixed warm-up operation. It is called
	// several times in a row; each call starts over.
	Setup(seed int64) error
	// Inputs describes the generated inputs, for the record.
	Inputs() any
	// Iterate runs iteration it on its pre-generated inputs, verifying
	// the program's outputs through ck. tr is nil unless traced.
	Iterate(it int, tr *tracer, ck *checks)
	// EndToEnd reports the workload's own end-to-end metrics over
	// iterations [0,n) and runs the checks that span iterations.
	EndToEnd(ms *metricSet, n int, ck *checks)
	// PerLayer reports per-layer metrics of traced iteration it from its
	// spans and runs the workload's own probes.
	PerLayer(ms *metricSet, it int, spans []Span, ck *checks)
}

type workloadDef struct {
	name  string
	why   string
	iters int // iterations of a full set (no -seconds)
	new   func() workload
}

// The four workloads; BENCHMARK.json repeats names and reasons.
var workloads = []workloadDef{
	{"engine", "Fig. 9 pipeline at a budget that finishes: coupler-dominated, almost no solver-kernel work", 3,
		func() workload { return &engineWL{} }},
	{"pe-sweep", "standalone PE points with no coupler: solver-kernel-dominated, must not move on a coupler fix", 3,
		func() workload { return &peSweepWL{} }},
	{"serve-mix", "HTTP request path, cache tiers, pool and registry: cache hits beside misses and disk writes", 2,
		func() workload { return &serveWL{} }},
	{"traced-run", "mpi event recording, comm matrix, telemetry and artifact encode carry the weight", 5,
		func() workload { return &tracedWL{} }},
}

const (
	// setupRepeats: setup_s is the median of this many set-ups, so one
	// cold first call does not decide it.
	setupRepeats = 5
	// maxIters bounds a -seconds run; inputs are drawn for this many
	// iterations plus the traced one (slot maxIters) before timing starts.
	maxIters = 8
)

type options struct {
	seed    int64
	seconds float64 // 0: run the workload's full-set iteration count
	traced  bool
}

func runWorkload(def workloadDef, opt options) WorkloadResult {
	w := def.new()
	ck := &checks{}
	res := WorkloadResult{Name: def.name}
	finish := func() WorkloadResult {
		res.OpsAttempted, res.OpsFailed, res.Failures = ck.attempted, ck.failed, ck.failures
		return res
	}

	setups := make([]float64, setupRepeats)
	for i := range setups {
		t0 := time.Now()
		err := w.Setup(opt.seed)
		setups[i] = time.Since(t0).Seconds()
		if !ck.check(err == nil, "setup: %v", err) {
			return finish()
		}
	}
	res.Inputs = w.Inputs()

	// End-to-end iterations: tracing, profiling and probes off. With
	// -seconds the count is whatever fills that time to the nearest
	// iteration; sizes never change.
	var walls, cpus, allocs, peaks []float64
	elapsed := 0.0
	for it := 0; it < maxIters; it++ {
		s := measure(func() { w.Iterate(it, nil, ck) })
		walls, cpus, allocs = append(walls, s.wall), append(cpus, s.cpu), append(allocs, s.allocMiB)
		peaks = append(peaks, s.peakRSSMiB)
		elapsed += s.wall
		if opt.seconds > 0 {
			if elapsed+s.wall/2 >= opt.seconds {
				break
			}
		} else if it+1 == def.iters {
			break
		}
	}
	n := len(walls)
	res.Iterations = n

	e2e := newMetricSet(endToEnd)
	e2e.setMedian("setup_s", setups)
	e2e.setMedian("wall_s", walls)
	e2e.setMedian("cpu_s", cpus)
	e2e.setMedian("alloc_mib", allocs)
	e2e.setMedian("peak_rss_mib", peaks)
	w.EndToEnd(e2e, n, ck)
	res.EndToEnd = e2e.values

	if opt.traced {
		// One more iteration with spans and a CPU profile on, then the
		// isolated probes. Its cost against the untraced median is the
		// tracing overhead. It always runs the last input slot, so its
		// virtual.* do not depend on how many iterations came before.
		it := maxIters
		rec := NewRecorder(def.name, it)
		var ts iterSample
		cost, err := profiled(func() {
			ts = measure(func() {
				tr, end := (&tracer{rec: rec}).span("iteration")
				w.Iterate(it, tr, ck)
				end()
			})
		})
		ck.check(err == nil, "cpu profile: %v", err)
		res.Spans = rec.Finish()

		pl := newMetricSet(perLayer)
		pl.set("cpu.total_s", cost.cpu.Total, 1)
		for _, b := range cpuBuckets {
			pl.set("cpu."+b+"_s", cost.cpu.Bucket[b], 1)
		}
		pl.set("cpu.malloc_share", cost.cpu.MallocShare, 1)
		pl.set("go.gc_cycles", cost.gcCycles, 1)
		pl.set("go.gc_pause_ms", cost.gcPauseMs, 1)
		pl.set("go.heap_peak_mib", cost.heapPeakMB, 1)
		pl.set("host.parallelism", ts.cpu/ts.wall, 1)
		pl.set("bench.trace_overhead_ratio", ts.wall/median(walls), 1)
		w.PerLayer(pl, it, res.Spans, ck)
		runProbes(pl)
		res.PerLayer = pl.values
	}
	return finish()
}
