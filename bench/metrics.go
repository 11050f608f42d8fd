package main

// metricDef names one metric, its unit and — for end-to-end metrics —
// the bound by which it may worsen before -compare calls it a
// regression: the larger of Rel (share of the baseline) and Abs (same
// unit as the metric).
type metricDef struct {
	Name         string
	Unit         string
	HigherBetter bool
	Rel, Abs     float64
	// Workloads lists where the metric is defined; nil means every
	// workload, which is also what BENCHMARK.json's end_to_end holds.
	Workloads []string
}

// endToEnd is what a user of the system pays or sees. The first five
// exist on every workload and are the BENCHMARK.json end_to_end list
// (bench_test.go holds the two in step); the rest are printed, written
// with -out and compared by -compare where they are defined. The bounds
// of the timings are three times the widest spread ten fresh processes
// showed on the reference host (README.md, "Reference host and recorded
// baseline"); peak_rss_mib's is the largest the contract allows.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Rel: 0.25, Abs: 0.2},
	{Name: "wall_s", Unit: "s", Rel: 0.20},
	{Name: "cpu_s", Unit: "s", Rel: 0.20},
	{Name: "alloc_mib", Unit: "MiB", Rel: 0.03},
	{Name: "peak_rss_mib", Unit: "MiB", Rel: 0.25},
	{Name: "model_err_pct", Unit: "%", Abs: 0.5, Workloads: []string{"engine", "pe-sweep"}},
	{Name: "cold_p50_ms", Unit: "ms", Rel: 0.20, Workloads: []string{"serve-mix"}},
	{Name: "warm_p50_us", Unit: "us", Rel: 0.20, Workloads: []string{"serve-mix"}},
	{Name: "warm_p95_us", Unit: "us", Rel: 0.30, Workloads: []string{"serve-mix"}},
	{Name: "sweep_points_per_s", Unit: "1/s", HigherBetter: true, Rel: 0.20, Workloads: []string{"serve-mix"}},
}

// perLayer lists every per-layer metric with its unit, in report order.
// It is the BENCHMARK.json per_layer list. A metric a workload does not
// produce is left out of the table and the -out file and reads 0 on the
// driver's result line, which must carry every name.
var perLayer = []metricDef{
	// Spans around public calls.
	{Name: "harness.engine_base_s", Unit: "s"},
	{Name: "harness.engine_opt_s", Unit: "s"},
	{Name: "harness.pressure_s", Unit: "s"},
	{Name: "harness.simpic_s", Unit: "s"},
	{Name: "harness.mgcfd_s", Unit: "s"},
	{Name: "harness.pressure_p512_s", Unit: "s"},
	{Name: "harness.simpic_p4096_s", Unit: "s"},
	{Name: "harness.mgcfd_p2048_s", Unit: "s"},
	{Name: "coupler.run_plain_s", Unit: "s"},
	{Name: "coupler.run_traced_s", Unit: "s"},
	{Name: "trace.overhead_ratio", Unit: "ratio"},
	{Name: "trace.critpath_ms", Unit: "ms"},
	{Name: "trace.chrome_write_ms", Unit: "ms"},
	{Name: "trace.chrome_mib", Unit: "MiB"},
	{Name: "trace.commmatrix_write_ms", Unit: "ms"},
	{Name: "trace.summary_write_ms", Unit: "ms"},
	{Name: "telemetry.series_write_ms", Unit: "ms"},
	{Name: "telemetry.series_mib", Unit: "MiB"},
	{Name: "trace.events", Unit: "count", HigherBetter: true},
	{Name: "serve.cold_demo_p50_ms", Unit: "ms"},
	{Name: "serve.cold_sliding_p50_ms", Unit: "ms"},
	{Name: "serve.cold_particle_p50_ms", Unit: "ms"},
	{Name: "serve.cold_p80_ms", Unit: "ms"},
	{Name: "serve.warm_p99_us", Unit: "us"},
	{Name: "serve.warm_p999_us", Unit: "us"},
	{Name: "serve.handler_warm_us", Unit: "us"},
	{Name: "serve.disk_hit_p50_us", Unit: "us"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", HigherBetter: true},
	{Name: "serve.allocate_p50_ms", Unit: "ms"},
	{Name: "serve.fit_p50_ms", Unit: "ms"},
	{Name: "serve.sweep_first_point_ms", Unit: "ms"},
	{Name: "serve.sweep_total_s", Unit: "s"},
	{Name: "serve.rejected_429", Unit: "count"},
	{Name: "serve.spec_build_us", Unit: "us"},
	{Name: "coupler.run_demo_ms", Unit: "ms"},
	{Name: "serve.overhead_ms", Unit: "ms"},
	// CPU attribution of the traced iteration, by layer.
	{Name: "cpu.total_s", Unit: "s"},
	{Name: "cpu.mpi_s", Unit: "s"},
	{Name: "cpu.coupler_s", Unit: "s"},
	{Name: "cpu.mgcfd_s", Unit: "s"},
	{Name: "cpu.simpic_s", Unit: "s"},
	{Name: "cpu.pressure_s", Unit: "s"},
	{Name: "cpu.amg_s", Unit: "s"},
	{Name: "cpu.sparse_s", Unit: "s"},
	{Name: "cpu.spray_s", Unit: "s"},
	{Name: "cpu.particle_s", Unit: "s"},
	{Name: "cpu.mesh_s", Unit: "s"},
	{Name: "cpu.partition_s", Unit: "s"},
	{Name: "cpu.perfmodel_s", Unit: "s"},
	{Name: "cpu.harness_s", Unit: "s"},
	{Name: "cpu.serve_s", Unit: "s"},
	{Name: "cpu.trace_s", Unit: "s"},
	{Name: "cpu.telemetry_s", Unit: "s"},
	{Name: "cpu.fault_s", Unit: "s"},
	{Name: "cpu.gc_s", Unit: "s"},
	{Name: "cpu.sched_s", Unit: "s"},
	{Name: "cpu.other_s", Unit: "s"},
	{Name: "cpu.malloc_share", Unit: "ratio"},
	{Name: "go.gc_cycles", Unit: "count"},
	{Name: "go.gc_pause_ms", Unit: "ms"},
	{Name: "go.heap_peak_mib", Unit: "MiB"},
	{Name: "host.parallelism", Unit: "ratio", HigherBetter: true},
	// Isolated probes on fixed inputs.
	{Name: "coupler.kdtree_build_us", Unit: "us"},
	{Name: "coupler.map_rebuild_us", Unit: "us"},
	{Name: "coupler.map_incremental_us", Unit: "us"},
	{Name: "mesh.decomp_local_us", Unit: "us"},
	{Name: "partition.rcb_ms", Unit: "ms"},
	{Name: "partition.rcbtree_build_ms", Unit: "ms"},
	{Name: "sparse.mulvec_ns_per_nnz", Unit: "ns"},
	{Name: "sparse.spgemm_ms", Unit: "ms"},
	{Name: "amg.setup_ms", Unit: "ms"},
	{Name: "amg.pcg_ms", Unit: "ms"},
	{Name: "amg.pcg_iters", Unit: "count"},
	{Name: "perfmodel.fit_us", Unit: "us"},
	{Name: "perfmodel.allocate_ms", Unit: "ms"},
	{Name: "mpi.coll512_ms", Unit: "ms"},
	{Name: "mpi.coll512_fast_ms", Unit: "ms"},
	{Name: "mpi.coll512_event_ms", Unit: "ms"},
	{Name: "mpi.coll512_event_fast_ms", Unit: "ms"},
	{Name: "mpi.coll512_allocs", Unit: "count"},
	{Name: "mpi.ring512_ms", Unit: "ms"},
	{Name: "mpi.ring512_event_ms", Unit: "ms"},
	{Name: "mpi.launch4096_ms", Unit: "ms"},
	{Name: "mpi.launch4096_event_ms", Unit: "ms"},
	// Simulated statistics: identical under any host-only change.
	{Name: "virtual.elapsed_s", Unit: "s"},
	{Name: "virtual.digest32", Unit: "count"},
	{Name: "virtual.ranks", Unit: "count"},
	{Name: "virtual.messages", Unit: "count"},
	{Name: "virtual.bytes", Unit: "count"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio"},
}

// MetricValue is one reported number. Samples are the per-iteration
// values behind a median, kept so -compare can see the set's own spread.
type MetricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// metricSet collects values against a definition table, so a misspelt
// name fails loudly instead of vanishing from the report.
type metricSet struct {
	defs   []metricDef
	values map[string]MetricValue
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]MetricValue{}}
}

func (ms *metricSet) unit(name string) string {
	for _, d := range ms.defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("bench: undefined metric " + name)
}

// set records a single measured value; n is how many observations
// stand behind it.
func (ms *metricSet) set(name string, v float64, n int) {
	ms.values[name] = MetricValue{Value: v, Unit: ms.unit(name), N: n}
}

// setMedian records the median of per-iteration samples.
func (ms *metricSet) setMedian(name string, samples []float64) {
	ms.setMedianOf(name, samples, len(samples))
}

// setMedianOf is setMedian for samples that each summarise many
// observations (a percentile per iteration): n is the total behind them.
func (ms *metricSet) setMedianOf(name string, samples []float64, n int) {
	ms.values[name] = MetricValue{Value: median(samples), Unit: ms.unit(name), N: n, Samples: samples}
}

// WorkloadResult is everything one workload reports.
type WorkloadResult struct {
	Name         string                 `json:"name"`
	Iterations   int                    `json:"iterations"`
	Inputs       any                    `json:"inputs"`
	OpsAttempted int                    `json:"ops_attempted"`
	OpsFailed    int                    `json:"ops_failed"`
	Failures     []string               `json:"failures,omitempty"`
	EndToEnd     map[string]MetricValue `json:"end_to_end"`
	PerLayer     map[string]MetricValue `json:"per_layer,omitempty"`
	Spans        []Span                 `json:"spans,omitempty"`
}

// RunFile is what -out writes and -compare reads.
type RunFile struct {
	Schema     string           `json:"schema"`
	Seed       int64            `json:"seed"`
	Traced     bool             `json:"traced"`
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NumCPU     int              `json:"num_cpu"`
	Workloads  []WorkloadResult `json:"workloads"`
}

const runFileSchema = "cpx-bench/1"
