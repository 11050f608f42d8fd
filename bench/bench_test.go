package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// These tests cover the benchmark's own arithmetic and parsing. They
// run no workload: `go test ./bench/...` stays well under 5 s.

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, tc.p); !near(got, tc.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, tc.p, got, tc.want)
		}
	}
	if got := median([]float64{4, 2}); got != 3 {
		t.Errorf("median of two = %v, want their mean 3", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

// Reference values are Python's statistics.quantiles(xs, n=4), the rule
// the acceptance driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{10.2, 9.8, 10.0, 10.4, 9.9, 10.1, 10.3, 9.7, 10.0, 10.6}, [3]float64{9.875, 10.05, 10.325}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if !near(q1, tc.want[0]) || !near(q2, tc.want[1]) || !near(q3, tc.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.xs, q1, q2, q3, tc.want)
		}
	}
	if got, want := spread([]float64{10.2, 9.8, 10.0, 10.4, 9.9, 10.1, 10.3, 9.7, 10.0, 10.6}), 0.45/10.05; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if spread([]float64{7}) != 0 {
		t.Error("one value has no spread")
	}
}

func TestSelfTimeIsDurationMinusUnionOfChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Start: 0, End: 10},
		{ID: 2, Parent: 1, Start: 1, End: 4},
		{ID: 3, Parent: 1, Start: 3, End: 6},  // overlaps span 2: a concurrent client
		{ID: 4, Parent: 1, Start: 8, End: 12}, // runs past the parent: clipped
		{ID: 5, Parent: 3, Start: 3, End: 5},
	}
	selfTimes(spans)
	for id, want := range map[int]float64{1: 3, 2: 3, 3: 1, 4: 4, 5: 2} {
		if got := spans[id-1].Self; !near(got, want) {
			t.Errorf("span %d self = %v, want %v", id, got, want)
		}
	}
}

func TestRecorder(t *testing.T) {
	var off *Recorder
	if id := off.Begin("x", 0); id != 0 {
		t.Errorf("nil recorder handed out span %d", id)
	}
	off.End(0)
	if off.Finish() != nil {
		t.Error("nil recorder returned spans")
	}
	var tr *tracer
	child, end := tr.span("x")
	end()
	if child != nil {
		t.Error("nil tracer produced a child")
	}

	rec := NewRecorder("wl", 3)
	root, endRoot := (&tracer{rec: rec}).span("iteration")
	_, endA := root.span("layer.a")
	endA()
	_, endB := root.span("layer.a")
	endB()
	endRoot()
	spans := rec.Finish()
	if len(spans) != 3 || spans[1].Parent != spans[0].ID || spans[0].Workload != "wl" || spans[0].Iter != 3 {
		t.Fatalf("unexpected spans %+v", spans)
	}
	if got := spanDurations(spans, "layer.a"); len(got) != 2 {
		t.Errorf("spanDurations found %d spans, want 2", len(got))
	}
	if spans[0].Self < 0 || spans[0].Self > spans[0].Duration() {
		t.Errorf("root self %v outside [0, %v]", spans[0].Self, spans[0].Duration())
	}
}

var burnSink float64

//go:noinline
func burnCPU(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			burnSink += math.Sqrt(float64(i))
		}
	}
}

// Round trip against a profile this test takes itself.
func TestParseCPUProfileRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	burnCPU(400 * time.Millisecond)
	pprof.StopCPUProfile()

	prof, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, burn int64
	for _, s := range prof.Samples {
		total += s.Nanos
		for _, fn := range s.Stack {
			if strings.HasSuffix(fn, ".burnCPU") {
				burn += s.Nanos
				break
			}
		}
	}
	if len(prof.Samples) == 0 || total < int64(100*time.Millisecond) {
		t.Fatalf("%d samples covering %v for 400ms of spinning", len(prof.Samples), time.Duration(total))
	}
	// Most samples unwind to burnCPU; under -race many stop in the
	// detector's own frames, so ask for a clear share, not a majority.
	if burn*10 < total {
		t.Errorf("burnCPU on the stack of %v of %v sampled", time.Duration(burn), time.Duration(total))
	}

	att := attribute(prof)
	sum := 0.0
	for _, v := range att.Bucket {
		sum += v
	}
	if !near(sum, att.Total) || !near(att.Total, float64(total)/1e9) {
		t.Errorf("buckets sum to %v, total %v, samples %v", sum, att.Total, float64(total)/1e9)
	}
	if att.Bucket["other"] < att.Total/2 { // no cpx/internal frame anywhere
		t.Errorf("spinning in the test binary should be \"other\": %+v", att.Bucket)
	}

	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

func TestAttributeChargesDeepestLayer(t *testing.T) {
	prof := &cpuProfile{Samples: []profSample{
		// stdlib work under a layer is charged to the layer that asked for it
		{Nanos: 1e9, Stack: []string{"runtime.memmove", "sort.Slice", "cpx/internal/coupler.(*KDTree).build", "cpx/internal/harness.Options.RunEngine", "main.main"}},
		// cluster is not a layer: its caller pays
		{Nanos: 2e9, Stack: []string{"cpx/internal/cluster.(*Machine).ComputeTime", "cpx/internal/mgcfd.(*Solver).Step", "cpx/internal/mpi.Run.func1"}},
		// a GC assist is the collector's, even under a layer; it is also malloc time
		{Nanos: 3e9, Stack: []string{"runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "cpx/internal/mpi.(*Comm).Send"}},
		{Nanos: 4e9, Stack: []string{"runtime.scanobject", "runtime.gcBgMarkWorker"}},
		{Nanos: 5e9, Stack: []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}},
		{Nanos: 6e9, Stack: []string{"net/http.(*conn).serve"}},
		{Nanos: 7e9, Stack: []string{"runtime.mallocgc", "cpx/internal/serve.(*Server).post.func1", "net/http.HandlerFunc.ServeHTTP"}},
	}}
	att := attribute(prof)
	want := map[string]float64{"coupler": 1, "mgcfd": 2, "gc": 7, "sched": 5, "other": 6, "serve": 7}
	for k, v := range want {
		if att.Bucket[k] != v {
			t.Errorf("bucket %s = %v, want %v", k, att.Bucket[k], v)
		}
	}
	if len(att.Bucket) != len(want) || att.Total != 28 {
		t.Errorf("buckets %+v, total %v", att.Bucket, att.Total)
	}
	if !near(att.MallocShare, 10.0/28) {
		t.Errorf("malloc share = %v, want %v", att.MallocShare, 10.0/28)
	}
}

func TestJudge(t *testing.T) {
	wall := metricDef{Name: "wall_s", Rel: 0.10}
	rate := metricDef{Name: "sweep_points_per_s", HigherBetter: true, Rel: 0.15}
	setup := metricDef{Name: "setup_s", Rel: 0.25, Abs: 0.2}
	mv := func(samples ...float64) MetricValue { return MetricValue{Value: median(samples), Samples: samples} }
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b MetricValue
		want string
	}{
		{"within bound", wall, mv(10, 10.1, 9.9), mv(10.5, 10.6, 10.4), verdictOK},
		{"beyond bound", wall, mv(10, 10.1, 9.9), mv(11.5, 11.6, 11.4), verdictWorse},
		{"faster", wall, mv(10, 10.1, 9.9), mv(5, 5.1, 4.9), verdictOK},
		{"noisy baseline", wall, mv(8, 10, 13), mv(11.5, 11.6, 11.4), verdictUnresolved},
		{"noisy but no change either", wall, mv(8, 10, 13), mv(10, 10.1, 9.9), verdictUnresolved},
		{"noisy yet every run better", wall, mv(8, 10, 13), mv(5, 6, 7), verdictOK},
		{"higher is better, dropped", rate, mv(6, 6.1, 5.9), mv(4, 4.1, 3.9), verdictWorse},
		{"higher is better, rose", rate, mv(6, 6.1, 5.9), mv(9, 9.1, 8.9), verdictOK},
		{"absolute floor of the bound", setup, mv(0.30, 0.31, 0.29), mv(0.45, 0.46, 0.44), verdictOK},
		{"past the absolute floor", setup, mv(0.30, 0.31, 0.29), mv(0.55, 0.56, 0.54), verdictWorse},
		{"single values have no spread", wall, MetricValue{Value: 10}, MetricValue{Value: 12}, verdictWorse},
	} {
		if got, _, _ := judge(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareRunsFlagsWorseAndFailedOps(t *testing.T) {
	run := func(wall float64, failed int) *RunFile {
		return &RunFile{Schema: runFileSchema, Workloads: []WorkloadResult{{Name: "engine", OpsAttempted: 20, OpsFailed: failed,
			EndToEnd: map[string]MetricValue{"wall_s": {Value: wall, Unit: "s", Samples: []float64{wall, wall * 1.01, wall * 0.99}}}}}}
	}
	var out bytes.Buffer
	if compareRuns(run(10, 0), run(10.2, 0), &out) {
		t.Errorf("2%% slower reported worse:\n%s", out.String())
	}
	if !compareRuns(run(10, 0), run(13, 0), &out) {
		t.Error("30% slower not reported worse")
	}
	if !compareRuns(run(10, 0), run(10, 1), &out) {
		t.Error("a newly failing check not reported worse")
	}
	if !strings.Contains(out.String(), "wall_s") || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("report lacks the metric row:\n%s", out.String())
	}
}

// BENCHMARK.json is the contract the acceptance driver reads; the tables
// in metrics.go and runner.go are what the program prints. They must
// name the same things.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	better := func(d metricDef) string {
		if d.HigherBetter {
			return "higher"
		}
		return "lower"
	}

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
	}

	var everywhere []metricDef
	for _, d := range endToEnd {
		if d.Workloads == nil {
			everywhere = append(everywhere, d)
		}
	}
	if len(bj.EndToEnd) != len(everywhere) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d defined on every workload", len(bj.EndToEnd), len(everywhere))
	}
	for i, d := range everywhere {
		m := bj.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != better(d) || m.Bound != d.Rel {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}

	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the program (at most 128)", len(bj.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		m := bj.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != better(d) {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if seen[d.Name] {
			t.Errorf("per-layer metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" || bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", bj.Paths, bj.RunSeconds)
	}
}

// The same seed must give the same inputs, another seed other inputs,
// and the sizes must not depend on the seed.
func TestServeInputsFollowTheSeed(t *testing.T) {
	gen := func(seed int64) serveInputs {
		w := &serveWL{refOffset: 1 + substream(seed, "serve-mix/ref-offset", 0).Int63n(100_000)}
		return w.genInputs(seed, 0)
	}
	a, b, c := gen(1), gen(1), gen(2)
	digest := func(in serveInputs) string {
		var sb strings.Builder
		for _, r := range in.cold {
			sb.Write(r.body)
		}
		for _, m := range in.model {
			sb.WriteString(m.path)
			sb.Write(m.body)
		}
		sb.Write(in.sweepBody)
		for _, o := range in.warmOrder {
			sb.WriteByte(byte(o))
		}
		return sb.String()
	}
	if digest(a) != digest(b) {
		t.Error("one seed gave two sets of inputs")
	}
	if digest(a) == digest(c) {
		t.Error("two seeds gave the same inputs")
	}
	for _, in := range []serveInputs{a, c} {
		if len(in.cold) != len(serveTemplates)*serveOffsets || len(in.warmOrder) != serveWarm ||
			len(in.model) != serveAllocates+serveFits || len(in.sweepOffsets) != sweepPoints {
			t.Errorf("sizes moved with the seed: %d cold, %d warm, %d model, %d sweep points",
				len(in.cold), len(in.warmOrder), len(in.model), len(in.sweepOffsets))
		}
		cached, distinct := 0, map[int64]bool{}
		for _, o := range in.sweepOffsets {
			distinct[o] = true
			for _, co := range in.offsets {
				if o == co {
					cached++
				}
			}
		}
		if cached != sweepCached || len(distinct) != sweepPoints {
			t.Errorf("sweep axis: %d of %d distinct points already computed, want %d of %d", cached, len(distinct), sweepCached, sweepPoints)
		}
	}
}

func TestResultLine(t *testing.T) {
	res := WorkloadResult{Name: "engine", OpsAttempted: 20,
		EndToEnd: map[string]MetricValue{"wall_s": {Value: 9.5, Unit: "s"}, "model_err_pct": {Value: 5, Unit: "%"}},
		PerLayer: map[string]MetricValue{"cpu.coupler_s": {Value: 14.8, Unit: "s"}}}
	var got struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	line, ok := resultLine([]WorkloadResult{res}, false)
	if err := json.Unmarshal([]byte(line), &got); err != nil || !ok || !got.Correct || got.Attempted != 20 {
		t.Fatalf("line %s: %v", line, err)
	}
	if len(got.Metrics) != 5 || got.Metrics["wall_s"].Value != 9.5 || got.Metrics["wall_s"].Unit != "s" {
		t.Errorf("end-to-end line carries %v", got.Metrics)
	}
	if _, ok := got.Metrics["model_err_pct"]; ok {
		t.Error("a metric not defined on every workload is on the driver's line")
	}

	line, _ = resultLine([]WorkloadResult{res}, true)
	got.Metrics = nil
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Metrics) != len(perLayer) || got.Metrics["cpu.coupler_s"].Value != 14.8 || got.Metrics["serve.cold_p80_ms"].Unit != "ms" {
		t.Errorf("per-layer line carries %d metrics, want every one of %d", len(got.Metrics), len(perLayer))
	}

	res.OpsFailed = 1
	if line, ok := resultLine([]WorkloadResult{res}, false); ok || !strings.Contains(line, `"correct":false`) {
		t.Errorf("a failed check must make the run incorrect: %s", line)
	}
}
