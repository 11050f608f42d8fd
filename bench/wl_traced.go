package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"cpx/internal/cluster"
	"cpx/internal/coupler"
	"cpx/internal/mesh"
	"cpx/internal/mpi"
	"cpx/internal/particle"
	"cpx/internal/telemetry"
	"cpx/internal/trace"
)

// tracedWL runs one coupled scenario plain and once more with event
// tracing and metric sampling on, then encodes every artifact. It is
// the only workload where internal/trace, internal/telemetry and the
// encoders carry weight, and it drives internal/mpi through its
// recording paths.
type tracedWL struct {
	seedOffset int64
	iters      []tracedIter
	last       *coupler.Report // traced report of the latest iteration
}

// tracedIter holds one iteration's results (not host times: those come
// from spans, in traced mode only).
type tracedIter struct {
	ok                   bool
	elapsed              float64
	digest               uint32
	ranks                int
	events               int
	messages, bytes      int64
	chromeMiB, seriesMiB float64
}

// tracedScenario is the fixed 4-instance / 3-CU, 240-rank scenario; the
// run seed only offsets the instance seeds. scale 1 over 20 density
// steps is the workload; the warm-up shrinks meshes, ranks and steps.
func tracedScenario(seedOffset int64, scale, steps int) *coupler.Simulation {
	cells := func(n int64) int64 { return n / int64(scale*scale*scale) }
	ranks := func(n int) int { return n / scale }
	rowCells := cells(24_000_000)
	return &coupler.Simulation{
		Instances: []coupler.InstanceSpec{
			{Name: "row1 (24M)", Kind: coupler.KindMGCFD, MeshCells: rowCells, Ranks: ranks(64), Seed: 1 + seedOffset},
			{Name: "row2 (24M)", Kind: coupler.KindMGCFD, MeshCells: rowCells, Ranks: ranks(64), Seed: 2 + seedOffset},
			{Name: "combustor (28M)", Kind: coupler.KindSIMPIC, MeshCells: cells(28_000_000), Ranks: ranks(64), Seed: 3 + seedOffset},
			{Name: "spray", Kind: coupler.KindParticle, MeshCells: cells(28_000_000), Ranks: ranks(32), Seed: 4 + seedOffset,
				Particle: &particle.Config{Strategy: particle.WorkSteal}},
		},
		Units: []coupler.UnitSpec{
			{Name: "CU rows 1-2 (sliding)", A: 0, B: 1, Kind: coupler.SlidingPlane,
				Points: mesh.InterfaceCells(mesh.CubeDims(rowCells), coupler.SlidingFraction),
				Ranks:  ranks(8), Search: coupler.TreePrefetch},
			{Name: "CU row-combustor (steady)", A: 1, B: 2, Kind: coupler.SteadyState,
				Points: mesh.InterfaceCells(mesh.CubeDims(rowCells), coupler.SteadyFraction),
				Ranks:  ranks(4), Search: coupler.TreePrefetch, ExchangeEvery: 20},
			{Name: "CU combustor-spray (steady)", A: 2, B: 3, Kind: coupler.SteadyState,
				Points: 50_000 / scale, Ranks: ranks(4), Search: coupler.TreePrefetch, ExchangeEvery: 20},
		},
		DensitySteps:    steps,
		RotationPerStep: 0.002,
		Scale:           coupler.ProductionScale(),
	}
}

const tracedSteps = 20

func tracedConfig() mpi.Config {
	return mpi.Config{Machine: cluster.ARCHER2(), Trace: true, Metrics: &telemetry.Config{}}
}

// countWriter discards what it is given and counts the bytes.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

func (w *tracedWL) Setup(seed int64) error {
	w.seedOffset = substream(seed, "traced-run/seed-offset", 0).Int63n(1000)
	w.iters = make([]tracedIter, maxIters+1)
	w.last = nil
	// Warm-up: the same topology at a quarter of the ranks and steps,
	// traced and exported once.
	rep, err := tracedScenario(w.seedOffset, 4, tracedSteps/4).Run(tracedConfig())
	if err != nil {
		return fmt.Errorf("warm-up run: %w", err)
	}
	if err := trace.WriteChromeTrace(io.Discard, rep.Stats.Timelines); err != nil {
		return fmt.Errorf("warm-up export: %w", err)
	}
	return nil
}

func (w *tracedWL) Inputs() any {
	return map[string]any{"seed_offset": w.seedOffset, "ranks": tracedScenario(0, 1, tracedSteps).TotalRanks(), "density_steps": tracedSteps}
}

func (w *tracedWL) Iterate(it int, tr *tracer, ck *checks) {
	w.last = nil // let the previous iteration's timelines go
	sim := tracedScenario(w.seedOffset, 1, tracedSteps)

	_, end := tr.span("coupler.run_plain")
	plain, err := sim.Run(mpi.Config{Machine: cluster.ARCHER2()})
	end()
	if !ck.check(err == nil, "plain run: %v", err) {
		return
	}
	_, end = tr.span("coupler.run_traced")
	rep, err := tracedScenario(w.seedOffset, 1, tracedSteps).Run(tracedConfig())
	end()
	if !ck.check(err == nil, "traced run: %v", err) {
		return
	}
	// Observing a run must not change it.
	digest, plainDigest := fold32(0, rep.RankDigests...), fold32(0, plain.RankDigests...)
	ck.check(rep.Elapsed == plain.Elapsed && digest == plainDigest,
		"traced run elapsed %v digest %08x, plain %v %08x", rep.Elapsed, digest, plain.Elapsed, plainDigest)

	_, end = tr.span("trace.critpath")
	cp, err := rep.Stats.CriticalPath()
	end()
	if ck.check(err == nil, "critical path: %v", err) {
		ck.check(math.Abs(cp.Total()-rep.Elapsed) <= 1e-9, "critical path total %v, elapsed %v", cp.Total(), rep.Elapsed)
	}

	var chrome, series, other countWriter
	export := func(span string, cw *countWriter, write func(io.Writer) error) {
		_, end := tr.span(span)
		err := write(cw)
		end()
		ck.check(err == nil && cw.n > 0, "%s: %d bytes, error %v", span, cw.n, err)
	}
	export("trace.chrome_write", &chrome, func(o io.Writer) error { return trace.WriteChromeTrace(o, rep.Stats.Timelines) })
	export("trace.commmatrix_write", &other, rep.Stats.CommMatrix.WriteCSV)
	export("trace.summary_write", &other, rep.Stats.Summary().WriteJSON)
	export("telemetry.series_write", &series, rep.Metrics.WriteCSV)

	cur := tracedIter{ok: true, elapsed: rep.Elapsed, digest: digest, ranks: sim.TotalRanks(),
		chromeMiB: float64(chrome.n) / mib, seriesMiB: float64(series.n) / mib}
	dropped := 0
	for _, tl := range rep.Stats.Timelines {
		cur.events += len(tl.Events)
		dropped += tl.Dropped
	}
	ck.check(dropped == 0, "%d trace events dropped", dropped)
	cur.messages, cur.bytes = rep.Stats.CommMatrix.Totals()
	w.iters[it] = cur
	w.last = rep
	if ref := w.iters[0]; it > 0 && ref.ok {
		ck.check(cur == ref, "iteration %d results %+v differ from the first %+v", it, cur, ref)
	}
}

// chromeSpans parses a Chrome trace-event stream element by element and
// counts its complete ("X") spans.
func chromeSpans(r io.Reader) (int, error) {
	dec := json.NewDecoder(r)
	// {"traceEvents":[ ...
	for i := 0; i < 3; i++ {
		tok, err := dec.Token()
		if err != nil {
			return 0, err
		}
		if i == 1 && tok != "traceEvents" {
			return 0, fmt.Errorf("first key %v, want traceEvents", tok)
		}
	}
	spans := 0
	for dec.More() {
		var ev struct {
			Ph string `json:"ph"`
		}
		if err := dec.Decode(&ev); err != nil {
			return 0, err
		}
		if ev.Ph == "X" {
			spans++
		}
	}
	// Drain the rest so the writer is never left blocked on the pipe.
	_, err := io.Copy(io.Discard, io.MultiReader(dec.Buffered(), r))
	return spans, err
}

func (w *tracedWL) EndToEnd(ms *metricSet, n int, ck *checks) {
	// The Chrome trace must parse and hold one span per recorded event.
	// Checked once, outside the timed iterations, on the latest report.
	if w.last == nil {
		return
	}
	pr, pw := io.Pipe()
	written := make(chan struct{})
	go func() {
		defer close(written)
		pw.CloseWithError(trace.WriteChromeTrace(pw, w.last.Stats.Timelines))
	}()
	spans, err := chromeSpans(pr)
	pr.Close() // unblocks the writer if parsing stopped early
	<-written
	want := w.iters[n-1].events
	ck.check(err == nil && spans == want, "chrome trace: %d spans for %d events, error %v", spans, want, err)
}

func (w *tracedWL) PerLayer(ms *metricSet, it int, spans []Span, ck *checks) {
	sec := func(name string) float64 { return median(spanDurations(spans, name)) }
	plain, traced := sec("coupler.run_plain"), sec("coupler.run_traced")
	ms.set("coupler.run_plain_s", plain, 1)
	ms.set("coupler.run_traced_s", traced, 1)
	ms.set("trace.overhead_ratio", traced/plain, 1)
	ms.set("trace.critpath_ms", 1e3*sec("trace.critpath"), 1)
	ms.set("trace.chrome_write_ms", 1e3*sec("trace.chrome_write"), 1)
	ms.set("trace.commmatrix_write_ms", 1e3*sec("trace.commmatrix_write"), 1)
	ms.set("trace.summary_write_ms", 1e3*sec("trace.summary_write"), 1)
	ms.set("telemetry.series_write_ms", 1e3*sec("telemetry.series_write"), 1)
	r := w.iters[it]
	ms.set("trace.chrome_mib", r.chromeMiB, 1)
	ms.set("telemetry.series_mib", r.seriesMiB, 1)
	ms.set("trace.events", float64(r.events), 1)
	ms.set("virtual.elapsed_s", r.elapsed, 1)
	ms.set("virtual.digest32", float64(r.digest), 1)
	ms.set("virtual.ranks", float64(r.ranks), 1)
	ms.set("virtual.messages", float64(r.messages), 1)
	ms.set("virtual.bytes", float64(r.bytes), 1)
}
