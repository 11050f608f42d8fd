// Command cpxsim runs a coupled mini-app simulation described by a JSON
// configuration file and reports per-component virtual run-times.
//
// Usage:
//
//	cpxsim -config engine.json
//	cpxsim -demo            # run a built-in three-component demo
//	cpxsim -demo -critpath -trace trace.json -commmatrix comm.csv -json summary.json
//	cpxsim -demo -faults 0.05 -ckpt 2      # inject crashes (MTBF 50ms), checkpoint every 2 steps
//	cpxsim -demo -metrics series.csv       # sample virtual-time metrics (.csv → CSV, else JSON)
//
// The export flags enable event tracing: -trace writes a Chrome/Perfetto
// trace-event JSON timeline (open at ui.perfetto.dev), -commmatrix the
// rank×rank communication matrix CSV, -json a machine-readable run
// summary, and -critpath prints which instance or coupling unit sits on
// the virtual-time critical path. -metrics samples per-rank and
// per-component counters (messages, bytes, compute/comm/wait split,
// mailbox depth, collectives) at fixed virtual-time intervals
// (-metrics-interval) without perturbing the run. If an aborted or
// failed run produced partial timelines or series, the export flags
// still write them — and the -json summary of a faulty run carries the
// flight-recorder tail of each failed rank.
//
// -seed offsets every instance's setup seed and seeds the fault plan, so
// two invocations with the same seed replay bitwise-identical runs.
// -faults MTBF injects deterministic rank crashes with the given mean
// time between failures (virtual seconds); the run recovers via
// coordinated checkpoint/restart at the -ckpt interval (density steps)
// and reports the resilience accounting.
//
// Configuration schema (JSON):
//
//	{
//	  "densitySteps": 10,
//	  "rotationPerStep": 0.002,
//	  "instances": [
//	    {"name": "row1", "kind": "mgcfd",  "meshCells": 24000000, "ranks": 64},
//	    {"name": "comb", "kind": "simpic", "meshCells": 28000000, "ranks": 128},
//	    {"name": "spray", "kind": "particle", "meshCells": 28000000, "ranks": 32,
//	     "droplets": 7000000, "strategy": "steal", "coneFraction": 0.25,
//	     "imbalanceThreshold": 1.5}
//	  ],
//	  "units": [
//	    {"name": "cu1", "a": 0, "b": 1, "kind": "steady", "points": 50000,
//	     "ranks": 4, "search": "prefetch", "exchangeEvery": 20}
//	  ]
//	}
//
// An instance "kind" is mgcfd, simpic, fem or particle; a unit "kind" is
// sliding (the default) or steady; "search" is brute, tree or prefetch
// (the default). Any other spelling is rejected naming the field.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"cpx/internal/cluster"
	"cpx/internal/coupler"
	"cpx/internal/fault"
	"cpx/internal/mpi"
	"cpx/internal/serve"
	"cpx/internal/telemetry"
	"cpx/internal/trace"
)

// demoConfig is the built-in three-component engine demo.
func demoConfig() *serve.SimSpec {
	return &serve.SimSpec{
		DensitySteps:    4,
		RotationPerStep: 0.002,
		Instances: []serve.InstanceSpec{
			{Name: "compressor", Kind: "mgcfd", MeshCells: 100_000, Ranks: 8, Seed: 1},
			{Name: "combustor", Kind: "simpic", MeshCells: 28_000_000, Ranks: 8, Seed: 2},
			{Name: "turbine", Kind: "mgcfd", MeshCells: 100_000, Ranks: 8, Seed: 3},
		},
		Units: []serve.UnitSpec{
			{Name: "hpc-comb", A: 0, BIdx: 1, Kind: "steady", Points: 50_000, Ranks: 2, Search: "prefetch", ExchangeEvery: 2},
			{Name: "comb-hpt", A: 1, BIdx: 2, Kind: "steady", Points: 50_000, Ranks: 2, Search: "prefetch", ExchangeEvery: 2},
		},
	}
}

func main() {
	path := flag.String("config", "", "JSON simulation description")
	demo := flag.Bool("demo", false, "run a built-in three-component demo")
	tracePath := flag.String("trace", "", "write a Chrome/Perfetto trace-event JSON timeline to FILE")
	commPath := flag.String("commmatrix", "", "write the rank×rank comm matrix CSV to FILE")
	jsonPath := flag.String("json", "", "write a JSON run summary to FILE")
	critPath := flag.Bool("critpath", false, "print the critical-path breakdown per component")
	seed := flag.Int64("seed", 0, "offset instance setup seeds and seed the fault plan")
	faults := flag.Float64("faults", 0, "inject rank crashes with this MTBF in virtual seconds (0 disables)")
	ckpt := flag.Int("ckpt", 0, "coordinated-checkpoint interval in density steps (0 disables)")
	metricsPath := flag.String("metrics", "", "sample per-rank/per-component virtual-time metrics to FILE (.csv selects CSV, else JSON)")
	metricsInterval := flag.Float64("metrics-interval", 0, "virtual-time sampling period in seconds (0 = default 0.01)")
	flag.Parse()

	var jc serve.SimSpec
	switch {
	case *demo:
		jc = *demoConfig()
	case *path != "":
		raw, err := os.ReadFile(*path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpxsim: %v\n", err)
			os.Exit(1)
		}
		if err := json.Unmarshal(raw, &jc); err != nil {
			fmt.Fprintf(os.Stderr, "cpxsim: parsing %s: %v\n", *path, err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "cpxsim: need -config FILE or -demo")
		os.Exit(2)
	}

	jc.ApplySeed(*seed)
	sim, err := jc.Build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "cpxsim: %v\n", err)
		os.Exit(1)
	}
	traced := *tracePath != "" || *commPath != "" || *jsonPath != "" || *critPath
	fmt.Printf("running coupled simulation: %d instances, %d coupling units, %d ranks total\n",
		len(sim.Instances), len(sim.Units), sim.TotalRanks())
	cfg := mpi.Config{Machine: cluster.ARCHER2(), Trace: traced}
	if *metricsPath != "" {
		cfg.Metrics = &telemetry.Config{Interval: *metricsInterval}
	}

	var rep *coupler.Report
	var res *coupler.ResilienceReport
	if *faults > 0 {
		plan, perr := fault.NewPlan(fault.Spec{
			Seed:    *seed,
			Ranks:   sim.TotalRanks(),
			Horizon: *faults * 64, // up to ~64 failures; later crashes never fire
			MTBF:    *faults,
			Machine: cfg.Machine,
		})
		if perr != nil {
			fmt.Fprintf(os.Stderr, "cpxsim: %v\n", perr)
			os.Exit(1)
		}
		res, err = sim.RunResilient(cfg, coupler.ResilienceOptions{
			Plan:            plan,
			CheckpointEvery: *ckpt,
			MaxRestarts:     128,
		})
		if res != nil {
			rep = res.Report
		}
	} else if *ckpt > 0 {
		res, err = sim.RunResilient(cfg, coupler.ResilienceOptions{CheckpointEvery: *ckpt})
		if res != nil {
			rep = res.Report
		}
	} else {
		rep, err = sim.Run(cfg)
	}
	if err != nil {
		// A failed run may still carry partial timelines, metric series
		// and flight-recorder tails worth exporting (e.g. to inspect how
		// far a faulty run got before dying, and what each failed rank
		// was doing when it died).
		if rep != nil && rep.Stats != nil {
			exportArtifacts(rep, *tracePath, *commPath, *jsonPath, *metricsPath)
		}
		fmt.Fprintf(os.Stderr, "cpxsim: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\nsimulated run-time: %.3f s for %d density steps\n", rep.Elapsed, rep.DensitySteps)
	if res != nil && res.Attempts > 1 {
		fmt.Printf("survived %d crash(es) in %d attempts: overhead %.3f s (rework %.3f, detection %.3f, restart %.3f)\n",
			len(res.Failures), res.Attempts, res.Overhead, res.Rework, res.Detection, res.Restart)
	}
	fmt.Println()
	fmt.Printf("%-24s %10s %12s\n", "component", "time(s)", "compute(s)")
	for i, is := range sim.Instances {
		fmt.Printf("%-24s %10.3f %12.3f\n", is.Name, rep.InstanceTime[i], rep.InstanceComp[i])
	}
	for u, us := range sim.Units {
		fmt.Printf("%-24s %10.3f %12.3f\n", us.Name+" (CU)", rep.UnitTime[u], rep.UnitComp[u])
	}
	fmt.Printf("\ncoupling share of run-time: %.2f%%\n", 100*rep.CouplingShare)

	if *critPath && rep.Critical != nil {
		fmt.Printf("\n%s\ncritical path by component:\n", rep.Critical)
		for _, ls := range rep.CriticalComponents {
			fmt.Printf("%-24s %10.3f s %6.1f%%\n", ls.Label, ls.Seconds, 100*ls.Share)
		}
	}
	exportArtifacts(rep, *tracePath, *commPath, *jsonPath, *metricsPath)
}

// exportArtifacts writes whichever trace products were requested. It is
// also called for failed runs carrying partial stats, so the exporters
// must tolerate missing timelines, comm matrices or metric series.
func exportArtifacts(rep *coupler.Report, tracePath, commPath, jsonPath, metricsPath string) {
	writeFile := func(path string, fn func(f *os.File) error) {
		f, err := os.Create(path)
		if err == nil {
			err = fn(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpxsim: writing %s: %v\n", path, err)
			os.Exit(1)
		}
	}
	if tracePath != "" {
		writeFile(tracePath, func(f *os.File) error { return trace.WriteChromeTrace(f, rep.Stats.Timelines) })
	}
	if commPath != "" {
		writeFile(commPath, func(f *os.File) error { return rep.Stats.CommMatrix.WriteCSV(f) })
	}
	if jsonPath != "" {
		sum := rep.Stats.Summary()
		if sum.CriticalPath != nil {
			sum.CriticalPath.Components = rep.CriticalComponents
		}
		writeFile(jsonPath, func(f *os.File) error { return sum.WriteJSON(f) })
	}
	if metricsPath != "" {
		if rep.Metrics == nil {
			fmt.Fprintln(os.Stderr, "cpxsim: no metric series sampled (run died before the first boundary?)")
			return
		}
		if strings.HasSuffix(metricsPath, ".csv") {
			writeFile(metricsPath, func(f *os.File) error { return rep.Metrics.WriteCSV(f) })
		} else {
			writeFile(metricsPath, func(f *os.File) error { return rep.Metrics.WriteJSON(f) })
		}
	}
}
