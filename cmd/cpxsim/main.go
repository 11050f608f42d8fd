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
// summary with the per-function profile, and -critpath prints which
// instance or coupling unit sits on the virtual-time critical path.
// -metrics samples per-rank and per-component counters (messages, bytes,
// compute/comm/wait split, mailbox depth, collectives) at fixed
// virtual-time intervals (-metrics-interval) without perturbing the run.
// If an aborted or failed run produced partial timelines or series, the
// export flags still write them — and the -json summary of a faulty run
// carries the flight-recorder tail of each failed rank.
//
// -seed offsets every instance's setup seed and seeds the fault plan, so
// two invocations with the same seed replay bitwise-identical runs.
// -faults MTBF injects deterministic rank crashes with the given mean
// time between failures (virtual seconds); the run recovers via
// coordinated checkpoint/restart at the -ckpt interval (density steps)
// and reports the resilience accounting.
//
// The configuration is serve.SimSpec's JSON, the body cpxserve takes at
// POST /v1/simulate; examples/engine.json is a seven-instance engine.
// An instance "kind" is mgcfd, simpic, fem or particle; a unit "kind" is
// sliding (the default) or steady; "search" is brute, tree or prefetch
// (the default). Any other spelling, an unknown field or trailing data
// is rejected naming the field, exactly as cpxserve rejects the body.
package main

import (
	"flag"
	"fmt"
	"io"
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

// options are cpxsim's flags.
type options struct {
	config, trace, comm, json, metrics string
	demo, critPath                     bool
	seed                               int64
	faults, metricsInterval            float64
	ckpt                               int
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	o, code := parse(args, stderr)
	if o == nil {
		return code
	}
	if err := simulate(o, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "cpxsim: %v\n", err)
		return 1
	}
	return 0
}

// parse reads and checks the flags. A nil result means do not run, and
// exit with the returned code: 0 after -h, 2 on a usage error.
func parse(args []string, stderr io.Writer) (*options, int) {
	var o options
	fs := flag.NewFlagSet("cpxsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.config, "config", "", "JSON simulation description")
	fs.BoolVar(&o.demo, "demo", false, "run a built-in three-component demo")
	fs.StringVar(&o.trace, "trace", "", "write a Chrome/Perfetto trace-event JSON timeline to FILE")
	fs.StringVar(&o.comm, "commmatrix", "", "write the rank×rank comm matrix CSV to FILE")
	fs.StringVar(&o.json, "json", "", "write a JSON run summary to FILE")
	fs.BoolVar(&o.critPath, "critpath", false, "print the critical-path breakdown per component")
	fs.Int64Var(&o.seed, "seed", 0, "offset instance setup seeds and seed the fault plan")
	fs.Float64Var(&o.faults, "faults", 0, "inject rank crashes with this MTBF in virtual seconds (0 disables)")
	fs.IntVar(&o.ckpt, "ckpt", 0, "coordinated-checkpoint interval in density steps (0 disables)")
	fs.StringVar(&o.metrics, "metrics", "", "sample per-rank/per-component virtual-time metrics to FILE (.csv selects CSV, else JSON)")
	fs.Float64Var(&o.metricsInterval, "metrics-interval", 0, "virtual-time sampling period in seconds (0 = default 0.01)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil, 0
		}
		return nil, 2
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"faults", o.faults}, {"ckpt", float64(o.ckpt)}, {"metrics-interval", o.metricsInterval}} {
		if f.v < 0 {
			fmt.Fprintf(stderr, "cpxsim: -%s must be >= 0, got %v\n", f.name, f.v)
			return nil, 2
		}
	}
	if !o.demo && o.config == "" {
		fmt.Fprintln(stderr, "cpxsim: need -config FILE or -demo")
		return nil, 2
	}
	return &o, 0
}

// simulate builds the scenario, runs it and writes the report and the
// requested exports.
func simulate(o *options, stdout, stderr io.Writer) error {
	var jc serve.SimSpec
	if o.demo {
		jc = *demoConfig()
	} else {
		f, err := os.Open(o.config)
		if err != nil {
			return err
		}
		err = serve.DecodeStrict(f, &jc)
		f.Close()
		if err != nil {
			return fmt.Errorf("parsing %s: %w", o.config, err)
		}
	}

	jc.ApplySeed(o.seed)
	sim, err := jc.Build()
	if err != nil {
		return err
	}
	traced := o.trace != "" || o.comm != "" || o.json != "" || o.critPath
	fmt.Fprintf(stdout, "running coupled simulation: %d instances, %d coupling units, %d ranks total\n",
		len(sim.Instances), len(sim.Units), sim.TotalRanks())
	cfg := mpi.Config{Machine: cluster.ARCHER2(), Trace: traced}
	if o.metrics != "" {
		cfg.Metrics = &telemetry.Config{Interval: o.metricsInterval}
	}

	var rep *coupler.Report
	var res *coupler.ResilienceReport
	if o.faults > 0 || o.ckpt > 0 {
		opts := coupler.ResilienceOptions{CheckpointEvery: o.ckpt}
		if o.faults > 0 {
			plan, perr := fault.NewPlan(fault.Spec{
				Seed:    o.seed,
				Ranks:   sim.TotalRanks(),
				Horizon: o.faults * 64, // up to ~64 failures; later crashes never fire
				MTBF:    o.faults,
				Machine: cfg.Machine,
			})
			if perr != nil {
				return perr
			}
			opts.Plan, opts.MaxRestarts = plan, 128
		}
		res, err = sim.RunResilient(cfg, opts)
		if res != nil {
			rep = res.Report
		}
	} else {
		rep, err = sim.Run(cfg)
	}
	if err != nil {
		// A failed run may still carry partial timelines, metric series
		// and the flight-recorder tail of each failed rank worth exporting.
		if rep != nil && rep.Stats != nil {
			if xerr := exportArtifacts(rep, o, stderr); xerr != nil {
				return xerr
			}
		}
		return err
	}
	fmt.Fprintf(stdout, "\nsimulated run-time: %.3f s for %d density steps\n", rep.Elapsed, rep.DensitySteps)
	if res != nil && res.Attempts > 1 {
		fmt.Fprintf(stdout, "survived %d crash(es) in %d attempts: overhead %.3f s (rework %.3f, detection %.3f, restart %.3f)\n",
			len(res.Failures), res.Attempts, res.Overhead, res.Rework, res.Detection, res.Restart)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "%-24s %10s %12s\n", "component", "time(s)", "compute(s)")
	for i, is := range sim.Instances {
		fmt.Fprintf(stdout, "%-24s %10.3f %12.3f\n", is.Name, rep.InstanceTime[i], rep.InstanceComp[i])
	}
	for u, us := range sim.Units {
		fmt.Fprintf(stdout, "%-24s %10.3f %12.3f\n", us.Name+" (CU)", rep.UnitTime[u], rep.UnitComp[u])
	}
	fmt.Fprintf(stdout, "\ncoupling share of run-time: %.2f%%\n", 100*rep.CouplingShare)

	if o.critPath && rep.Critical != nil {
		fmt.Fprintf(stdout, "\n%s\ncritical path by component:\n", rep.Critical)
		for _, ls := range rep.CriticalComponents {
			fmt.Fprintf(stdout, "%-24s %10.3f s %6.1f%%\n", ls.Label, ls.Seconds, 100*ls.Share)
		}
	}
	return exportArtifacts(rep, o, stderr)
}

// exportArtifacts writes whichever trace products were requested,
// stopping at the first write error. It is also called for failed runs
// carrying partial stats, so the exporters must tolerate missing
// timelines, comm matrices or metric series.
func exportArtifacts(rep *coupler.Report, o *options, stderr io.Writer) error {
	var err error
	write := func(path string, fn func(io.Writer) error) {
		if path == "" || err != nil {
			return
		}
		f, cerr := os.Create(path)
		if cerr == nil {
			cerr = fn(f)
			if ferr := f.Close(); cerr == nil {
				cerr = ferr
			}
		}
		if cerr != nil {
			err = fmt.Errorf("writing %s: %w", path, cerr)
		}
	}
	write(o.trace, func(w io.Writer) error { return trace.WriteChromeTrace(w, rep.Stats.Timelines) })
	write(o.comm, rep.Stats.CommMatrix.WriteCSV)
	if o.json != "" {
		sum := rep.Stats.Summary()
		if sum.CriticalPath != nil {
			sum.CriticalPath.Components = rep.CriticalComponents
		}
		write(o.json, sum.WriteJSON)
	}
	if o.metrics != "" && err == nil {
		if rep.Metrics == nil {
			fmt.Fprintln(stderr, "cpxsim: no metric series sampled (run died before the first boundary?)")
			return nil
		}
		if strings.HasSuffix(o.metrics, ".csv") {
			write(o.metrics, rep.Metrics.WriteCSV)
		} else {
			write(o.metrics, rep.Metrics.WriteJSON)
		}
	}
	return err
}
