// Package harness reproduces every table and figure of the paper's
// evaluation (Sections III-V): it runs the mini-apps standalone on the
// virtual-time ARCHER2 model to produce speedup/parallel-efficiency
// sweeps, profiles the pressure-solver proxy per function, builds and
// validates the empirical performance model, and executes the coupled
// mini-app engine simulations. Each experiment returns Tables whose rows
// mirror what the paper reports; Catalogue (catalogue.go) is the one list
// of them, and cmd/cpxbench runs and prints its entries.
package harness

import (
	"fmt"
	"os"
	"strings"
	"time"

	"cpx/internal/cluster"
	"cpx/internal/mgcfd"
	"cpx/internal/mpi"
	"cpx/internal/pressure"
	"cpx/internal/simpic"
	"cpx/internal/trace"
)

// Table is one reproduced figure or table.
type Table struct {
	ID      string // e.g. "fig4b"
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
			} else {
				sb.WriteString(c + "  ")
			}
		}
		sb.WriteString("\n")
	}
	line(t.Headers)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Options configure the harness runs.
type Options struct {
	Machine *cluster.Machine
	// Quick shrinks the core-count sweeps for fast smoke runs (used by
	// unit tests); full sweeps reproduce the paper's axes.
	Quick bool
	// Verbose emits progress to stderr, so stdout stays only the tables.
	Verbose  bool
	Watchdog time.Duration
	// Trace enables event tracing on the coupled runs (fig8, fig9,
	// overlap): the resulting reports carry the virtual-time critical
	// path and its per-instance/per-CU attribution. Standalone fitting
	// sweeps are never traced.
	Trace bool
}

// DefaultOptions runs the full sweeps on the ARCHER2 model.
func DefaultOptions() Options {
	return Options{Machine: cluster.ARCHER2(), Watchdog: 2 * time.Hour}
}

func (o Options) mpiConfig(profile bool) mpi.Config {
	wd := o.Watchdog
	if wd == 0 {
		wd = 2 * time.Hour
	}
	return mpi.Config{Machine: o.Machine, Profile: profile, Watchdog: wd}
}

// coupledConfig is mpiConfig plus event tracing when Options.Trace is
// set; used for the coupled simulations only.
func (o Options) coupledConfig() mpi.Config {
	cfg := o.mpiConfig(false)
	cfg.Trace = o.Trace
	return cfg
}

func (o Options) logf(format string, args ...any) {
	if o.Verbose {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
}

// ---- Standalone runtimes ----------------------------------------------------

// scaleSampled converts a sampled run into the full-configuration
// run-time: the one-off setup plus the stepping phase scaled by the
// sampled fraction.
func scaleSampled(elapsed, setup, fraction float64) float64 {
	return setup + max(elapsed-setup, 0)*fraction
}

// standalone is the one recipe for a standalone mini-app run: launch
// `cores` ranks under rc, take rank 0's setup time from solve, and scale
// the sampled run up to the full configuration.
func standalone(app string, cores int, rc mpi.Config, fraction float64, solve func(*mpi.Comm) (setup float64, err error)) (float64, *mpi.Stats, error) {
	var setup float64
	st, err := mpi.Run(cores, rc, func(c *mpi.Comm) error {
		t, err := solve(c)
		if err == nil && c.Rank() == 0 {
			setup = t
		}
		return err
	})
	if err != nil {
		return 0, nil, fmt.Errorf("%s on %d cores: %w", app, cores, err)
	}
	return scaleSampled(st.Elapsed, setup, fraction), st, nil
}

// RunSimpic runs a SIMPIC configuration standalone on `cores` ranks
// under rc and returns the virtual run-time of the full configuration
// (sampled steps scaled up) with the run's statistics.
func RunSimpic(cfg simpic.Config, cores int, rc mpi.Config) (float64, *mpi.Stats, error) {
	sc := simpic.Production()
	return standalone("simpic", cores, rc, simpic.SampledFraction(cfg, sc), func(c *mpi.Comm) (float64, error) {
		r, err := simpic.Run(c, cfg, sc)
		if err != nil {
			return 0, err
		}
		return r.SetupTime, nil
	})
}

// RunPressure runs the pressure-solver proxy standalone (see RunSimpic).
func RunPressure(cfg pressure.Config, cores int, rc mpi.Config) (float64, *mpi.Stats, error) {
	sc := pressure.Production()
	return standalone("pressure", cores, rc, pressure.SampledFraction(cfg, sc), func(c *mpi.Comm) (float64, error) {
		r, err := pressure.Run(c, cfg, sc)
		if err != nil {
			return 0, err
		}
		return r.SetupTime, nil
	})
}

// RunMGCFD runs the MG-CFD proxy standalone (see RunSimpic).
func RunMGCFD(cfg mgcfd.Config, cores int, rc mpi.Config) (float64, *mpi.Stats, error) {
	sc := mgcfd.Production()
	return standalone("mgcfd", cores, rc, mgcfd.SampledFraction(cfg, sc), func(c *mpi.Comm) (float64, error) {
		r, err := mgcfd.Run(c, cfg, sc)
		if err != nil {
			return 0, err
		}
		return r.SetupTime, nil
	})
}

// SimpicRuntime is RunSimpic under the harness options.
func (o Options) SimpicRuntime(cfg simpic.Config, cores int) (float64, error) {
	t, _, err := RunSimpic(cfg, cores, o.mpiConfig(false))
	return t, err
}

// PressureRuntime is RunPressure under the harness options, returning
// the merged per-function profile when profile is set.
func (o Options) PressureRuntime(cfg pressure.Config, cores int, profile bool) (float64, *trace.Profile, error) {
	t, st, err := RunPressure(cfg, cores, o.mpiConfig(profile))
	if err != nil {
		return 0, nil, err
	}
	return t, st.MergedProfile(), nil
}

// MGCFDRuntime is RunMGCFD under the harness options.
func (o Options) MGCFDRuntime(cfg mgcfd.Config, cores int) (float64, error) {
	t, _, err := RunMGCFD(cfg, cores, o.mpiConfig(false))
	return t, err
}

// Sweep holds a core-count sweep of runtimes.
type Sweep struct {
	Cores    []int
	Runtimes []float64
}

// Speedup returns runtime(base)/runtime(p) per point.
func (s *Sweep) Speedup() []float64 {
	out := make([]float64, len(s.Cores))
	for i := range s.Cores {
		out[i] = s.Runtimes[0] / s.Runtimes[i]
	}
	return out
}

// PE returns the parallel efficiency per point, relative to the first.
func (s *Sweep) PE() []float64 {
	out := make([]float64, len(s.Cores))
	for i := range s.Cores {
		ideal := float64(s.Cores[i]) / float64(s.Cores[0])
		out[i] = (s.Runtimes[0] / s.Runtimes[i]) / ideal
	}
	return out
}

// sweepCores returns the paper's core axes, shrunk in Quick mode.
func (o Options) sweepCores(full []int) []int {
	if !o.Quick {
		return full
	}
	// Keep the first, one middle, and the last point.
	if len(full) <= 3 {
		return full
	}
	return []int{full[0], full[len(full)/2], full[len(full)-1]}
}

func f1(x float64) string  { return fmt.Sprintf("%.1f", x) }
func f2(x float64) string  { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string  { return fmt.Sprintf("%.3f", x) }
func pct(x float64) string { return fmt.Sprintf("%.0f%%", 100*x) }
func d(x int) string       { return fmt.Sprintf("%d", x) }
