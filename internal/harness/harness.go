package harness

import (
	"fmt"
	"os"
	"runtime"
	"strings"

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
	Verbose bool
}

// DefaultOptions runs the full sweeps on the ARCHER2 model.
func DefaultOptions() Options {
	return Options{Machine: cluster.ARCHER2()}
}

func (o Options) mpiConfig(profile bool) mpi.Config {
	return mpi.Config{Machine: o.Machine, Profile: profile}
}

func (o Options) logf(format string, args ...any) {
	if o.Verbose {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
}

// ---- Standalone runtimes ----------------------------------------------------

// scaleSampled is the one extrapolation rule for every sampled run,
// standalone or coupled: the one-off setup plus the stepping phase scaled
// by full/sampled steps. Its precondition is that the sample's work per
// step equals the full run's, so a coupled sample must hold a whole
// number of every coupling unit's exchange period (DESIGN §6, "Sampled
// runs").
func scaleSampled(elapsed, setup float64, sampled, full int) float64 {
	return setup + max(elapsed-setup, 0)*(float64(full)/float64(sampled))
}

// standalone is the one recipe for a standalone mini-app run: launch
// `cores` ranks under rc, take rank 0's setup time and step counts from
// solve, and scale the sampled run up to the full configuration.
//
// A finished run leaves every rank's solver state as garbage at once,
// while the collector's next goal was set when that state was live.
// Sweeps run these back to back, so without a collection here the next
// point would build its state on top of the last one's, and where the
// previous cycle happened to fall would decide the sweep's peak memory.
// With almost nothing live the collection costs milliseconds.
func standalone(app string, cores int, rc mpi.Config, solve func(*mpi.Comm) (setup float64, sampled, full int, err error)) (float64, *mpi.Stats, error) {
	var setup float64
	var sampled, full int
	st, err := mpi.Run(cores, rc, func(c *mpi.Comm) error {
		t, n, f, err := solve(c)
		if err == nil && c.Rank() == 0 {
			setup, sampled, full = t, n, f
		}
		return err
	})
	runtime.GC()
	if err != nil {
		return 0, nil, fmt.Errorf("%s on %d cores: %w", app, cores, err)
	}
	return scaleSampled(st.Elapsed, setup, sampled, full), st, nil
}

// RunSimpic runs a SIMPIC configuration standalone on `cores` ranks
// under rc and returns the virtual run-time of the full configuration
// (sampled steps scaled up) with the run's statistics.
func RunSimpic(cfg simpic.Config, cores int, rc mpi.Config) (float64, *mpi.Stats, error) {
	return standalone("simpic", cores, rc, func(c *mpi.Comm) (float64, int, int, error) {
		r, err := simpic.Run(c, cfg, simpic.Production())
		if err != nil {
			return 0, 0, 0, err
		}
		return r.SetupTime, r.StepsRun, r.ScaledSteps, nil
	})
}

// RunPressure runs the pressure-solver proxy standalone (see RunSimpic).
func RunPressure(cfg pressure.Config, cores int, rc mpi.Config) (float64, *mpi.Stats, error) {
	return standalone("pressure", cores, rc, func(c *mpi.Comm) (float64, int, int, error) {
		r, err := pressure.Run(c, cfg, pressure.Production())
		if err != nil {
			return 0, 0, 0, err
		}
		return r.SetupTime, r.StepsRun, r.ScaledSteps, nil
	})
}

// RunMGCFD times the MG-CFD proxy standalone (see RunSimpic). Its ranks
// hold no flow fields (mgcfd.Time): they charge, send and reduce exactly
// what mgcfd.Run's ranks do, so the run-time and statistics are Run's
// bit for bit, without the host work of stepping fields no clock reads.
func RunMGCFD(cfg mgcfd.Config, cores int, rc mpi.Config) (float64, *mpi.Stats, error) {
	return standalone("mgcfd", cores, rc, func(c *mpi.Comm) (float64, int, int, error) {
		r, err := mgcfd.Time(c, cfg, mgcfd.Production())
		if err != nil {
			return 0, 0, 0, err
		}
		return r.SetupTime, r.StepsRun, r.ScaledSteps, nil
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
