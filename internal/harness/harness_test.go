package harness

import (
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"cpx/internal/cluster"
	"cpx/internal/simpic"
)

// quick returns smoke-test options: tiny sweeps, small machine-agnostic
// scale, short watchdog.
func quick() Options {
	return Options{Machine: cluster.ARCHER2(), Quick: true, Watchdog: 10 * time.Minute}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "x", Title: "demo", Headers: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.Notes = append(tb.Notes, "a note")
	s := tb.String()
	for _, want := range []string{"demo", "bb", "a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestSweepMath(t *testing.T) {
	s := Sweep{Cores: []int{100, 200, 400}, Runtimes: []float64{8, 4, 4}}
	sp := s.Speedup()
	if sp[0] != 1 || sp[1] != 2 || sp[2] != 2 {
		t.Errorf("speedup = %v", sp)
	}
	pe := s.PE()
	if pe[0] != 1 || pe[1] != 1 || pe[2] != 0.5 {
		t.Errorf("PE = %v", pe)
	}
}

func TestScaleSampled(t *testing.T) {
	// 10s total with 2s setup, sampled at 1/4 of the steps:
	// full = 2 + 8*4 = 34.
	if got := scaleSampled(10, 2, 4); got != 34 {
		t.Errorf("scaleSampled = %v, want 34", got)
	}
	// Negative stepping clamps.
	if got := scaleSampled(1, 2, 4); got != 2 {
		t.Errorf("clamped = %v, want 2", got)
	}
}

func TestSweepCoresQuick(t *testing.T) {
	o := quick()
	full := []int{1, 2, 3, 4, 5, 6}
	got := o.sweepCores(full)
	if len(got) != 3 || got[0] != 1 || got[2] != 6 {
		t.Errorf("quick sweep = %v", got)
	}
	o.Quick = false
	if len(o.sweepCores(full)) != 6 {
		t.Error("full sweep truncated")
	}
}

func TestFig3Static(t *testing.T) {
	tb, err := quick().Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("fig3 rows = %d, want 3", len(tb.Rows))
	}
	if tb.Rows[2][2] != "1800" {
		t.Errorf("380M ppc cell = %q, want 1800", tb.Rows[2][2])
	}
}

func TestStandaloneRuntimesPositive(t *testing.T) {
	o := quick()
	rt, err := o.SimpicRuntime(simpic.Config{Cells: 1024, ParticlesPerCell: 10, Steps: 100}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rt <= 0 {
		t.Error("simpic runtime not positive")
	}
}

func TestCUCurveShapes(t *testing.T) {
	o := quick()
	sliding, err := o.cuCurve(100_000, 0, 2) // SlidingPlane, TreePrefetch
	if err != nil {
		t.Fatal(err)
	}
	if !(sliding.Runtime(2) < sliding.Runtime(1)) {
		t.Error("CU work should parallelise")
	}
}

func TestSensitivityTable(t *testing.T) {
	tb, err := quick().Sensitivity()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("sensitivity rows = %d", len(tb.Rows))
	}
	// Best case must beat worst case.
	if tb.Rows[1][1] <= tb.Rows[2][1] {
		t.Errorf("best %q not above worst %q", tb.Rows[1][1], tb.Rows[2][1])
	}
}

func TestParticleScalingQuick(t *testing.T) {
	tb, err := quick().ParticleScaling()
	if err != nil {
		t.Fatal(err)
	}
	// 3 suites x 3 strategies x 2 rank points in quick mode.
	if len(tb.Rows) != 18 {
		t.Fatalf("particle-scaling rows = %d, want 18 in quick mode", len(tb.Rows))
	}
	// Check each suite ran every strategy and that the balancers actually
	// acted on the clustered cone.
	seen := map[string]int{}
	for _, row := range tb.Rows {
		if len(row) != 11 {
			t.Fatalf("particle-scaling row %v has %d cells, want 11", row, len(row))
		}
		seen[row[0]+"/"+row[1]]++
		if row[1] == "steal" && row[9] == "0" {
			t.Errorf("steal row %v granted nothing", row)
		}
		if row[1] == "repartition" && row[10] == "0" {
			t.Errorf("repartition row %v never repartitioned", row)
		}
	}
	for _, suite := range []string{"particle-weak", "mesh-weak", "strong"} {
		for _, st := range []string{"static", "steal", "repartition"} {
			if seen[suite+"/"+st] != 2 {
				t.Errorf("suite %s strategy %s has %d rows, want 2", suite, st, seen[suite+"/"+st])
			}
		}
	}
}

func TestAMGAblation(t *testing.T) {
	tb, err := quick().AMGAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 11 {
		t.Fatalf("ablation rows = %d, want 11", len(tb.Rows))
	}
	// The fully-optimized recipe must use no more iterations than base
	// (compare numerically, not lexically).
	var optIt, baseIt int
	fmt.Sscanf(tb.Rows[len(tb.Rows)-1][1], "%d", &optIt)
	fmt.Sscanf(tb.Rows[0][1], "%d", &baseIt)
	if optIt > baseIt {
		t.Errorf("optimized iterations %s worse than base %s", tb.Rows[9][1], tb.Rows[0][1])
	}
}

func TestSearchAblation(t *testing.T) {
	tb, err := quick().SearchAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("search ablation rows = %d", len(tb.Rows))
	}
}

func TestOverlapStudyQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled smoke run")
	}
	tb, err := quick().OverlapStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("overlap rows = %d", len(tb.Rows))
	}
}

func TestFig8QuickEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled smoke run")
	}
	tb, err := quick().Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("fig8 rows = %d, want 3 instances", len(tb.Rows))
	}
	out := tb.String()
	if !strings.Contains(out, "max per-instance prediction error") &&
		len(tb.Notes) == 0 {
		t.Error("fig8 notes missing")
	}
}

func TestEngineQuickEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled smoke run")
	}
	res, err := quick().RunEngine(false, 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Measured) != 16 || len(res.Predicted) < 16 {
		t.Fatalf("engine result shape: %d measured, %d predicted", len(res.Measured), len(res.Predicted))
	}
	for i, m := range res.Measured {
		if m <= 0 {
			t.Errorf("instance %d measured %v", i, m)
		}
	}
	if res.Rep.CouplingShare < 0 || res.Rep.CouplingShare > 1 {
		t.Errorf("coupling share %v", res.Rep.CouplingShare)
	}
}

// captureStderr returns what fn printed to os.Stderr, where Verbose
// progress goes.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r) // a short read shows up as a log mismatch
		out <- string(b)
	}()
	defer func() { os.Stderr = saved }()
	fn()
	w.Close()
	return <-out
}

// TestEngineProgressOrderIsDeterministic: the -v progress log of two
// identical RunEngine calls is the same line for line, with the MG-CFD
// curves fitted in ascending mesh size (they were once fitted in map
// order, so the log differed from run to run).
func TestEngineProgressOrderIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled smoke run")
	}
	o := quick()
	o.Verbose = true
	run := func() string {
		return captureStderr(t, func() {
			if _, err := o.RunEngine(false, 400); err != nil {
				t.Error(err)
			}
		})
	}
	first, second := run(), run()
	if first != second {
		t.Errorf("progress logs differ between identical runs:\n--- first\n%s--- second\n%s", first, second)
	}
	var fits []string
	for _, line := range strings.Split(first, "\n") {
		if at, ok := strings.CutPrefix(line, "  fit mgcfd 0M @ "); ok {
			fits = append(fits, at)
		}
	}
	if got, want := strings.Join(fits, " "), "2 4 8 2 4 8 4 8 16 4 8 16"; got != want {
		t.Errorf("MG-CFD fit order %q, want ascending mesh size %q", got, want)
	}
}
