package cpx_test

import (
	"math"
	"testing"
	"time"

	"cpx"
	"cpx/internal/harness"
)

func TestPublicMachineModels(t *testing.T) {
	a := cpx.ARCHER2()
	if a.CoresPerNode != 128 {
		t.Errorf("ARCHER2 cores/node = %d", a.CoresPerNode)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := cpx.SmallCluster().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicSTCConfigs(t *testing.T) {
	base := cpx.BaseSTC(28_000_000)
	if base.ParticlesPerCell != 100 || base.Cells != 512_000 {
		t.Errorf("BaseSTC(28M) = %+v", base)
	}
	opt := cpx.OptimizedSTC()
	if opt.ParticlesPerCell != 60_000 {
		t.Errorf("OptimizedSTC = %+v", opt)
	}
}

func TestPublicModelWorkflow(t *testing.T) {
	curve, err := cpx.FitCurve([]cpx.Sample{
		{Cores: 100, Runtime: 50},
		{Cores: 200, Runtime: 26},
		{Cores: 400, Runtime: 15},
		{Cores: 800, Runtime: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pe := curve.PE(100); math.Abs(pe-1) > 1e-9 {
		t.Errorf("PE at base = %v", pe)
	}
	alloc, err := cpx.Allocate([]cpx.Component{
		{Name: "app", Curve: curve},
		{Name: "cu", Curve: curve, IsCU: true},
	}, 500)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Predicted <= 0 {
		t.Errorf("allocation prediction %v", alloc.Predicted)
	}
	if sp := cpx.PredictSpeedup(alloc, alloc); sp != 1 {
		t.Errorf("self-speedup = %v", sp)
	}
}

func TestPublicCoupledRun(t *testing.T) {
	stc := cpx.SimpicConfig{Cells: 512, ParticlesPerCell: 5, Steps: 4, Seed: 1}
	sim := &cpx.Simulation{
		Instances: []cpx.Instance{
			{Name: "hpc", Kind: cpx.MGCFD, MeshCells: 4_096, Ranks: 3, Seed: 1},
			{Name: "comb", Kind: cpx.SIMPIC, MeshCells: 28_000_000, Ranks: 3, Simpic: &stc, Seed: 2},
		},
		Units: []cpx.CouplingUnit{
			{Name: "cu", A: 0, B: 1, Kind: cpx.SteadyState, Points: 2_000,
				Ranks: 1, Search: cpx.PrefetchSearch, ExchangeEvery: 2},
		},
		DensitySteps:    2,
		RotationPerStep: 0.001,
		Scale:           cpx.ProductionScale(),
	}
	rep, err := sim.Run(cpx.RunConfig{Machine: cpx.SmallCluster(), Watchdog: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Elapsed <= 0 || len(rep.InstanceTime) != 2 || len(rep.UnitTime) != 1 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestPublicExperiments(t *testing.T) {
	o := cpx.DefaultExperiments()
	o.Quick = true
	tb, err := o.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if tb.ID != "fig3" {
		t.Errorf("table id = %q", tb.ID)
	}
}

// TestPublicStandaloneRuns: the public standalone runs and the harness
// runtimes the experiments fit their curves on are one recipe, so for
// the same configuration they must agree bit for bit.
func TestPublicStandaloneRuns(t *testing.T) {
	rc := cpx.RunConfig{Machine: cpx.SmallCluster(), Watchdog: 2 * time.Minute}
	o := harness.Options{Machine: rc.Machine, Watchdog: rc.Watchdog}

	simpicCfg := cpx.SimpicConfig{Cells: 512, ParticlesPerCell: 5, Steps: 20, Seed: 1}
	sp, err := cpx.RunSimpic(simpicCfg, 4, rc)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := o.SimpicRuntime(simpicCfg, 4); err != nil || sp.Elapsed != want || sp.Elapsed <= 0 {
		t.Errorf("RunSimpic elapsed %v, harness SimpicRuntime %v (err %v); want equal and positive", sp.Elapsed, want, err)
	}

	mgcfdCfg := cpx.MGCFDConfig{MeshCells: 1000, Steps: 2, Seed: 1}
	mg, err := cpx.RunMGCFD(mgcfdCfg, 2, rc)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := o.MGCFDRuntime(mgcfdCfg, 2); err != nil || mg.Elapsed != want || mg.Elapsed <= 0 {
		t.Errorf("RunMGCFD elapsed %v, harness MGCFDRuntime %v (err %v); want equal and positive", mg.Elapsed, want, err)
	}

	rc.Profile = true
	pressureCfg := cpx.PressureConfig{MeshCells: 4096, Steps: 1, Seed: 1}
	pr, err := cpx.RunPressure(pressureCfg, 2, rc)
	if err != nil {
		t.Fatal(err)
	}
	if want, _, err := o.PressureRuntime(pressureCfg, 2, true); err != nil || pr.Elapsed != want || pr.Elapsed <= 0 {
		t.Errorf("RunPressure elapsed %v, harness PressureRuntime %v (err %v); want equal and positive", pr.Elapsed, want, err)
	}
	if pr.Profile == nil || pr.Profile.Entry("pressure_field").Total() <= 0 {
		t.Error("pressure profile missing")
	}
}
