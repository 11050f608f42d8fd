package harness

import (
	"fmt"
	"math"

	"cpx/internal/coupler"
	"cpx/internal/fault"
)

// resilienceSim is the coupled pair the resilience sweep runs: two
// MG-CFD rows and a sliding-plane CU, long enough in density steps that
// the checkpoint-interval axis has room on both sides of the optimum.
func (o Options) resilienceSim() *coupler.Simulation {
	meshCells := int64(100_000)
	points := 200_000
	ranks := 6
	steps := 48
	if o.Quick {
		meshCells, points, ranks, steps = 10_000, 20_000, 3, 24
	}
	return &coupler.Simulation{
		Instances: []coupler.InstanceSpec{
			{Name: "rowA", Kind: coupler.KindMGCFD, MeshCells: meshCells, Ranks: ranks, Seed: 1},
			{Name: "rowB", Kind: coupler.KindMGCFD, MeshCells: meshCells, Ranks: ranks, Seed: 2},
		},
		Units: []coupler.UnitSpec{
			{Name: "cu", A: 0, B: 1, Kind: coupler.SlidingPlane, Points: points,
				Ranks: 2, Search: coupler.TreePrefetch},
		},
		DensitySteps:    steps,
		RotationPerStep: 0.002,
		Scale:           coupler.ProductionScale(),
	}
}

// resilienceIntervals is the checkpoint-interval axis in density steps;
// 0 means no checkpointing (restart from scratch).
func (o Options) resilienceIntervals() []int {
	if o.Quick {
		return []int{0, 1, 2, 4, 8, 12}
	}
	return []int{0, 1, 2, 4, 6, 8, 12, 16, 24}
}

// Resilience sweeps the coordinated-checkpoint interval of a coupled run
// against a fixed failure process and reports the completed virtual time
// of each setting. The curve is the classic Young/Daly trade-off:
// checkpointing every step pays maximal I/O overhead, never
// checkpointing pays maximal rework per failure, and the minimum sits
// near the first-order optimum tau* = sqrt(2 * C * MTBF).
func (o Options) Resilience() (*Table, error) {
	t := &Table{
		ID:    "resilience",
		Title: "Checkpoint interval vs MTBF: completed time under a fixed failure process",
		Headers: []string{"ckpt every (steps)", "runtime(s)", "overhead(s)",
			"rework(s)", "ckpt+detect+restart(s)", "restarts"},
	}
	sim := o.resilienceSim()
	cfg := o.mpiConfig(false)

	// Fault-free, checkpoint-free baseline: the run the faulty sweeps are
	// measured against.
	base, err := sim.RunResilient(cfg, coupler.ResilienceOptions{})
	if err != nil {
		return nil, fmt.Errorf("resilience baseline: %w", err)
	}
	o.logf("resilience: baseline elapsed %.3fs", base.Elapsed)

	// Deterministic periodic failure process (the schedule Daly's
	// analysis assumes): a handful of crashes across the nominal run.
	mtbf := base.Elapsed / 4
	plan, err := fault.NewPlan(fault.Spec{
		Seed:     3,
		Ranks:    sim.TotalRanks(),
		Horizon:  base.Elapsed * 0.999, // keep the last crash inside the run
		MTBF:     mtbf,
		Periodic: true,
		Machine:  o.Machine,
	})
	if err != nil {
		return nil, err
	}

	bestElapsed, bestEvery := math.Inf(1), 0
	noCkptElapsed := 0.0
	for _, every := range o.resilienceIntervals() {
		if every > sim.DensitySteps/2 {
			continue
		}
		o.logf("resilience: sweep interval %d", every)
		rep, err := sim.RunResilient(cfg, coupler.ResilienceOptions{
			Plan:            plan,
			CheckpointEvery: every,
			// Relaunch cost scaled to the job instead of the 1s default,
			// which would swamp a sub-second virtual run. Constant per
			// failure, so it shifts every row equally and leaves the
			// interval optimum untouched.
			RestartCost: mtbf / 4,
			MaxRestarts: 2 * len(plan.Crashes),
		})
		if err != nil {
			return nil, fmt.Errorf("resilience interval %d: %w", every, err)
		}
		// Checkpoint I/O shows up inside the stepping clocks, not in the
		// restart overhead; separate it out against the clean baseline.
		ckptIO := rep.Elapsed - rep.Overhead - base.Elapsed
		if ckptIO < 0 {
			ckptIO = 0
		}
		label := d(every)
		if every == 0 {
			label = "none"
			noCkptElapsed = rep.Elapsed
		}
		t.AddRow(label, f3(rep.Elapsed), f3(rep.Elapsed-base.Elapsed),
			f3(rep.Rework), f3(ckptIO+rep.Detection+rep.Restart), d(rep.Attempts-1))
		if rep.Elapsed < bestElapsed {
			bestElapsed, bestEvery = rep.Elapsed, every
		}
	}

	// Calibrate the per-checkpoint cost C from a fault-free checkpointed
	// run, and note Young's first-order optimum on the same axis.
	calEvery := 4
	cal, err := sim.RunResilient(cfg, coupler.ResilienceOptions{CheckpointEvery: calEvery})
	if err != nil {
		return nil, err
	}
	nCkpts := (sim.DensitySteps - 1) / calEvery
	ckptCost := (cal.Elapsed - base.Elapsed) / float64(nCkpts)
	stepTime := base.Elapsed / float64(sim.DensitySteps)
	tauStar := fault.YoungInterval(ckptCost, mtbf)
	t.Notes = append(t.Notes,
		fmt.Sprintf("baseline (fault-free) %.3fs; %d periodic crashes, MTBF %.3fs; per-checkpoint cost C=%.4fs",
			base.Elapsed, len(plan.Crashes), mtbf, ckptCost),
		fmt.Sprintf("Young tau* = sqrt(2*C*MTBF) = %.3fs ~= %.1f density steps; sweep minimum at %d steps (%.3fs)",
			tauStar, tauStar/stepTime, bestEvery, bestElapsed),
		fmt.Sprintf("no checkpointing pays full rework per crash: %.3fs vs %.3fs at the optimum",
			noCkptElapsed, bestElapsed))
	return t, nil
}
