package coupler

import (
	"runtime"
	"testing"

	"cpx/internal/fault"
	"cpx/internal/mpi"
	"cpx/internal/particle"
)

// particleSim couples a flow row to a Lagrangian particle instance
// through a per-step coupling unit: droplet source terms flow one way,
// interpolated gas fields the other — the MiniCombust layout with
// dedicated particle ranks.
func particleSim(st particle.Strategy) *Simulation {
	return &Simulation{
		Instances: []InstanceSpec{
			{Name: "flow", Kind: KindMGCFD, MeshCells: 4096, Ranks: 4, Seed: 1},
			{Name: "spray", Kind: KindParticle, MeshCells: 160_000, Ranks: 4, Seed: 3,
				Particle: &particle.Config{ConeFraction: 0.1, EvapSteps: 40,
					Strategy: st, ImbalanceThreshold: 1.2}},
		},
		Units: []UnitSpec{
			{Name: "spray-cu", A: 0, B: 1, Kind: SteadyState, Points: 2000, Ranks: 2,
				Search: Tree, ExchangeEvery: 1},
		},
		DensitySteps: 4,
		Scale: Scale{
			Particle:         particle.ScaleOpts{MaxDropletsPerRank: 128},
			MaxPointsPerSide: 256,
		},
	}
}

// TestCoupledParticleRunCompletes runs the coupled particle workload
// under every balancing strategy and checks the load report surfaces
// through the coupler like any other solver's accounting.
func TestCoupledParticleRunCompletes(t *testing.T) {
	for _, st := range particle.Strategies() {
		rep, err := particleSim(st).Run(runCfg())
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		if rep.Elapsed <= 0 {
			t.Fatalf("%v: no elapsed time", st)
		}
		if rep.ParticleLoads[0] != nil {
			t.Errorf("%v: flow instance has a particle load report", st)
		}
		lr := rep.ParticleLoads[1]
		if lr == nil {
			t.Fatalf("%v: particle instance missing load report", st)
		}
		if lr.Strategy != st.String() || lr.Ranks != 4 {
			t.Errorf("%v: load report %+v", st, lr)
		}
		if lr.PeakImbalance < 1 {
			t.Errorf("%v: peak imbalance %v below 1", st, lr.PeakImbalance)
		}
		if st == particle.WorkSteal && lr.Stolen == 0 {
			t.Errorf("steal strategy never stole on a clustered cloud")
		}
		if st == particle.Repartition && lr.Repartitions == 0 {
			t.Errorf("repartition strategy never fired under threshold 1.2")
		}
	}
}

// TestCoupledParticleDefaultsDroplets checks the MeshCells/4 default
// (the paper's 7M droplets per 28M cells) and that instance validation
// errors surface with the instance name.
func TestCoupledParticleDefaultsDroplets(t *testing.T) {
	sim := particleSim(particle.StaticSplit)
	sim.Instances[1].Particle = nil // all defaults: Droplets = MeshCells/4
	if _, err := sim.Run(runCfg()); err != nil {
		t.Fatal(err)
	}
	bad := particleSim(particle.StaticSplit)
	bad.Instances[1].MeshCells = 0
	bad.Instances[1].Particle = nil
	if _, err := bad.Run(runCfg()); err == nil {
		t.Error("zero-droplet particle instance accepted")
	}
}

// TestCoupledParticleCollectivePathsIdentical is the subsystem's coupled
// determinism gate: the full particle↔flow simulation must produce
// bitwise-identical virtual clocks and state digests under GOMAXPROCS=1
// and full host parallelism, for every strategy.
func TestCoupledParticleCollectivePathsIdentical(t *testing.T) {
	for _, st := range particle.Strategies() {
		run := func(cfg mpi.Config) *Report {
			rep, err := particleSim(st).Run(cfg)
			if err != nil {
				t.Fatalf("%v: %v", st, err)
			}
			return rep
		}
		base := run(runCfg())
		prev := runtime.GOMAXPROCS(1)
		serial := run(runCfg())
		runtime.GOMAXPROCS(prev)
		if serial.Elapsed != base.Elapsed {
			t.Errorf("%v: elapsed %v vs %v", st, serial.Elapsed, base.Elapsed)
		}
		for r := range base.Stats.Clocks {
			if serial.Stats.Clocks[r] != base.Stats.Clocks[r] {
				t.Errorf("%v: rank %d clock %v vs %v", st, r, serial.Stats.Clocks[r], base.Stats.Clocks[r])
			}
		}
		for r := range base.RankDigests {
			if serial.RankDigests[r] != base.RankDigests[r] {
				t.Errorf("%v: rank %d digest %#x vs %#x", st, r, serial.RankDigests[r], base.RankDigests[r])
			}
		}
	}
}

// TestCoupledParticleTraceAttribution checks the critical-path analyser
// sees the particle component like any other: a traced run attributes
// shares to the named instances/units including the spray.
func TestCoupledParticleTraceAttribution(t *testing.T) {
	cfg := runCfg()
	cfg.Trace = true
	rep, err := particleSim(particle.StaticSplit).Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Critical == nil || len(rep.CriticalComponents) == 0 {
		t.Fatal("traced run missing critical path attribution")
	}
	seen := map[string]bool{}
	for _, c := range rep.CriticalComponents {
		seen[c.Label] = true
	}
	for _, want := range []string{"flow", "spray", "spray-cu"} {
		if !seen[want] {
			t.Errorf("critical path attribution missing component %q (got %v)", want, rep.CriticalComponents)
		}
	}
}

// TestCoupledParticleResilience injects a particle-rank crash into a
// checkpointed coupled run: recovery must restore from the last
// checkpoint and finish with final state digests bitwise identical to
// the fault-free run — including the repartition balancer's tree, which
// travels through the checkpoint.
func TestCoupledParticleResilience(t *testing.T) {
	for _, st := range []particle.Strategy{particle.StaticSplit, particle.Repartition} {
		mk := func() *Simulation {
			s := particleSim(st)
			s.DensitySteps = 8
			return s
		}
		base, err := mk().RunResilient(runCfg(), ResilienceOptions{CheckpointEvery: 2})
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		if base.Attempts != 1 {
			t.Fatalf("%v: baseline restarted: %d attempts", st, base.Attempts)
		}
		// Rank 5 is the second particle rank (flow holds 0-3).
		plan := &fault.Plan{Crashes: []fault.Crash{{Rank: 5, At: 0.9 * base.Elapsed}}}
		faulty, err := mk().RunResilient(runCfg(), ResilienceOptions{
			Plan: plan, CheckpointEvery: 2,
		})
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		if faulty.Attempts != 2 {
			t.Fatalf("%v: attempts = %d, want 2", st, faulty.Attempts)
		}
		if faulty.Elapsed <= base.Elapsed {
			t.Errorf("%v: faulty elapsed %v not above fault-free %v", st, faulty.Elapsed, base.Elapsed)
		}
		for r := range base.RankDigests {
			if faulty.RankDigests[r] != base.RankDigests[r] {
				t.Errorf("%v: rank %d digest %#x != fault-free %#x",
					st, r, faulty.RankDigests[r], base.RankDigests[r])
			}
		}
	}
}
