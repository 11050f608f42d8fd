package harness

import (
	"fmt"

	"cpx/internal/coupler"
	"cpx/internal/particle"
)

// particleSuite is one of MiniCombust's three scaling suites: how the
// flow mesh and droplet population grow with the particle rank count.
type particleSuite struct {
	name string
	// configure returns the flow/particle geometry for one sweep point.
	configure func(idx, partRanks int) (flowRanks int, meshCells, droplets int64)
}

// ParticleScaling reproduces MiniCombust's three scaling suites on the
// coupled flow↔particle workload, once per load-balancing strategy:
//
//   - particle-weak: fixed flow mesh, droplets proportional to the
//     particle rank count (constant droplets per rank);
//   - mesh-weak: mesh cells per flow rank constant, droplet population
//     at the paper's MeshCells/4 ratio, so both sides grow together;
//   - strong: fixed mesh and fixed droplet population, particle ranks
//     sweep.
//
// Every run is traced, so each row carries the particle instance's
// critical-path share. The
// balancing outcome (peak max/mean imbalance, migrations, steals,
// repartitions) comes from the coupler's per-instance load report.
// `cpxbench -exp particle-scaling` prints the table into
// results/particle-scaling.txt.
func (o Options) ParticleScaling() (*Table, error) {
	partRanks := []int{4, 8, 16}
	steps := 6
	if o.Quick {
		partRanks = []int{4, 8}
		steps = 4
	}
	suites := []particleSuite{
		{name: "particle-weak", configure: func(idx, pr int) (int, int64, int64) {
			return 8, 32_768, int64(pr) * 65_536
		}},
		{name: "mesh-weak", configure: func(idx, pr int) (int, int64, int64) {
			fr := 4 << idx
			return fr, int64(fr) * 8_192, 0 // droplets default: MeshCells/4
		}},
		{name: "strong", configure: func(idx, pr int) (int, int64, int64) {
			return 8, 65_536, 1_048_576
		}},
	}
	t := &Table{
		ID:    "particle-scaling",
		Title: fmt.Sprintf("MiniCombust scaling suites on the coupled flow+particle workload (%d density steps, ARCHER2)", steps),
		Headers: []string{"suite", "strategy", "flow", "particle", "droplets",
			"virtual(s)", "spray_crit", "peak_imb", "moved", "stolen", "reparts"},
		Notes: []string{
			"particle-weak: 65,536 droplets per particle rank on a fixed 32,768-cell mesh",
			"mesh-weak: 8,192 cells per flow rank, droplets at the paper's MeshCells/4 ratio",
			"strong: fixed 65,536-cell mesh and 1,048,576 droplets, particle ranks sweep",
			"spray_crit is the particle instance's share of the traced virtual-time critical path",
		},
	}
	for _, suite := range suites {
		for _, st := range particle.Strategies() {
			for idx, pr := range partRanks {
				flowRanks, meshCells, droplets := suite.configure(idx, pr)
				sim := func() *coupler.Simulation {
					return &coupler.Simulation{
						Instances: []coupler.InstanceSpec{
							{Name: "flow", Kind: coupler.KindMGCFD, MeshCells: meshCells,
								Ranks: flowRanks, Seed: 1},
							{Name: "spray", Kind: coupler.KindParticle, MeshCells: meshCells,
								Ranks: pr, Seed: 3,
								Particle: &particle.Config{
									Droplets: droplets, ConeFraction: 0.1, EvapSteps: 50,
									Strategy: st, ImbalanceThreshold: 1.2,
								}},
						},
						Units: []coupler.UnitSpec{
							{Name: "spray-cu", A: 0, B: 1, Kind: coupler.SteadyState,
								Points: 2000, Ranks: 2, Search: coupler.Tree, ExchangeEvery: 1},
						},
						DensitySteps: steps,
						Scale: coupler.Scale{
							MGCFD:            coupler.ProductionScale().MGCFD,
							Particle:         particle.ScaleOpts{MaxDropletsPerRank: 256},
							MaxPointsPerSide: 512,
						},
					}
				}
				cfg := o.coupledConfig()
				cfg.Trace = true
				rep, err := sim().Run(cfg)
				if err != nil {
					return nil, fmt.Errorf("particle-scaling %s/%v %d ranks: %w", suite.name, st, pr, err)
				}
				var sprayShare float64
				for _, ls := range rep.CriticalComponents {
					if ls.Label == "spray" {
						sprayShare = ls.Share
					}
				}
				lr := rep.ParticleLoads[1]
				if lr == nil {
					return nil, fmt.Errorf("particle-scaling %s/%v %d ranks: missing load report", suite.name, st, pr)
				}
				effDroplets := droplets
				if effDroplets == 0 {
					effDroplets = meshCells / 4
				}
				t.AddRow(suite.name, st.String(), d(flowRanks), d(pr),
					fmt.Sprintf("%d", effDroplets), fmt.Sprintf("%.6f", rep.Elapsed),
					pct(sprayShare), f3(lr.PeakImbalance),
					d(lr.Moved), d(lr.Stolen), d(lr.Repartitions))
				o.logf("particle-scaling: %s %v flow=%d particle=%d virtual=%.6f",
					suite.name, st, flowRanks, pr, rep.Elapsed)
			}
		}
	}
	return t, nil
}
