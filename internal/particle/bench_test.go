package particle

import (
	"fmt"
	"testing"

	"cpx/internal/cluster"
	"cpx/internal/mpi"
)

// BenchmarkRunParticle measures the host-side cost of whole particle
// jobs (construction + 5 coupled steps) per
// balancing strategy at the paper's scaling rank counts. Recorded in
// BENCH_particle.json; `make bench-particle` re-measures.
func BenchmarkRunParticle(b *testing.B) {
	for _, p := range []int{8, 64, 512} {
		for _, st := range Strategies() {
			b.Run(fmt.Sprintf("ranks=%d/strategy=%s", p, st), func(b *testing.B) {
				cfg := mpi.Config{Machine: cluster.ARCHER2(), Watchdog: -1}
				pc := Config{Droplets: 7_000_000, ConeFraction: 0.1, EvapSteps: 50,
					Strategy: st, ImbalanceThreshold: 1.3, Seed: 3}
				b.ReportAllocs()
				var virtual float64
				for i := 0; i < b.N; i++ {
					st, err := mpi.Run(p, cfg, func(c *mpi.Comm) error {
						s, err := New(c, pc, ScaleOpts{MaxDropletsPerRank: 64})
						if err != nil {
							return err
						}
						for step := 0; step < 5; step++ {
							s.Step(0.02)
						}
						return nil
					})
					if err != nil {
						b.Fatal(err)
					}
					virtual = st.Elapsed
				}
				b.ReportMetric(virtual, "virtual-s/run")
			})
		}
	}
}
