package coupler

import (
	"reflect"
	"testing"

	"cpx/internal/fault"
	"cpx/internal/particle"
)

// TestNeverFiringFaultPlanIsBitwiseNoop: with nobody dying, the
// fault-aware replay of mpi's collectives equals the plan-less replay. A
// sliding-plane simulation and a particle simulation each produce
// bitwise-identical virtual time, accounting and final physics state
// with no plan and under a plan whose only crash comes after the run has
// ended.
func TestNeverFiringFaultPlanIsBitwiseNoop(t *testing.T) {
	for name, sim := range map[string]func() *Simulation{
		"sliding":  func() *Simulation { return twoRowSim(TreePrefetch) },
		"particle": func() *Simulation { return particleSim(particle.WorkSteal) },
	} {
		plain, err := sim().Run(runCfg())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg := runCfg()
		cfg.Faults = &fault.Plan{Crashes: []fault.Crash{{Rank: 0, At: 2 * plain.Elapsed}}}
		planned, err := sim().Run(cfg)
		if err != nil {
			t.Fatalf("%s under the never-firing plan: %v", name, err)
		}
		if plain.Elapsed != planned.Elapsed {
			t.Errorf("%s: Elapsed: plain %v, planned %v", name, plain.Elapsed, planned.Elapsed)
		}
		rs, ms := plain.Stats, planned.Stats
		for r := range rs.Clocks {
			if rs.Clocks[r] != ms.Clocks[r] {
				t.Errorf("%s: rank %d clock: plain %v, planned %v", name, r, rs.Clocks[r], ms.Clocks[r])
			}
			if rs.Compute[r] != ms.Compute[r] || rs.Comm[r] != ms.Comm[r] {
				t.Errorf("%s: rank %d compute/comm split differs under the never-firing plan", name, r)
			}
		}
		if !reflect.DeepEqual(plain.RankDigests, planned.RankDigests) {
			t.Errorf("%s: rank digests differ under the never-firing plan", name)
		}
		if !reflect.DeepEqual(plain.InstanceTime, planned.InstanceTime) ||
			!reflect.DeepEqual(plain.UnitTime, planned.UnitTime) {
			t.Errorf("%s: per-component times differ under the never-firing plan", name)
		}
	}
}
