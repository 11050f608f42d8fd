package coupler

import (
	"reflect"
	"testing"

	"cpx/internal/fault"
	"cpx/internal/mpi"
	"cpx/internal/particle"
)

// messageLevel returns cfg with a fault plan whose only crash is
// scheduled past any reachable virtual time. The plan never fires, but a
// non-empty plan is what puts mpi's Barrier/Bcast/Allreduce on real
// messages instead of the analytic replay — the way a test outside
// package mpi reaches the reference implementation.
func messageLevel(cfg mpi.Config) mpi.Config {
	cfg.Faults = &fault.Plan{Crashes: []fault.Crash{{Rank: 0, At: 1e300}}}
	return cfg
}

// TestNeverFiringFaultPlanIsBitwiseNoop is the coupled-run differential
// test of the runtime's two collective paths: a sliding-plane simulation
// and a particle simulation each produce bitwise-identical virtual time,
// accounting and final physics state with no plan (collectives replayed
// analytically) and under a plan that never fires (collectives as
// messages).
func TestNeverFiringFaultPlanIsBitwiseNoop(t *testing.T) {
	for name, sim := range map[string]func() *Simulation{
		"sliding":  func() *Simulation { return twoRowSim(TreePrefetch) },
		"particle": func() *Simulation { return particleSim(particle.WorkSteal) },
	} {
		replay, err := sim().Run(runCfg())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		messages, err := sim().Run(messageLevel(runCfg()))
		if err != nil {
			t.Fatalf("%s under the never-firing plan: %v", name, err)
		}
		if replay.Elapsed != messages.Elapsed {
			t.Errorf("%s: Elapsed: replay %v, messages %v", name, replay.Elapsed, messages.Elapsed)
		}
		rs, ms := replay.Stats, messages.Stats
		for r := range rs.Clocks {
			if rs.Clocks[r] != ms.Clocks[r] {
				t.Errorf("%s: rank %d clock: replay %v, messages %v", name, r, rs.Clocks[r], ms.Clocks[r])
			}
			if rs.Compute[r] != ms.Compute[r] || rs.Comm[r] != ms.Comm[r] {
				t.Errorf("%s: rank %d compute/comm split differs between collective paths", name, r)
			}
		}
		if !reflect.DeepEqual(replay.RankDigests, messages.RankDigests) {
			t.Errorf("%s: rank digests differ between collective paths", name)
		}
		if !reflect.DeepEqual(replay.InstanceTime, messages.InstanceTime) ||
			!reflect.DeepEqual(replay.UnitTime, messages.UnitTime) {
			t.Errorf("%s: per-component times differ between collective paths", name)
		}
	}
}
