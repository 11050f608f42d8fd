package coupler

// Coordinated checkpoint/restart for coupled runs (DESIGN.md Section 7).
//
// The checkpoint protocol piggybacks on the coupler's step structure: at
// the end of a density step on a checkpoint boundary, every world rank
// snapshots its mutable state (solver fields for instance ranks, donor
// caches and mappings for coupling-unit ranks) and joins a world-wide
// CheckpointSync that charges the modelled stable-storage write and
// synchronises all rank clocks to the commit time. Because every message
// of a density step is matched within that step, the cut is globally
// consistent by construction — no in-flight messages cross it.
//
// Recovery restarts the whole world (ULFM shrink-and-respawn is modelled
// as a full restart with re-setup), restores every rank from the last
// committed snapshot, and jumps the rank clocks to the checkpoint's
// synchronised commit time. A restarted attempt therefore replays the
// virtual timeline of the fault-free run bit for bit, which is what lets
// RunResilient charge failures as an additive overhead:
//
//	elapsed(faulty) = elapsed(fault-free) + rework + detection + restart
//
// with exact float equality for crash-only fault plans (stragglers and
// degraded links perturb the replayed timeline itself, so for those the
// identity holds only for the state digests, not the clocks).

import (
	"errors"
	"fmt"

	"cpx/internal/cluster"
	"cpx/internal/fault"
	"cpx/internal/mpi"
)

// mapperCheckpoint is a deep copy of a Mapper's mutable state: the donor
// cache carried between exchanges, the retained mapping, and the
// hit/miss counters (which feed MapWork's modelled cost, so they must
// survive a restart bit for bit).
type mapperCheckpoint struct {
	Cache      [][]int
	Last       *Mapping
	Hits, Miss int
}

func (m *Mapper) checkpoint() *mapperCheckpoint {
	ck := &mapperCheckpoint{Hits: m.LastHits, Miss: m.LastMisses}
	if m.cache != nil {
		ck.Cache = make([][]int, len(m.cache))
		for i, c := range m.cache {
			ck.Cache[i] = append([]int(nil), c...)
		}
	}
	if m.last != nil {
		ck.Last = m.last.clone()
	}
	return ck
}

func (m *Mapper) restore(ck *mapperCheckpoint) {
	m.cache = nil
	if ck.Cache != nil {
		m.cache = make([][]int, len(ck.Cache))
		for i, c := range ck.Cache {
			m.cache[i] = append([]int(nil), c...)
		}
	}
	m.last = nil
	if ck.Last != nil {
		m.last = ck.Last.clone()
	}
	m.LastHits, m.LastMisses = ck.Hits, ck.Miss
}

func (mp *Mapping) clone() *Mapping {
	out := &Mapping{
		Donors:  make([][]int, len(mp.Donors)),
		Weights: make([][]float64, len(mp.Weights)),
	}
	for i, d := range mp.Donors {
		out.Donors[i] = append([]int(nil), d...)
	}
	for i, w := range mp.Weights {
		out.Weights[i] = append([]float64(nil), w...)
	}
	return out
}

// digest hashes the exact bit patterns of the mapper's mutable state.
func (m *Mapper) digest(d *fault.Digest) {
	d.Int(len(m.cache))
	for _, c := range m.cache {
		for _, v := range c {
			d.Int(v)
		}
	}
	if m.last != nil {
		for _, idx := range m.last.Donors {
			for _, v := range idx {
				d.Int(v)
			}
		}
		for _, w := range m.last.Weights {
			d.Floats(w)
		}
	}
	d.Int(m.LastHits)
	d.Int(m.LastMisses)
}

// cuCheckpointBytes is the true (full-scale) size of a CU rank's share of
// the mapping state written to stable storage: this rank's targets on
// both sides, each with DonorsPerTarget (index, weight) pairs.
func cuCheckpointBytes(us UnitSpec, cuRanks int) int {
	perSide := float64(us.effectivePoints()) / float64(cuRanks)
	return int(perSide * 2 * DonorsPerTarget * 16)
}

// resilientCtx carries the checkpoint/restart state of one RunResilient
// attempt through rankMain. A nil ctx (plain Run) disables everything;
// all methods are nil-receiver safe.
type resilientCtx struct {
	store *fault.Store
	every int                     // checkpoint cadence in density steps; <= 0 disables
	cost  func(bytes int) float64 // per-rank write seconds for a snapshot size
	// resume state: restart from snapshot step/clock of the last commit.
	resume bool
	step   int
	clock  float64
}

func (rc *resilientCtx) resuming() bool { return rc != nil && rc.resume }

// due reports whether a checkpoint is scheduled after `completed` steps
// of `total`: on every cadence boundary except the final step, whose
// checkpoint no recovery could ever use.
func (rc *resilientCtx) due(completed, total int) bool {
	return rc != nil && rc.every > 0 && completed > 0 && completed < total && completed%rc.every == 0
}

// checkpoint runs this rank's part of the coordinated checkpoint after
// `step`: save the state, synchronise every rank clock charging the
// modelled write, then commit. Collective over the world.
func (rc *resilientCtx) checkpoint(world *mpi.Comm, step int, walk func(*fault.State), bytes int) {
	snap := fault.Save(walk)
	t := world.CheckpointSync(rc.cost(bytes))
	rc.store.Commit(world.Rank(), step, snap, t)
}

// restoreFrom restores this rank's committed snapshot through walk and
// jumps the rank clock to the checkpoint's synchronised commit time.
// Returns the density step to resume from.
func (rc *resilientCtx) restoreFrom(world *mpi.Comm, walk func(*fault.State)) (int, error) {
	snap, ok := rc.store.Load(world.Rank())
	if !ok {
		return 0, fmt.Errorf("coupler: rank %d has no snapshot for restart at step %d", world.Rank(), rc.step)
	}
	if err := snap.Restore(walk); err != nil {
		return 0, err
	}
	world.ResetClock(rc.clock)
	return rc.step, nil
}

// ResilienceOptions configures RunResilient.
type ResilienceOptions struct {
	// Plan is the fault plan injected into the run (nil for a fault-free
	// run, e.g. the baseline of a differential comparison).
	Plan *fault.Plan
	// CheckpointEvery takes a coordinated checkpoint each time this many
	// density steps complete (0 disables checkpointing; a crash then
	// restarts from the beginning).
	CheckpointEvery int
	// RestartCost is the modelled virtual-time cost of tearing down and
	// relaunching the coupled job after a failure (communicator rebuild,
	// respawn, solver re-setup). 0 means fault.DefaultRestartCost;
	// negative means free restarts.
	RestartCost float64
	// MaxRestarts bounds the recovery attempts (0 means 8).
	MaxRestarts int
}

// ResilienceReport is a Report plus the recovery accounting. Elapsed
// includes the failure overhead; the per-component times are those of
// the final (successful) attempt.
type ResilienceReport struct {
	*Report
	// Attempts is 1 + the number of restarts.
	Attempts int
	// Overhead = Rework + Detection + Restart, already folded into
	// Elapsed.
	Overhead  float64
	Rework    float64 // virtual time lost between last commit and each crash
	Detection float64 // modelled failure-detection latency, per failure
	Restart   float64 // modelled relaunch cost, per failure
	// Failures records each observed failure: the first crashed rank and
	// the virtual time of the earliest death.
	Failures []fault.Crash
}

// RunResilient executes the coupled simulation under a fault plan with
// coordinated checkpoint/restart. On a rank failure it rolls the world
// back to the last committed checkpoint, charges rework + detection +
// restart to virtual time, drops the already-fired faults from the plan,
// and replays.
func (sim *Simulation) RunResilient(cfg mpi.Config, ro ResilienceOptions) (*ResilienceReport, error) {
	if err := sim.Validate(); err != nil {
		return nil, err
	}
	machine := cfg.Machine
	if machine == nil {
		machine = cluster.ARCHER2()
	}
	restartCost := ro.RestartCost
	switch {
	case restartCost == 0:
		restartCost = fault.DefaultRestartCost
	case restartCost < 0:
		restartCost = 0
	}
	maxRestarts := ro.MaxRestarts
	if maxRestarts <= 0 {
		maxRestarts = 8
	}
	plan := ro.Plan
	store := fault.NewStore(sim.TotalRanks())
	res := &ResilienceReport{}
	for {
		rc := &resilientCtx{store: store, every: ro.CheckpointEvery, cost: machine.CheckpointTime}
		if step, clock, ok := store.Last(); ok {
			rc.resume, rc.step, rc.clock = true, step, clock
		}
		cfg.Faults = plan
		rep, err := sim.run(cfg, rc)
		res.Attempts++
		if err == nil {
			rep.Elapsed += res.Overhead
			res.Report = rep
			return res, nil
		}
		var rf *fault.RanksFailed
		if !errors.As(err, &rf) {
			return nil, err
		}
		if res.Attempts > maxRestarts {
			return nil, fmt.Errorf("coupler: giving up after %d attempts: %w", res.Attempts, err)
		}
		ckClock := 0.0
		if _, clock, ok := store.Last(); ok {
			ckClock = clock
		}
		rework := rf.FailedAt - ckClock
		if rework < 0 {
			rework = 0
		}
		detection := plan.Detection()
		res.Rework += rework
		res.Detection += detection
		res.Restart += restartCost
		res.Overhead += rework + detection + restartCost
		res.Failures = append(res.Failures, fault.Crash{Rank: rf.Crashed[0], At: rf.FailedAt})
		plan = plan.After(rf.FailedAt)
	}
}
