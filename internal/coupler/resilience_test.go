package coupler

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"cpx/internal/fault"
	"cpx/internal/particle"
	"cpx/internal/simpic"
)

// resilienceSim is twoRowSim with enough density steps for several
// checkpoint boundaries.
func resilienceSim() *Simulation {
	s := twoRowSim(TreePrefetch)
	s.DensitySteps = 8
	return s
}

// TestResilientFaultFreeMatchesPlainRun: with no plan and no
// checkpointing, RunResilient is exactly Run.
func TestResilientFaultFreeMatchesPlainRun(t *testing.T) {
	plain, err := resilienceSim().Run(runCfg())
	if err != nil {
		t.Fatal(err)
	}
	res, err := resilienceSim().RunResilient(runCfg(), ResilienceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 1 || res.Overhead != 0 {
		t.Fatalf("fault-free run: attempts=%d overhead=%v", res.Attempts, res.Overhead)
	}
	if res.Elapsed != plain.Elapsed {
		t.Errorf("elapsed %v != plain %v", res.Elapsed, plain.Elapsed)
	}
	for r := range plain.RankDigests {
		if res.RankDigests[r] != plain.RankDigests[r] {
			t.Errorf("rank %d digest %#x != plain %#x", r, res.RankDigests[r], plain.RankDigests[r])
		}
	}
}

// TestDifferentialResilience is the subsystem's acceptance test: a
// coupled run with an injected rank crash must recover from the last
// checkpoint and finish with final physics state bitwise identical to
// the fault-free run of the same seed, its virtual elapsed exceeding the
// fault-free elapsed by exactly the modelled detection + restart +
// rework cost.
func TestDifferentialResilience(t *testing.T) {
	base, err := resilienceSim().RunResilient(runCfg(), ResilienceOptions{CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if base.Attempts != 1 {
		t.Fatalf("baseline restarted: %d attempts", base.Attempts)
	}

	// Kill an instance rank late in the run, well after several
	// checkpoints have committed.
	plan := &fault.Plan{Crashes: []fault.Crash{{Rank: 2, At: 0.9 * base.Elapsed}}}
	faulty, err := resilienceSim().RunResilient(runCfg(), ResilienceOptions{
		Plan:            plan,
		CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one crash, one recovery)", faulty.Attempts)
	}
	if len(faulty.Failures) != 1 || faulty.Failures[0].Rank != 2 {
		t.Fatalf("failures = %+v, want one failure of rank 2", faulty.Failures)
	}

	// Bitwise-identical final physics state on every rank.
	for r := range base.RankDigests {
		if faulty.RankDigests[r] != base.RankDigests[r] {
			t.Errorf("rank %d: digest %#x != fault-free %#x", r, faulty.RankDigests[r], base.RankDigests[r])
		}
	}

	// Exact virtual-time accounting: the recovered run costs precisely
	// the modelled overhead more than the fault-free run.
	if got, want := faulty.Elapsed, base.Elapsed+faulty.Overhead; got != want {
		t.Errorf("elapsed = %v, want fault-free + overhead = %v (diff %v)", got, want, got-want)
	}
	if got, want := faulty.Overhead, faulty.Rework+faulty.Detection+faulty.Restart; got != want {
		t.Errorf("overhead = %v, want rework+detection+restart = %v", got, want)
	}
	if faulty.Detection != plan.Detection() {
		t.Errorf("detection = %v, want %v", faulty.Detection, plan.Detection())
	}
	if faulty.Restart != fault.DefaultRestartCost {
		t.Errorf("restart = %v, want default %v", faulty.Restart, fault.DefaultRestartCost)
	}
	// Rework strictly below the crash time proves recovery used a
	// committed checkpoint rather than restarting from scratch.
	if faulty.Rework <= 0 || faulty.Rework >= faulty.Failures[0].At {
		t.Errorf("rework = %v, want in (0, %v): checkpoint not used", faulty.Rework, faulty.Failures[0].At)
	}
}

// TestResilienceWithoutCheckpointsRestartsFromScratch: a crash with
// checkpointing disabled replays the whole run; the identity and the
// bitwise final state still hold, with rework equal to the full lost
// time.
func TestResilienceWithoutCheckpointsRestartsFromScratch(t *testing.T) {
	base, err := resilienceSim().RunResilient(runCfg(), ResilienceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	crashAt := 0.5 * base.Elapsed
	plan := &fault.Plan{Crashes: []fault.Crash{{Rank: 9, At: crashAt}}}
	faulty, err := resilienceSim().RunResilient(runCfg(), ResilienceOptions{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", faulty.Attempts)
	}
	if faulty.Rework != faulty.Failures[0].At {
		t.Errorf("rework = %v, want full lost time %v", faulty.Rework, faulty.Failures[0].At)
	}
	if got, want := faulty.Elapsed, base.Elapsed+faulty.Overhead; got != want {
		t.Errorf("elapsed = %v, want %v", got, want)
	}
	for r := range base.RankDigests {
		if faulty.RankDigests[r] != base.RankDigests[r] {
			t.Errorf("rank %d digest mismatch after scratch restart", r)
		}
	}
}

// TestPeerDeathSurfacesInsteadOfDeadlock: when a peer instance dies
// mid-exchange, the surviving instance's ranks get a rank-failure error
// after the modelled detection latency — the run returns promptly
// instead of leaving the survivors stuck.
func TestPeerDeathSurfacesInsteadOfDeadlock(t *testing.T) {
	sim := resilienceSim()
	cfg := runCfg()
	// Rank 0 is a row1 boundary rank: row2 only ever hears from it
	// through the CU, so its death must cascade CU -> row2.
	cfg.Faults = &fault.Plan{Crashes: []fault.Crash{{Rank: 0, At: 1e-4}}}
	_, err := sim.Run(cfg)
	if err == nil {
		t.Fatal("run with a killed rank succeeded")
	}
	var rf *fault.RanksFailed
	if !errors.As(err, &rf) {
		t.Fatalf("error %v (%T), want *fault.RanksFailed", err, err)
	}
	if len(rf.Crashed) != 1 || rf.Crashed[0] != 0 {
		t.Errorf("crashed = %v, want [0]", rf.Crashed)
	}
	if len(rf.Detections) == 0 {
		t.Error("no survivor reported a RankFailure detection")
	}
	for _, d := range rf.Detections {
		if d.DetectedAt < d.FailedAt {
			t.Errorf("detection at %v precedes failure at %v", d.DetectedAt, d.FailedAt)
		}
	}
}

// TestMapperCheckpointRoundTrip: restoring a mapper snapshot reproduces
// cache, mapping, and counters exactly.
func TestMapperCheckpointRoundTrip(t *testing.T) {
	donors := AnnulusPoints(128, 3)
	targets := AnnulusPoints(64, 4)
	m := &Mapper{Kind: TreePrefetch}
	m.last = m.Map(targets, donors)
	m.last = m.Map(targets, Rotate(donors, 0.001)) // warm cache, nonzero hits
	ck := m.checkpoint()

	d0 := fault.NewDigest()
	m.digest(d0)

	m2 := &Mapper{Kind: TreePrefetch}
	m2.restore(ck)
	d1 := fault.NewDigest()
	m2.digest(d1)
	if d0.Sum64() != d1.Sum64() {
		t.Fatal("restored mapper digest differs")
	}

	// The snapshot is a deep copy: mutating the restored mapper must not
	// leak back into the checkpoint.
	m2.cache[0][0] = -1
	m2.last.Weights[0][0] = 42
	if ck.Cache[0][0] == -1 || ck.Last.Weights[0][0] == 42 {
		t.Fatal("checkpoint aliases restored mapper state")
	}
}

// TestResilienceIdenticalAcrossHostParallelism: a full checkpoint/restart
// run with an injected crash must produce identical failure reports,
// virtual elapsed and bitwise-identical final physics state whether the
// rank goroutines share one host thread or run in parallel.
func TestResilienceIdenticalAcrossHostParallelism(t *testing.T) {
	base, err := resilienceSim().RunResilient(runCfg(), ResilienceOptions{CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	plan := &fault.Plan{Crashes: []fault.Crash{{Rank: 2, At: 0.9 * base.Elapsed}}}
	opts := ResilienceOptions{Plan: plan, CheckpointEvery: 2}

	parallel, err := resilienceSim().RunResilient(runCfg(), opts)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(1)
	serial, err := resilienceSim().RunResilient(runCfg(), opts)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}

	if parallel.Elapsed != serial.Elapsed {
		t.Errorf("elapsed differs: parallel %v, serial %v", parallel.Elapsed, serial.Elapsed)
	}
	if parallel.Attempts != serial.Attempts || parallel.Overhead != serial.Overhead ||
		parallel.Rework != serial.Rework || parallel.Detection != serial.Detection || parallel.Restart != serial.Restart {
		t.Errorf("recovery accounting differs:\nparallel: %+v\nserial:   %+v", parallel, serial)
	}
	if len(parallel.Failures) != len(serial.Failures) {
		t.Fatalf("failures differ: %+v vs %+v", parallel.Failures, serial.Failures)
	}
	for i := range parallel.Failures {
		if parallel.Failures[i] != serial.Failures[i] {
			t.Errorf("failure %d differs: %+v vs %+v", i, parallel.Failures[i], serial.Failures[i])
		}
	}
	for r := range parallel.RankDigests {
		if parallel.RankDigests[r] != serial.RankDigests[r] {
			t.Errorf("rank %d digest %#x (parallel) != %#x (serial)", r, parallel.RankDigests[r], serial.RankDigests[r])
		}
	}
}

// everyKindSim couples one instance of each solver kind: an MG-CFD row
// to a SIMPIC combustor and an FEM casing, and the combustor to a
// particle spray, through steady units exchanging every other step.
func everyKindSim() *Simulation {
	unit := func(name string, a, b int) UnitSpec {
		return UnitSpec{Name: name, A: a, B: b, Kind: SteadyState, Points: 1000, Ranks: 1, ExchangeEvery: 2}
	}
	return &Simulation{
		Instances: []InstanceSpec{
			{Name: "row", Kind: KindMGCFD, MeshCells: 4096, Ranks: 3, Seed: 1},
			{Name: "comb", Kind: KindSIMPIC, MeshCells: 512, Ranks: 2, Seed: 1,
				Simpic: &simpic.Config{Cells: 512, ParticlesPerCell: 5, Steps: 16, Seed: 1, FieldEvery: 2}},
			{Name: "casing", Kind: KindFEM, MeshCells: 500, Ranks: 2, Seed: 1},
			{Name: "spray", Kind: KindParticle, MeshCells: 160_000, Ranks: 2, Seed: 1,
				Particle: &particle.Config{Strategy: particle.Repartition}},
		},
		Units:        []UnitSpec{unit("row-comb", 0, 1), unit("row-casing", 0, 2), unit("comb-spray", 1, 3)},
		DensitySteps: 8,
		Scale:        Scale{MaxPointsPerSide: 128},
	}
}

// TestCoupledRestartOfEveryKind crashes one rank of each solver kind
// late in the run. Every recovery must restore from the step-6
// checkpoint, not an earlier one, and end in the fault-free state at
// exactly the fault-free time plus the modelled overhead, so a field
// left out of a solver's Walk fails it.
func TestCoupledRestartOfEveryKind(t *testing.T) {
	opts := ResilienceOptions{CheckpointEvery: 2}
	base, err := everyKindSim().RunResilient(runCfg(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, rank := range []int{1, 3, 5, 7} {
		opts.Plan = &fault.Plan{Crashes: []fault.Crash{{Rank: rank, At: 0.9 * base.Elapsed}}}
		faulty, err := everyKindSim().RunResilient(runCfg(), opts)
		if err != nil {
			t.Fatalf("crash of rank %d: %v", rank, err)
		}
		// The crash falls between the step-6 commit and the end of the
		// run; a restore from step 4 or 2 reworks more.
		if faulty.Attempts != 2 || math.Abs(faulty.Rework-0.014974137) > 1e-9 {
			t.Errorf("crash of rank %d: %d attempts, rework %.9f s, want 2 and 0.014974137 s",
				rank, faulty.Attempts, faulty.Rework)
		}
		for r := range base.RankDigests {
			if faulty.RankDigests[r] != base.RankDigests[r] {
				t.Errorf("crash of rank %d: rank %d digest %#x != fault-free %#x", rank, r, faulty.RankDigests[r], base.RankDigests[r])
			}
		}
		if got, want := faulty.Elapsed, base.Elapsed+faulty.Overhead; got != want {
			t.Errorf("crash of rank %d: elapsed %v, want fault-free + overhead = %v", rank, got, want)
		}
	}
}

// TestCheckpointDue: checkpoints fall on every cadence boundary except
// the final step, whose checkpoint no recovery could use; a nil context
// (plain Run) or a zero cadence takes none.
func TestCheckpointDue(t *testing.T) {
	rc := &resilientCtx{every: 4}
	cases := []struct {
		completed, total int
		want             bool
	}{
		{4, 16, true}, {8, 16, true}, {3, 16, false}, {0, 16, false},
		{16, 16, false}, // final step: useless checkpoint
		{12, 12, false},
	}
	for _, c := range cases {
		if got := rc.due(c.completed, c.total); got != c.want {
			t.Errorf("due(%d, %d) = %v, want %v", c.completed, c.total, got, c.want)
		}
	}
	var plain *resilientCtx
	if plain.due(4, 16) {
		t.Error("nil context claims a checkpoint is due")
	}
	if (&resilientCtx{}).due(4, 16) {
		t.Error("every=0 claims a checkpoint is due")
	}
}

// TestMapperCheckpointSurvivesReusedRebuilds: a sliding-plane rebuild
// writes its mapping and donor cache into the storage of the ones it
// replaces, so a checkpoint must not share that storage. Two rebuilds
// after a checkpoint overwrite the recycled slabs; a restore still
// brings back the checkpointed donors, weights, cache and counters bit
// for bit.
func TestMapperCheckpointSurvivesReusedRebuilds(t *testing.T) {
	donors := AnnulusPoints(128, 3)
	targets := AnnulusPoints(64, 4)
	m := &Mapper{Kind: TreePrefetch}
	rebuild := func(step int) {
		m.last = m.mapIndexed(targets, newDonorIndex(Rotate(donors, 0.01*float64(step)), m.Kind), m.last)
	}
	rebuild(0)
	rebuild(1)
	ck := m.checkpoint()
	want := fault.NewDigest()
	m.digest(want)
	var wantDonors []int
	var wantWeights []uint64
	for ti := range m.last.Donors {
		wantDonors = append(wantDonors, m.last.Donors[ti]...)
		for _, w := range m.last.Weights[ti] {
			wantWeights = append(wantWeights, math.Float64bits(w))
		}
	}
	wantCache := &m.cache[0][0]
	mapping, slab := m.last, &m.last.donorSlab[0]

	rebuild(2)
	rebuild(3)
	if m.last != mapping || &m.last.donorSlab[0] != slab || &m.cache[0][0] != wantCache {
		t.Fatal("the rebuilds did not reuse the mapping's and the cache's storage")
	}
	moved := fault.NewDigest()
	m.digest(moved)
	if moved.Sum64() == want.Sum64() {
		t.Fatal("the rebuilds left the mapper unchanged; the test shows nothing")
	}

	m.restore(ck)
	got := fault.NewDigest()
	m.digest(got)
	if got.Sum64() != want.Sum64() {
		t.Error("restored mapper digest differs from the checkpointed one")
	}
	i := 0
	for ti := range m.last.Donors {
		for j, di := range m.last.Donors[ti] {
			if di != wantDonors[i] || math.Float64bits(m.last.Weights[ti][j]) != wantWeights[i] {
				t.Fatalf("target %d stencil %d: donor %d weight %v, checkpointed %d %v",
					ti, j, di, m.last.Weights[ti][j], wantDonors[i], math.Float64frombits(wantWeights[i]))
			}
			i++
		}
	}
	if i != len(wantDonors) {
		t.Fatalf("restored %d stencil entries, checkpointed %d", i, len(wantDonors))
	}
}
