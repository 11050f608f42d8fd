package particle

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"

	"cpx/internal/cluster"
	"cpx/internal/fault"
	"cpx/internal/mpi"
	"cpx/internal/order"
)

func cfg() mpi.Config {
	return mpi.Config{Machine: cluster.SmallCluster()}
}

func smallCfg(st Strategy) Config {
	return Config{Droplets: 40_000, ConeFraction: 0.15, EvapSteps: 40, Strategy: st, Seed: 7}
}

func smallScale() ScaleOpts { return ScaleOpts{MaxDropletsPerRank: 192} }

func TestConfigValidation(t *testing.T) {
	if err := (Config{Droplets: 0}).Validate(); err == nil {
		t.Error("zero droplets accepted")
	}
	if err := (Config{Droplets: 10, ConeFraction: 1.5}).Validate(); err == nil {
		t.Error("cone fraction > 1 accepted")
	}
	if err := (Config{Droplets: 10, ImbalanceThreshold: 0.5}).Validate(); err == nil {
		t.Error("imbalance threshold below 1 accepted")
	}
	if err := (Config{Droplets: 10, Strategy: Strategy(9)}).Validate(); err == nil {
		t.Error("unknown strategy accepted")
	}
	if err := smallCfg(Repartition).withDefaults().Validate(); err != nil {
		t.Error(err)
	}
}

// TestCloudRejectsBadGrid checks that New refuses a process grid it
// cannot lay over the communicator's ranks.
func TestCloudRejectsBadGrid(t *testing.T) {
	_, err := mpi.Run(4, cfg(), func(c *mpi.Comm) error {
		for _, grid := range [][3]int{{3, 1, 1}, {-2, -2, 1}, {4, 1, 0}} {
			bad := smallCfg(StaticSplit)
			bad.Grid = grid
			if _, err := New(c, bad, smallScale()); err == nil {
				return fmt.Errorf("grid %v over 4 ranks accepted", grid)
			}
		}
		return nil
	})
	if err != nil {
		t.Error(err)
	}
}

func TestParseStrategy(t *testing.T) {
	cases := map[string]Strategy{"": StaticSplit, "static": StaticSplit,
		"steal": WorkSteal, "worksteal": WorkSteal, "repartition": Repartition}
	for name, want := range cases {
		got, err := ParseStrategy(name)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseStrategy("round-robin"); err == nil {
		t.Error("unknown strategy name accepted")
	}
	for _, st := range Strategies() {
		back, err := ParseStrategy(st.String())
		if err != nil || back != st {
			t.Errorf("round trip %v -> %q -> %v, %v", st, st.String(), back, err)
		}
	}
}

func TestGridFor(t *testing.T) {
	cases := map[int][3]int{
		1: {1, 1, 1}, 2: {2, 1, 1}, 4: {2, 2, 1}, 7: {7, 1, 1},
		8: {2, 2, 2}, 12: {3, 2, 2}, 64: {4, 4, 4}, 512: {8, 8, 8},
	}
	for p, want := range cases {
		if got := gridFor(p); got != want {
			t.Errorf("gridFor(%d) = %v, want %v", p, got, want)
		}
	}
}

// TestStealPlanHandCase pins the deterministic steal plan on a
// hand-computed load vector: total 12 over 3 ranks, target ceil(12/3)=4,
// so rank 0 (load 10) donates 4 to rank 2 (load 0) and 2 to rank 1
// (load 2) — largest deficit first.
func TestStealPlanHandCase(t *testing.T) {
	plan := stealPlan([]int{10, 2, 0})
	want := []transfer{{victim: 0, thief: 2, n: 4}, {victim: 0, thief: 1, n: 2}}
	if len(plan) != len(want) {
		t.Fatalf("plan %v, want %v", plan, want)
	}
	for i := range want {
		if plan[i] != want[i] {
			t.Fatalf("plan %v, want %v", plan, want)
		}
	}
	if p := stealPlan([]int{4, 4, 4}); len(p) != 0 {
		t.Errorf("balanced loads produced plan %v", p)
	}
}

// TestImbalanceOfHandCase pins the max/mean metric against hand
// calculation: loads {6,2} → mean 4, imbalance 1.5; empty loads → 1.
func TestImbalanceOfHandCase(t *testing.T) {
	if got := imbalanceOf(6, 8, 2); got != 1.5 {
		t.Errorf("imbalance(6,8,2) = %v, want 1.5", got)
	}
	if got := imbalanceOf(0, 0, 4); got != 1 {
		t.Errorf("empty imbalance = %v, want 1", got)
	}
}

// TestPopulationStationary checks the re-injection loop: lost droplets
// (evaporated or advected past the outlet) are re-seeded, so the global
// simulated population is constant through the run for every strategy,
// at 2 ranks and at 16.
func TestPopulationStationary(t *testing.T) {
	for _, ranks := range []int{2, 16} {
		for _, st := range Strategies() {
			_, err := mpi.Run(ranks, cfg(), func(c *mpi.Comm) error {
				s, err := New(c, smallCfg(st), smallScale())
				if err != nil {
					return err
				}
				want := s.Count()
				for i := 0; i < 30; i++ {
					s.Step(0.02)
					if got := s.Count(); got != want {
						return fmt.Errorf("step %d: population %d, want %d", i, got, want)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%v, %d ranks: %v", st, ranks, err)
			}
		}
	}
}

// TestRedistributionCostGrowsWithRanks checks the static split's scaling
// observation, the paper's for the spray: the dense pairwise migration
// schedule makes a rank's communication time grow with the rank count.
func TestRedistributionCostGrowsWithRanks(t *testing.T) {
	commTime := func(ranks int) float64 {
		stats, err := mpi.Run(ranks, cfg(), func(c *mpi.Comm) error {
			s, err := New(c, smallCfg(StaticSplit), smallScale())
			if err != nil {
				return err
			}
			for i := 0; i < 30; i++ {
				s.Step(0.02)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%d ranks: %v", ranks, err)
		}
		return stats.AvgComm()
	}
	if c2, c16 := commTime(2), commTime(16); !(c16 > c2) {
		t.Errorf("static migration comm %v s at 16 ranks, %v s at 2; want growth with the rank count", c16, c2)
	}
}

// gatherCloud collects the global droplet multiset, sorted, so runs with
// different ownership assignments compare bitwise.
func gatherCloud(s *System) []float64 {
	local := make([]float64, 0, len(s.x)*dropletFields)
	for i := range s.x {
		local = append(local, s.x[i], s.y[i], s.z[i], s.vx[i], s.vy[i], s.vz[i], s.rad[i])
	}
	parts := s.comm.Allgather(local)
	type row [dropletFields]float64
	var rows []row
	for _, part := range parts {
		for i := 0; i+dropletFields-1 < len(part); i += dropletFields {
			var r row
			copy(r[:], part[i:i+dropletFields])
			rows = append(rows, r)
		}
	}
	sort.Slice(rows, func(a, b int) bool {
		for d := 0; d < dropletFields; d++ {
			if rows[a][d] != rows[b][d] {
				return rows[a][d] < rows[b][d]
			}
		}
		return false
	})
	out := make([]float64, 0, len(rows)*dropletFields)
	for _, r := range rows {
		out = append(out, r[:]...)
	}
	return out
}

// TestStrategiesPreservePhysics is the subsystem's differential oracle:
// every stochastic term is hash-derived from droplet state, never from
// rank state, so the global droplet multiset after N steps must be
// bitwise identical across all three balancing strategies, and across
// process grids — only the communication schedule (and hence virtual
// time) may differ.
func TestStrategiesPreservePhysics(t *testing.T) {
	slabs := [3]int{8, 1, 1}
	cases := []struct {
		st   Strategy
		grid [3]int
	}{{StaticSplit, [3]int{}}, {WorkSteal, [3]int{}}, {Repartition, [3]int{}}, {StaticSplit, slabs}}
	clouds := make([][]float64, 0, len(cases))
	for _, tc := range cases {
		_, err := mpi.Run(8, cfg(), func(c *mpi.Comm) error {
			conf := smallCfg(tc.st)
			conf.Grid = tc.grid
			s, err := New(c, conf, smallScale())
			if err != nil {
				return err
			}
			for i := 0; i < 20; i++ {
				s.Step(0.02)
			}
			if c.Rank() == 0 {
				clouds = append(clouds, gatherCloud(s))
			} else {
				gatherCloud(s)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v on grid %v: %v", tc.st, tc.grid, err)
		}
	}
	for i := 1; i < len(clouds); i++ {
		if len(clouds[i]) != len(clouds[0]) {
			t.Fatalf("strategy %v on grid %v: cloud size %d, static %d",
				cases[i].st, cases[i].grid, len(clouds[i])/dropletFields, len(clouds[0])/dropletFields)
		}
		for j := range clouds[i] {
			if clouds[i][j] != clouds[0][j] {
				t.Fatalf("strategy %v on grid %v: droplet multiset diverges from static at value %d",
					cases[i].st, cases[i].grid, j)
			}
		}
	}
}

// TestDropletsLandOnOwningRanks runs the static split on a given 8×1×1
// slab grid, where the first slab holds the whole injection region, and
// checks that after the steps every droplet, re-seeded ones too, lies
// inside its own rank's box.
func TestDropletsLandOnOwningRanks(t *testing.T) {
	slabs := [3]int{8, 1, 1}
	_, err := mpi.Run(8, cfg(), func(c *mpi.Comm) error {
		conf := smallCfg(StaticSplit)
		conf.Grid = slabs
		s, err := New(c, conf, smallScale())
		if err != nil {
			return err
		}
		for i := 0; i < 20; i++ {
			s.Step(0.02)
		}
		for i := range s.x {
			if o := gridOwner(slabs, s.x[i], s.y[i], s.z[i]); o != c.Rank() {
				return fmt.Errorf("rank %d holds droplet at (%v,%v,%v), owned by rank %d",
					c.Rank(), s.x[i], s.y[i], s.z[i], o)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// everyRankCloud is New's initial cloud as it was before a run bucketed
// the droplets once (initialCloud): every rank evaluates every droplet's
// state and keeps the ones it owns, seven values a droplet. It stays here
// as the bitwise oracle of TestSharedCloudMatchesEveryRankLoop.
func everyRankCloud(s *System, simTotal int64) []float64 {
	var out []float64
	for k := int64(0); k < simTotal; k++ {
		px, py, pz, pvx, pvy, pvz := InitialState(s.seed, uint64(k), s.side)
		if s.bal.owner(px, py, pz) != s.comm.Rank() {
			continue
		}
		out = append(out, px, py, pz, pvx, pvy, pvz, 1.0)
	}
	return out
}

// TestSharedCloudMatchesEveryRankLoop holds New's initial cloud, built
// from the run's one ownership bucketing, to the every-rank loop it
// replaced: each rank's droplets, their order and every bit of their
// state, for all three strategies and an explicit grid. Under -race the
// same runs prove that no rank writes the shared buckets.
func TestSharedCloudMatchesEveryRankLoop(t *testing.T) {
	for _, tc := range []struct {
		st   Strategy
		grid [3]int
	}{{StaticSplit, [3]int{}}, {WorkSteal, [3]int{}}, {Repartition, [3]int{}}, {StaticSplit, [3]int{1, 2, 4}}} {
		conf := smallCfg(tc.st)
		conf.Grid = tc.grid
		_, err := mpi.Run(8, cfg(), func(c *mpi.Comm) error {
			s, err := New(c, conf, smallScale())
			if err != nil {
				return err
			}
			simTotal := int64(math.Round(float64(conf.Droplets) / s.partScale))
			want := everyRankCloud(s, simTotal)
			if len(s.x)*dropletFields != len(want) {
				return fmt.Errorf("rank %d holds %d droplets, the every-rank loop gives it %d",
					c.Rank(), len(s.x), len(want)/dropletFields)
			}
			for i := range s.x {
				got := []float64{s.x[i], s.y[i], s.z[i], s.vx[i], s.vy[i], s.vz[i], s.rad[i]}
				for f, v := range got {
					if w := want[i*dropletFields+f]; math.Float64bits(v) != math.Float64bits(w) {
						return fmt.Errorf("rank %d droplet %d field %d: %v, the every-rank loop gives %v",
							c.Rank(), i, f, v, w)
					}
				}
			}
			if cap(s.x) != len(s.x) || cap(s.rad) != len(s.rad) {
				return fmt.Errorf("rank %d: droplet arrays of capacity %d for %d droplets", c.Rank(), cap(s.x), len(s.x))
			}
			if n := s.Count(); int64(n) != simTotal {
				return fmt.Errorf("cloud of %d droplets, want %d", n, simTotal)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v on grid %v: %v", tc.st, tc.grid, err)
		}
	}
}

// runOnce runs a fixed particle workload and returns the final stats.
func runOnce(t *testing.T, st Strategy, c mpi.Config) *mpi.Stats {
	t.Helper()
	stats, err := mpi.Run(8, c, func(cm *mpi.Comm) error {
		s, err := New(cm, smallCfg(st), smallScale())
		if err != nil {
			return err
		}
		for i := 0; i < 15; i++ {
			s.Step(0.02)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestCollectivePathsIdentical asserts bitwise-identical virtual time
// under a fault plan whose only crash comes after the run has ended, and
// under GOMAXPROCS=1, for every balancing strategy — the runtime's core
// invariant extended to this subsystem's exchanges (migration, steal
// grants, repartition).
func TestCollectivePathsIdentical(t *testing.T) {
	for _, st := range Strategies() {
		base := runOnce(t, st, cfg())
		planCfg := cfg()
		planCfg.Faults = &fault.Plan{Crashes: []fault.Crash{{Rank: 0, At: 2 * base.Elapsed}}}
		planned := runOnce(t, st, planCfg)
		prev := runtime.GOMAXPROCS(1)
		serial := runOnce(t, st, cfg())
		runtime.GOMAXPROCS(prev)
		for _, other := range []*mpi.Stats{planned, serial} {
			if other.Elapsed != base.Elapsed {
				t.Errorf("%v: elapsed %v vs %v", st, other.Elapsed, base.Elapsed)
			}
			for r := range base.Clocks {
				if other.Clocks[r] != base.Clocks[r] {
					t.Errorf("%v: rank %d clock %v vs %v", st, r, other.Clocks[r], base.Clocks[r])
				}
			}
		}
	}
}

// TestCheckpointRestore checks bit-exact resume: checkpoint mid-run,
// keep stepping, then restore and replay — digests and the droplet state
// must match the original continuation exactly, for every strategy
// (including the repartition tree carried through the checkpoint).
func TestCheckpointRestore(t *testing.T) {
	for _, st := range Strategies() {
		c := smallCfg(st)
		c.ImbalanceThreshold = 1.1 // make repartitions likely inside the window
		_, err := mpi.Run(8, cfg(), func(cm *mpi.Comm) error {
			s, err := New(cm, c, smallScale())
			if err != nil {
				return err
			}
			for i := 0; i < 6; i++ {
				s.Step(0.02)
			}
			ck := fault.Save(s.Walk)
			ckDigest := fault.Hash(s.Walk)
			for i := 0; i < 6; i++ {
				s.Step(0.02)
			}
			want := fault.Hash(s.Walk)
			if err := ck.Restore(s.Walk); err != nil {
				return err
			}
			if got := fault.Hash(s.Walk); got != ckDigest {
				return fmt.Errorf("digest after restore %x, at checkpoint %x", got, ckDigest)
			}
			for i := 0; i < 6; i++ {
				s.Step(0.02)
			}
			if got := fault.Hash(s.Walk); got != want {
				return fmt.Errorf("replayed digest %x, original %x", got, want)
			}
			if s.CheckpointBytes() <= 0 {
				return fmt.Errorf("checkpoint bytes %d", s.CheckpointBytes())
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
	}
}

// TestRestoreRejectsForeignBalancerState checks the restore guards: a
// stateless balancer rejects a snapshot carrying tree state and the
// repartition balancer rejects a malformed encoding.
func TestRestoreRejectsForeignBalancerState(t *testing.T) {
	_, err := mpi.Run(2, cfg(), func(cm *mpi.Comm) error {
		s, err := New(cm, smallCfg(StaticSplit), smallScale())
		if err != nil {
			return err
		}
		r, err := New(cm, smallCfg(Repartition), smallScale())
		if err != nil {
			return err
		}
		if err := fault.Save(r.Walk).Restore(s.Walk); err == nil {
			return fmt.Errorf("static balancer accepted tree state")
		}
		// The static system's walk with a one-value tree where the
		// repartition balancer visits its own.
		static := s.bal
		s.bal = malformedTree{}
		bad := fault.Save(s.Walk)
		s.bal = static
		if err := bad.Restore(r.Walk); err == nil {
			return fmt.Errorf("repartition balancer accepted malformed tree")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// malformedTree is a balancer whose walk visits a tree encoding no
// RCBTree decodes.
type malformedTree struct{ balancer }

func (malformedTree) walk(st *fault.State) { enc := []float64{1}; st.Floats(&enc) }

// TestWorkStealBalancesLoad drives a heavily clustered cloud (tight
// injection cone) and checks the steal strategy actually moves work: the
// total granted equals the total stolen, both are non-zero, and after
// stealing the local counts sit strictly closer to the mean than the
// static split leaves them.
func TestWorkStealBalancesLoad(t *testing.T) {
	spread := func(st Strategy) (maxLocal, stolen, granted int) {
		_, err := mpi.Run(8, cfg(), func(c *mpi.Comm) error {
			cc := smallCfg(st)
			cc.ConeFraction = 0.05
			s, err := New(c, cc, smallScale())
			if err != nil {
				return err
			}
			for i := 0; i < 10; i++ {
				s.Step(0.02)
			}
			ml := int(c.AllreduceScalar(float64(len(s.x)), mpi.Max))
			st := int(c.AllreduceScalar(float64(s.Load().Stolen), mpi.Sum))
			gr := int(c.AllreduceScalar(float64(s.Load().Granted), mpi.Sum))
			if c.Rank() == 0 {
				maxLocal, stolen, granted = ml, st, gr
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		return
	}
	staticMax, _, _ := spread(StaticSplit)
	stealMax, stolen, granted := spread(WorkSteal)
	if stolen == 0 || stolen != granted {
		t.Fatalf("stolen %d, granted %d; want equal and non-zero", stolen, granted)
	}
	if stealMax >= staticMax {
		t.Errorf("steal max local %d not below static max %d", stealMax, staticMax)
	}
}

// TestRepartitionTriggersOnImbalance checks the threshold semantics: a
// clustered cloud under a tight threshold repartitions and ends with a
// lower imbalance than the static split; a huge threshold never fires.
func TestRepartitionTriggersOnImbalance(t *testing.T) {
	run := func(st Strategy, threshold float64) (reps int, last float64) {
		_, err := mpi.Run(8, cfg(), func(c *mpi.Comm) error {
			cc := smallCfg(st)
			cc.ConeFraction = 0.05
			cc.ImbalanceThreshold = threshold
			s, err := New(c, cc, smallScale())
			if err != nil {
				return err
			}
			for i := 0; i < 10; i++ {
				s.Step(0.02)
			}
			if c.Rank() == 0 {
				reps = s.Load().Repartitions
				last = s.Load().LastImbalance
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		return
	}
	_, staticLast := run(StaticSplit, 1.5)
	reps, repLast := run(Repartition, 1.2)
	if reps == 0 {
		t.Fatal("tight threshold never repartitioned a clustered cloud")
	}
	if repLast >= staticLast {
		t.Errorf("repartition final imbalance %v not below static %v", repLast, staticLast)
	}
	if reps, _ := run(Repartition, 100); reps != 0 {
		t.Errorf("threshold 100 fired %d repartitions", reps)
	}
}

// TestImbalanceMatchesCensus cross-checks the collective Imbalance probe
// against the census-derived accounting the balancer records.
func TestImbalanceMatchesCensus(t *testing.T) {
	_, err := mpi.Run(4, cfg(), func(c *mpi.Comm) error {
		s, err := New(c, smallCfg(StaticSplit), smallScale())
		if err != nil {
			return err
		}
		for i := 0; i < 5; i++ {
			s.Step(0.02)
		}
		probe := s.Imbalance()
		if rec := s.Load().LastImbalance; math.Abs(rec-probe) > 1e-12 {
			return fmt.Errorf("recorded imbalance %v, probe %v", rec, probe)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAggregateLoads pins the instance-level roll-up on a hand case.
func TestAggregateLoads(t *testing.T) {
	rep := AggregateLoads("steal", []RankLoad{
		{Droplets: 10, Moved: 3, Stolen: 2, Granted: 0, Repartitions: 1, LastImbalance: 1.25, PeakImbalance: 2},
		{Droplets: 4, Moved: 1, Stolen: 0, Granted: 2, Repartitions: 1, LastImbalance: 1.25, PeakImbalance: 2},
	})
	want := LoadReport{Strategy: "steal", Ranks: 2, Moved: 4, Stolen: 2, Granted: 2,
		Repartitions: 1, LastImbalance: 1.25, PeakImbalance: 2}
	if rep != want {
		t.Errorf("AggregateLoads = %+v, want %+v", rep, want)
	}
}

// TestCoupling exercises the solver-interface hooks standalone: source
// terms stay inside the flow side's absorb guard band and absorbed gas
// fields move the gain.
func TestCoupling(t *testing.T) {
	_, err := mpi.Run(4, cfg(), func(c *mpi.Comm) error {
		s, err := New(c, smallCfg(StaticSplit), smallScale())
		if err != nil {
			return err
		}
		s.Step(0.02)
		vals := s.BoundarySample(16)
		if len(vals) != 16 {
			return fmt.Errorf("sample length %d", len(vals))
		}
		for _, v := range vals {
			if v <= 0.1 || v >= 10 {
				return fmt.Errorf("source term %v outside guard band", v)
			}
		}
		before := s.gasGain
		s.AbsorbBoundary([]float64{2, 2, 2})
		if s.gasGain <= before {
			return fmt.Errorf("gas gain %v did not move toward absorbed field", s.gasGain)
		}
		s.AbsorbBoundary([]float64{1e9}) // guarded: non-physical
		if s.gasGain > 10 {
			return fmt.Errorf("guard let non-physical gain through: %v", s.gasGain)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// migrateRebuild is migrate as it was before it compacted in place: the
// stayers and arrivals are rebuilt into seven fresh arrays and every
// buffer is allocated per call. It stays here as the bitwise oracle of
// TestMigrateInPlaceMatchesRebuild.
func migrateRebuild(s *System, owner func(x, y, z float64) int) census {
	p, r := s.comm.Size(), s.comm.Rank()
	buffers := map[int][]float64{}
	var kx, ky, kz, kvx, kvy, kvz, krad []float64
	removed := 0
	for i := 0; i < len(s.x); i++ {
		if s.rad[i] < 0 {
			removed++
			continue
		}
		o := owner(s.x[i], s.y[i], s.z[i])
		if o == r {
			kx = append(kx, s.x[i])
			ky = append(ky, s.y[i])
			kz = append(kz, s.z[i])
			kvx = append(kvx, s.vx[i])
			kvy = append(kvy, s.vy[i])
			kvz = append(kvz, s.vz[i])
			krad = append(krad, s.rad[i])
		} else {
			buffers[o] = append(buffers[o],
				s.x[i], s.y[i], s.z[i], s.vx[i], s.vy[i], s.vz[i], s.rad[i])
		}
	}
	// Combined census: [0,p) inbound-message indicator, [p,2p) exact
	// post-migration load contribution, [2p] lost droplets. Destination
	// order is fixed once here and reused for the sends below, whose
	// virtual timestamps depend on it.
	dests := order.SortedKeys(buffers)
	vec := make([]float64, 2*p+1)
	for _, d := range dests {
		vec[d] = 1
		vec[p+d] = float64(len(buffers[d]) / dropletFields)
	}
	vec[p+r] = float64(len(kx))
	vec[2*p] = float64(removed)
	sum := s.comm.Allreduce(vec, mpi.Sum)
	inbound := int(sum[r])
	cs := census{loads: make([]int, p), lost: int(sum[2*p])}
	for d := 0; d < p; d++ {
		cs.loads[d] = int(sum[p+d])
	}

	// Analytic charge for the dense pairwise schedule: every pair of the
	// alltoallv exchanges ownership updates plus the particle-flow
	// coupling payload, ~12 KiB per pair in the production code. This
	// O(p) per-rank schedule is what makes the spray routine 96%
	// communication at 2,048 cores (Fig. 5a).
	m := s.comm.Machine()
	const pairBytes = 12288
	pairCost := m.SendOverhead + m.RecvOverhead + m.InterNodeLatency + pairBytes/m.EffectiveInterBW()
	if n := (p - 1) - len(buffers); n > 0 {
		s.comm.ChargeCommSeconds(float64(n) * pairCost)
	}
	// Real payload messages, in the deterministic destination order
	// established above.
	for _, d := range dests {
		buf := buffers[d]
		s.load.Moved += len(buf) / dropletFields
		s.comm.SendVirtual(d, tagMigrate, buf, int(float64(len(buf))*8*s.partScale))
	}
	// Waitall-style batched receive: clock advance and droplet ordering
	// are both independent of host-side delivery order.
	batches, _ := s.comm.RecvAll(inbound, tagMigrate)
	for _, d := range batches {
		for i := 0; i+dropletFields-1 < len(d); i += dropletFields {
			kx = append(kx, d[i])
			ky = append(ky, d[i+1])
			kz = append(kz, d[i+2])
			kvx = append(kvx, d[i+3])
			kvy = append(kvy, d[i+4])
			kvz = append(kvz, d[i+5])
			krad = append(krad, d[i+6])
		}
	}
	s.x, s.y, s.z, s.vx, s.vy, s.vz, s.rad = kx, ky, kz, kvx, kvy, kvz, krad

	// The injector-owning rank re-seeds globally lost droplets from the
	// deterministic injection stream, keeping the population stationary
	// like a continuous fuel spray. The re-seeded states depend only on
	// (step, index), so re-injection commutes with the strategy choice.
	if inj := owner(InjectorX, InjectorY, InjectorZ); cs.lost > 0 && inj == r {
		for j := 0; j < cs.lost; j++ {
			px, py, pz, pvx, pvy, pvz := InjectionState(s.seed, s.step, j, s.side)
			s.spawn(px, py, pz, pvx, pvy, pvz, 1.0)
		}
	}
	if cs.lost > 0 {
		cs.loads[owner(InjectorX, InjectorY, InjectorZ)] += cs.lost
	}
	return cs
}

// shadow deep-copies the droplet state of s into a System with its own
// migration scratch, sharing its communicator and balancer.
func shadow(s *System) *System {
	c := *s
	c.x, c.y, c.z = slices.Clone(s.x), slices.Clone(s.y), slices.Clone(s.z)
	c.vx, c.vy, c.vz = slices.Clone(s.vx), slices.Clone(s.vy), slices.Clone(s.vz)
	c.rad = slices.Clone(s.rad)
	c.out, c.dests, c.grant = map[int][]float64{}, nil, nil
	c.vec, c.loads = make([]float64, len(s.vec)), make([]int, len(s.loads))
	return &c
}

// TestMigrateInPlaceMatchesRebuild holds the in-place migrate to the
// rebuilding one it replaced. Each step of a real run (so stolen
// droplets and rebuilt trees are part of the states seen) is first
// shadowed twice from the same pre-step state — advect, then one
// migration by either body — and the two shadows must agree bitwise in
// state digest, census and Load().
func TestMigrateInPlaceMatchesRebuild(t *testing.T) {
	for _, st := range Strategies() {
		for _, ranks := range []int{1, 4, 8} {
			c := smallCfg(st)
			c.ImbalanceThreshold = 1.1 // make repartitions likely inside the window
			_, err := mpi.Run(ranks, cfg(), func(cm *mpi.Comm) error {
				s, err := New(cm, c, smallScale())
				if err != nil {
					return err
				}
				for step := 0; step < 40; step++ {
					want, got := shadow(s), shadow(s)
					want.advect(0.02)
					wantCS := migrateRebuild(want, want.bal.owner)
					wantLoads := slices.Clone(wantCS.loads)
					got.advect(0.02)
					gotCS := got.migrate(got.bal.owner)
					if gotCS.lost != wantCS.lost || !slices.Equal(gotCS.loads, wantLoads) {
						return fmt.Errorf("step %d: census %v lost %d, rebuild gives %v lost %d",
							step, gotCS.loads, gotCS.lost, wantLoads, wantCS.lost)
					}
					if got.Load() != want.Load() {
						return fmt.Errorf("step %d: load %+v, rebuild gives %+v", step, got.Load(), want.Load())
					}
					if fault.Hash(got.Walk) != fault.Hash(want.Walk) {
						return fmt.Errorf("step %d: state digest differs from the rebuild's", step)
					}
					s.Step(0.02)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%v, %d ranks: %v", st, ranks, err)
			}
		}
	}
}

// Imbalance returns max/mean droplets per rank (collective).
func (s *System) Imbalance() float64 {
	n := float64(len(s.x))
	maxN := s.comm.AllreduceScalar(n, mpi.Max)
	sumN := s.comm.AllreduceScalar(n, mpi.Sum)
	return imbalanceOf(maxN, sumN, s.comm.Size())
}

// Count returns the global simulated droplet count (collective).
func (s *System) Count() int { return int(s.comm.AllreduceScalar(float64(len(s.x)), mpi.Sum)) }
