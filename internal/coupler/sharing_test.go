package coupler

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"cpx/internal/fault"
	"cpx/internal/mpi"
	"cpx/internal/particle"
)

// wideUnitSim is twoRowSim with the sliding unit spread over 64 CU ranks
// (8 boundary ranks a side), the shape in which the CU ranks of a unit
// share one donor index per exchange.
func wideUnitSim(search Search) *Simulation {
	return &Simulation{
		Instances: []InstanceSpec{
			{Name: "row1", Kind: KindMGCFD, MeshCells: 8192, Ranks: 8, Seed: 1},
			{Name: "row2", Kind: KindMGCFD, MeshCells: 8192, Ranks: 8, Seed: 2},
		},
		Units: []UnitSpec{
			{Name: "cu", A: 0, B: 1, Kind: SlidingPlane, Points: 2000, Ranks: 64, Search: search},
		},
		DensitySteps:    6,
		RotationPerStep: 0.001,
		Scale:           Scale{MaxPointsPerSide: 256},
	}
}

// perRankUnitMain is the coupling-unit rank program as it was before the
// unit's ranks shared their donor indices: every rank generates the
// geometry, rotates side A and calls Mapper.Map — which builds its own
// index — for itself. It is the reference the shared path is compared
// against (no checkpoint/restart support: plain runs only).
func perRankUnitMain(sim *Simulation, world *mpi.Comm, r role, digests []uint64) {
	us := sim.Units[r.index]
	simPts := sim.simPoints(us)
	nbA := boundaryRanks(sim.Instances[us.A].Ranks)
	nbB := boundaryRanks(sim.Instances[us.B].Ranks)
	cuLo, cuHi := sim.groupRanks(true, r.index)
	cuRanks := cuHi - cuLo

	ptsA := AnnulusPoints(simPts, int64(r.index)*2+1)
	ptsB := AnnulusPoints(simPts, int64(r.index)*2+2)
	mapAB := &Mapper{Kind: us.Search}
	mapBA := &Mapper{Kind: us.Search}
	firstMapping := true
	tLo, tHi := shareOf(simPts, cuRanks, r.local)
	scalePts := float64(us.effectivePoints()) / float64(simPts)
	trueTargets, trueDonors := float64(tHi-tLo)*scalePts, float64(us.effectivePoints())

	if us.Search == TreePrefetch {
		mapAB.Map(ptsB[tLo:tHi], ptsA)
		world.Compute(mapAB.MapWork(trueTargets, trueDonors, true))
		mapBA.Map(ptsA[tLo:tHi], ptsB)
		world.Compute(mapBA.MapWork(trueTargets, trueDonors, true))
	}
	for d := 0; d < sim.DensitySteps; d++ {
		if (d+1)%us.exchangeEvery() != 0 {
			continue
		}
		valsA, valsB := make([]float64, simPts), make([]float64, simPts)
		gatherSide(world, sim, us.A, nbA, sim.unitTag(r.index, tagToCU_A), valsA)
		gatherSide(world, sim, us.B, nbB, sim.unitTag(r.index, tagToCU_B), valsB)
		donorsA := ptsA
		if us.Kind == SlidingPlane {
			donorsA = Rotate(ptsA, sim.RotationPerStep*float64(d+1))
		}
		if us.Kind == SlidingPlane || firstMapping {
			mapAB.last = mapAB.Map(ptsB[tLo:tHi], donorsA)
			world.Compute(mapAB.MapWork(trueTargets, trueDonors, true))
			mapBA.last = mapBA.Map(donorsA[tLo:tHi], ptsB)
			world.Compute(mapBA.MapWork(trueTargets, trueDonors, true))
			firstMapping = false
		}
		outB := mapAB.last.Interpolate(valsA)
		world.Compute(InterpolateWork(trueTargets))
		outA := mapBA.last.Interpolate(valsB)
		world.Compute(InterpolateWork(trueTargets))
		trueOut := int(trueDonors / float64(cuRanks) * 5 * 8)
		world.SendVirtual(sim.instanceWorldRank(us.B, cuTargetOwner(r.local, cuRanks, nbB)), sim.unitTag(r.index, tagFromCU_B), outB, trueOut)
		world.SendVirtual(sim.instanceWorldRank(us.A, cuTargetOwner(r.local, cuRanks, nbA)), sim.unitTag(r.index, tagFromCU_A), outA, trueOut)
	}
	dg := fault.NewDigest()
	mapAB.digest(dg)
	mapBA.digest(dg)
	if firstMapping {
		dg.Int(1)
	}
	digests[world.Rank()] = dg.Sum64()
}

// runPerRankReference runs sim with perRankUnitMain on the unit ranks and
// the production program on the instance ranks.
func runPerRankReference(t *testing.T, sim *Simulation, cfg mpi.Config) (*mpi.Stats, []uint64) {
	t.Helper()
	n := sim.TotalRanks()
	setup := make([]float64, n)
	digests := make([]uint64, n)
	loads := make([]particle.RankLoad, n)
	stats, err := mpi.Run(n, cfg, func(c *mpi.Comm) error {
		r := sim.roleOf(c.Rank())
		if r.isUnit {
			perRankUnitMain(sim, c, r, digests)
			return nil
		}
		return sim.instanceMain(c, r, setup, digests, loads, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	return stats, digests
}

// TestSharedIndicesMatchPerRankMapping: a unit whose 64 CU ranks read one
// shared index per exchange reports exactly what it reports when every
// rank maps for itself — elapsed, per-rank clocks and compute/comm split,
// the comm matrix and the final state digests — at GOMAXPROCS 1 and 2.
func TestSharedIndicesMatchPerRankMapping(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	searches := []Search{Tree, TreePrefetch}
	if testing.Short() {
		searches = searches[1:] // prefetch also carries the donor cache between exchanges
	}
	for _, search := range searches {
		refStats, refDigests := runPerRankReference(t, wideUnitSim(search), tracedRunCfg())
		for _, procs := range []int{1, 2} {
			t.Run(fmt.Sprintf("%v/GOMAXPROCS=%d/collectives=replayed", search, procs), func(t *testing.T) {
				runtime.GOMAXPROCS(procs)
				rep, err := wideUnitSim(search).Run(tracedRunCfg())
				if err != nil {
					t.Fatal(err)
				}
				if rep.Elapsed != refStats.Elapsed {
					t.Errorf("elapsed %v, per-rank reference %v", rep.Elapsed, refStats.Elapsed)
				}
				if !reflect.DeepEqual(rep.RankDigests, refDigests) {
					t.Error("rank digests differ from the per-rank reference")
				}
				st := rep.Stats
				if !reflect.DeepEqual(st.Clocks, refStats.Clocks) ||
					!reflect.DeepEqual(st.Compute, refStats.Compute) ||
					!reflect.DeepEqual(st.Comm, refStats.Comm) {
					t.Error("per-rank clocks or compute/comm split differ from the per-rank reference")
				}
				if !reflect.DeepEqual(st.CommMatrix, refStats.CommMatrix) {
					t.Error("comm matrix differs from the per-rank reference")
				}
			})
		}
	}
}

// TestOneIndexPerUnitPerExchange: after newUnitIndices has built the
// static indices (side B, unrotated side A) once for the run, the only
// indices built are one rotated side-A index per sliding-plane exchange
// however many CU ranks read it, and none for a steady-state unit — each
// freed once its readers are done, so the live set does not grow with the
// run length.
func TestOneIndexPerUnitPerExchange(t *testing.T) {
	steps := 24
	if testing.Short() {
		steps = 12
	}
	sim := wideUnitSim(TreePrefetch)
	sim.DensitySteps = steps
	sim.Instances = append(sim.Instances, InstanceSpec{Name: "row3", Kind: KindMGCFD, MeshCells: 8192, Ranks: 8, Seed: 3})
	sim.Units = append(sim.Units,
		UnitSpec{Name: "every-third", A: 1, B: 2, Kind: SlidingPlane, Points: 2000, Ranks: 5, Search: Tree, ExchangeEvery: 3},
		UnitSpec{Name: "steady", A: 0, B: 2, Kind: SteadyState, Points: 2000, Ranks: 3, Search: TreePrefetch, ExchangeEvery: 4})
	rep, err := sim.Run(runCfg())
	if err != nil {
		t.Fatal(err)
	}
	for u, wantRotated := range []int{steps, steps / 3, 0} {
		got := rep.indexBuilds[u]
		if got.rotated != wantRotated {
			t.Errorf("unit %s: built %d rotated indices, want %d", sim.Units[u].Name, got.rotated, wantRotated)
		}
		// A CU rank starts exchange e+1 only with every boundary rank's
		// next slice in hand, and a boundary rank sends that only after all
		// its CU ranks replied to exchange e — which they do after release.
		if got.peakLive > 1 {
			t.Errorf("unit %s: %d rotated indices alive at once, want at most 1", sim.Units[u].Name, got.peakLive)
		}
	}
}

// TestResilientCrashOfSharingCURank: a CU rank killed mid-run — between
// its siblings' reads of the shared indices — neither hangs the unit nor
// changes what the recovered run computes.
func TestResilientCrashOfSharingCURank(t *testing.T) {
	sim := func() *Simulation {
		s := wideUnitSim(TreePrefetch)
		s.DensitySteps = 8
		return s
	}
	base, err := sim().RunResilient(runCfg(), ResilienceOptions{CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	cuRank, _ := sim().groupRanks(true, 0)
	cuRank += 17
	res, err := sim().RunResilient(runCfg(), ResilienceOptions{
		Plan:            &fault.Plan{Crashes: []fault.Crash{{Rank: cuRank, At: 0.6 * base.Elapsed}}},
		CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 2 || len(res.Failures) != 1 || res.Failures[0].Rank != cuRank {
		t.Fatalf("attempts=%d failures=%+v, want one crash of rank %d",
			res.Attempts, res.Failures, cuRank)
	}
	if !reflect.DeepEqual(res.RankDigests, base.RankDigests) {
		t.Error("recovered digests differ from the fault-free run")
	}
	if got, want := res.Elapsed, base.Elapsed+res.Overhead; got != want {
		t.Errorf("elapsed %v, want fault-free + overhead %v", got, want)
	}
	// The replay resumed from a checkpoint with a fresh set of indices.
	if got := res.indexBuilds[0].rotated; got == 0 || got >= 8 {
		t.Errorf("replay built %d rotated indices, want some but fewer than the 8 of a full run", got)
	}
}

// TestCoupledRunMatchesPerRankSetup: the "sliding" scenario of
// TestGoldenCoupledDigests, whose two MG-CFD instances read one set of
// edge and face lists between them (mpi.Shared resolves both groups to
// the one world), reports the per-rank clocks, compute/comm split and
// state digests it reported when every rank built its own lists. A
// coupled run's solvers are built inside instanceMain, out of a test's
// reach, so the per-rank build here is the last commit that had one: the
// fold below was recorded there, by this test.
func TestCoupledRunMatchesPerRankSetup(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const elapsed, fold = 0.0050354278283188956, uint64(0x33b72c4d22d25693)
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		rep, err := twoRowSim(Tree).Run(runCfg())
		if err != nil {
			t.Fatal(err)
		}
		dg := fault.NewDigest()
		for _, perRank := range [][]float64{rep.Stats.Clocks, rep.Stats.Compute, rep.Stats.Comm} {
			dg.Floats(perRank)
		}
		for _, d := range rep.RankDigests {
			dg.Int(int(d))
		}
		if got := dg.Sum64(); rep.Elapsed != elapsed || got != fold {
			t.Errorf("GOMAXPROCS=%d: elapsed %v, fold of per-rank clocks, counters and digests %#x; with per-rank set-up %v, %#x",
				procs, rep.Elapsed, got, elapsed, fold)
		}
	}
}
