package main

import (
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"cpx/internal/amg"
	"cpx/internal/cluster"
	"cpx/internal/coupler"
	"cpx/internal/mesh"
	"cpx/internal/mpi"
	"cpx/internal/partition"
	"cpx/internal/perfmodel"
	"cpx/internal/sparse"
)

// Isolated probes: single layers on fixed inputs, each the median of
// probeReps calls. They run after the traced iteration of every
// workload and do not depend on the seed, so the same table comes out
// of any of them.
const probeReps = 7

// runProbes fills the probe metrics.
func runProbes(ms *metricSet) {
	probeCoupler(ms)
	probeMeshPartition(ms)
	probeSolvers(ms)
	probePerfModel(ms)
	probeMPI(ms)
}

func probeCoupler(ms *metricSet) {
	// 1024 points a side is coupler.ProductionScale().MaxPointsPerSide:
	// the working set of every coupling-unit rank in the engine workload.
	n := coupler.ProductionScale().MaxPointsPerSide
	donors := coupler.AnnulusPoints(n, 1)
	targets := coupler.AnnulusPoints(n, 2)
	ms.set("coupler.kdtree_build_us", 1e6*medianOf(probeReps, func() { coupler.BuildKDTree(donors) }), probeReps)
	// A prefetch mapper's first Map searches the tree for every target;
	// after Rotate the cached donors are revalidated instead.
	ms.set("coupler.map_rebuild_us", 1e6*medianOf(probeReps, func() {
		(&coupler.Mapper{Kind: coupler.TreePrefetch}).Map(targets, donors)
	}), probeReps)
	m := &coupler.Mapper{Kind: coupler.TreePrefetch}
	m.Map(targets, donors)
	step := 0
	ms.set("coupler.map_incremental_us", 1e6*medianOf(probeReps, func() {
		step++
		m.Map(targets, coupler.Rotate(donors, 0.002*float64(step)))
	}), probeReps)
}

func probeMeshPartition(ms *metricSet) {
	const ranks = 512
	dims := mesh.CubeDims(24_000_000)
	ms.set("mesh.decomp_local_us", 1e6*medianOf(probeReps, func() {
		dc, err := mesh.NewDecompBestEffort(dims, ranks)
		if err != nil {
			return
		}
		for r := 0; r < ranks; r++ {
			dc.Local(r, 512)
		}
	}), probeReps)
	pts := mesh.NodeCoords(mesh.CubeDims(32_768), 0.2, 1)
	ms.set("partition.rcb_ms", 1e3*medianOf(probeReps, func() { partition.RCB(pts, 64) }), probeReps)
	ms.set("partition.rcbtree_build_ms", 1e3*medianOf(probeReps, func() { partition.BuildRCBTree(pts, 64) }), probeReps)
}

func probeSolvers(ms *metricSet) {
	a := sparse.Poisson3D(32, 32, 32)
	x, y := make([]float64, a.Rows), make([]float64, a.Rows)
	for i := range x {
		x[i] = float64(i % 7)
	}
	const sweeps = 50
	ms.set("sparse.mulvec_ns_per_nnz", 1e9*medianOf(probeReps, func() {
		for i := 0; i < sweeps; i++ {
			a.MulVec(x, y)
		}
	})/float64(sweeps*a.NNZ()), probeReps)

	b := sparse.Poisson3D(24, 24, 24)
	ms.set("sparse.spgemm_ms", 1e3*medianOf(probeReps, func() { sparse.Mul(b, b) }), probeReps)
	var h *amg.Hierarchy
	ms.set("amg.setup_ms", 1e3*medianOf(probeReps, func() { h, _ = amg.Setup(b, amg.DefaultOptions()) }), probeReps)
	if h == nil {
		return
	}
	rhs := make([]float64, b.Rows)
	for i := range rhs {
		rhs[i] = float64(i%5) - 2
	}
	var res amg.Result
	ms.set("amg.pcg_ms", 1e3*medianOf(probeReps, func() {
		res = h.PCG(rhs, make([]float64, b.Rows), 1e-8, 200)
	}), probeReps)
	ms.set("amg.pcg_iters", float64(res.Iterations), 1)
}

func probePerfModel(ms *metricSet) {
	rng := rand.New(rand.NewSource(1))
	curve := func() []perfmodel.Sample {
		var out []perfmodel.Sample
		for _, s := range syntheticSamples(rng) {
			out = append(out, perfmodel.Sample{Cores: s.Cores, Runtime: s.Runtime})
		}
		return out
	}
	samples := curve()
	ms.set("perfmodel.fit_us", 1e6*medianOf(probeReps, func() { _, _ = perfmodel.FitCurve(samples) }), probeReps)
	comps := make([]perfmodel.Component, serveComponents)
	for i := range comps {
		c, err := perfmodel.FitCurve(curve())
		if err != nil {
			return
		}
		comps[i] = perfmodel.Component{Curve: c, MinRanks: 100, IsCU: i >= serveComponents-4}
	}
	ms.set("perfmodel.allocate_ms", 1e3*medianOf(probeReps, func() { _, _ = perfmodel.Allocate(comps, serveBudget) }), probeReps)
}

// The three rank programs of internal/mpi's own host benchmarks
// (BenchmarkRunCollectives, BenchmarkRunP2P and an empty launch).
const mpiProgramIters = 10

func mpiCollectives(c *mpi.Comm) error {
	buf := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	for i := 0; i < mpiProgramIters; i++ {
		c.ComputeSeconds(1e-6 * float64(c.Rank()%5+1))
		c.Allreduce(buf, mpi.Sum)
		c.Bcast(i%c.Size(), buf)
		c.Barrier()
	}
	return nil
}

func mpiRing(c *mpi.Comm) error {
	buf := make([]float64, 64)
	next := (c.Rank() + 1) % c.Size()
	prev := (c.Rank() + c.Size() - 1) % c.Size()
	for i := 0; i < mpiProgramIters; i++ {
		c.ComputeSeconds(1e-6 * float64(c.Rank()%5+1))
		c.Send(next, 0, buf)
		c.Recv(prev, 0)
	}
	return nil
}

func mpiLaunch(*mpi.Comm) error { return nil }

// mpiConfig returns a runtime configuration with the named boolean
// fields switched on. The executor and collective-path switches are
// slated for removal (ROADMAP, runtime collapse), so they are set by
// name: ok is false once a field is gone and the probe is dropped.
func mpiConfig(flags ...string) (cfg mpi.Config, ok bool) {
	cfg = mpi.Config{Machine: cluster.SmallCluster(), Watchdog: 5 * time.Minute}
	v := reflect.ValueOf(&cfg).Elem()
	for _, name := range flags {
		f := v.FieldByName(name)
		if !f.IsValid() || f.Kind() != reflect.Bool {
			return cfg, false
		}
		f.SetBool(true)
	}
	return cfg, true
}

func probeMPI(ms *metricSet) {
	for _, p := range []struct {
		metric  string
		ranks   int
		program func(*mpi.Comm) error
		flags   []string
	}{
		{"mpi.coll512_ms", 512, mpiCollectives, nil},
		{"mpi.coll512_fast_ms", 512, mpiCollectives, []string{"FastCollectives"}},
		{"mpi.coll512_event_ms", 512, mpiCollectives, []string{"EventDriven"}},
		{"mpi.coll512_event_fast_ms", 512, mpiCollectives, []string{"EventDriven", "FastCollectives"}},
		{"mpi.ring512_ms", 512, mpiRing, nil},
		{"mpi.ring512_event_ms", 512, mpiRing, []string{"EventDriven"}},
		{"mpi.launch4096_ms", 4096, mpiLaunch, nil},
		{"mpi.launch4096_event_ms", 4096, mpiLaunch, []string{"EventDriven"}},
	} {
		cfg, ok := mpiConfig(p.flags...)
		if !ok {
			continue
		}
		failed := false
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		d := medianOf(probeReps, func() {
			if _, err := mpi.Run(p.ranks, cfg, p.program); err != nil {
				failed = true
			}
		})
		runtime.ReadMemStats(&m1)
		if failed {
			continue
		}
		ms.set(p.metric, 1e3*d, probeReps)
		if p.metric == "mpi.coll512_ms" {
			ms.set("mpi.coll512_allocs", float64(m1.Mallocs-m0.Mallocs)/probeReps, probeReps)
		}
	}
}
