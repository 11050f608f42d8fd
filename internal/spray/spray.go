// Package spray implements the Lagrangian fuel-spray module of the
// pressure-solver proxy: droplet injection from a nozzle cone, drag and
// evaporation updates, spatial-partitioning ownership over the flow
// decomposition, and the per-step redistribution whose collective
// communication the paper identifies as the solver's worst bottleneck
// (96% of the spray routine's run-time is MPI at 2,048 cores; parallel
// efficiency below 50% at 256 cores — Fig. 5).
//
// Two parallelisation modes mirror Section IV-A:
//
//   - Spatial partitioning (the Base solver): each rank owns the droplets
//     inside its subdomain; every step ends with an alltoallv-style
//     redistribution plus a global load/count reduction. The pairwise
//     exchange's per-message overheads scale with the communicator size,
//     which is exactly what kills it at scale [43][44].
//   - Async task-based (the Optimized solver, Thari et al. [24][32]):
//     the spray runs on a dedicated communicator concurrently with the
//     flow solve, synchronising through one window-exchange per step, so
//     its cost leaves the solver's critical path. The paper sets the
//     optimised spray's effective parallel efficiency to ~100%.
//
// The droplet physics (work constants, drag response time, gas-velocity
// model, wall handling, injection geometry) is shared with the
// first-class coupled component in internal/particle, so the constants
// live in exactly one place; this package keeps its own rank-local RNG
// sampling, so its droplet populations are not those of the particle
// subsystem's static strategy and no test compares the two.
package spray

import (
	"fmt"
	"math"
	"math/rand"

	"cpx/internal/cluster"
	"cpx/internal/mpi"
	"cpx/internal/order"
	"cpx/internal/particle"
)

// Message tags.
const tagMigrate = 40

// Config describes a spray population.
type Config struct {
	// Droplets is the true steady-state droplet population (the paper's
	// test cases: 7M droplets per 28M cells).
	Droplets int64
	// ConeFraction is the fraction of the unit domain the droplet cloud
	// occupies (clustered near the injector); drives load imbalance.
	ConeFraction float64
	// EvapSteps is the mean droplet lifetime in steps (recycled by
	// re-injection to keep the population stationary).
	EvapSteps int
	Seed      int64
}

func (c Config) withDefaults() Config {
	if c.ConeFraction == 0 {
		c.ConeFraction = 0.25
	}
	if c.EvapSteps == 0 {
		c.EvapSteps = 200
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Droplets < 1 {
		return fmt.Errorf("spray: need at least one droplet, got %d", c.Droplets)
	}
	if c.ConeFraction < 0 || c.ConeFraction > 1 {
		return fmt.Errorf("spray: cone fraction %v out of [0,1]", c.ConeFraction)
	}
	return nil
}

// ScaleOpts bound the allocated droplets per rank; zero disables capping.
type ScaleOpts struct {
	MaxDropletsPerRank int
}

// Cloud is the per-rank droplet state under spatial partitioning on a
// 3-D process grid over the unit cube.
type Cloud struct {
	comm *mpi.Comm
	cfg  Config
	grid [3]int

	// Droplet state (SoA): position, velocity, radius.
	x, y, z    []float64
	vx, vy, vz []float64
	rad        []float64

	partScale float64 // true droplets per simulated droplet
	rng       *rand.Rand
}

// NewCloud creates the spatially-partitioned droplet population.
// Collective over c; grid must multiply to c.Size().
func NewCloud(c *mpi.Comm, grid [3]int, cfg Config, sc ScaleOpts) (*Cloud, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if grid[0]*grid[1]*grid[2] != c.Size() {
		return nil, fmt.Errorf("spray: grid %v does not cover %d ranks", grid, c.Size())
	}
	cl := &Cloud{comm: c, cfg: cfg, grid: grid,
		rng: rand.New(rand.NewSource(cfg.Seed + int64(c.Rank())*104729))}

	// Cloud region: a cone-ish box near the injector at the x=0 face,
	// occupying ConeFraction of the domain volume.
	side := particle.ConeSide(cfg.ConeFraction)
	// Global droplet positions are sampled rank-locally: each rank draws
	// its share of the droplets that fall inside its box.
	simTotal := int64(c.Size()) * 4096
	if simTotal > cfg.Droplets {
		simTotal = cfg.Droplets
	}
	if sc.MaxDropletsPerRank > 0 && simTotal > int64(sc.MaxDropletsPerRank)*int64(c.Size()) {
		simTotal = int64(sc.MaxDropletsPerRank) * int64(c.Size())
	}
	cl.partScale = float64(cfg.Droplets) / float64(simTotal)

	lo, hi := cl.boxOf(c.Rank())
	// Expected droplets in my box: overlap of my box with the cloud
	// region, times density.
	overlap := boxOverlap(lo, hi, [3]float64{0, 0.5 - side/2, 0.5 - side/2},
		[3]float64{side, 0.5 + side/2, 0.5 + side/2})
	mine := int(float64(simTotal) * overlap / (side * side * side))
	for i := 0; i < mine; i++ {
		px := cl.rng.Float64() * side
		py := 0.5 + (cl.rng.Float64()-0.5)*side
		pz := 0.5 + (cl.rng.Float64()-0.5)*side
		if !inBox(px, py, pz, lo, hi) {
			continue // sampled outside my box: belongs to a neighbour
		}
		cl.spawn(px, py, pz)
	}
	// Loading cost for the true population share.
	c.Compute(cluster.Work{Flops: 20 * float64(mine) * cl.partScale,
		Bytes: 64 * float64(mine) * cl.partScale})
	return cl, nil
}

func (cl *Cloud) spawn(px, py, pz float64) {
	cl.x = append(cl.x, px)
	cl.y = append(cl.y, py)
	cl.z = append(cl.z, pz)
	cl.vx = append(cl.vx, 0.3+0.1*cl.rng.NormFloat64())
	cl.vy = append(cl.vy, 0.05*cl.rng.NormFloat64())
	cl.vz = append(cl.vz, 0.05*cl.rng.NormFloat64())
	cl.rad = append(cl.rad, 1.0)
}

// boxOf returns rank r's subdomain of the unit cube.
func (cl *Cloud) boxOf(r int) (lo, hi [3]float64) {
	gx, gy, gz := cl.grid[0], cl.grid[1], cl.grid[2]
	cx, cy, cz := r%gx, (r/gx)%gy, r/(gx*gy)
	lo = [3]float64{float64(cx) / float64(gx), float64(cy) / float64(gy), float64(cz) / float64(gz)}
	hi = [3]float64{float64(cx+1) / float64(gx), float64(cy+1) / float64(gy), float64(cz+1) / float64(gz)}
	return
}

// ownerOf returns the rank owning a position.
func (cl *Cloud) ownerOf(px, py, pz float64) int {
	clampIdx := func(v float64, g int) int {
		i := int(v * float64(g))
		if i < 0 {
			i = 0
		}
		if i >= g {
			i = g - 1
		}
		return i
	}
	cx := clampIdx(px, cl.grid[0])
	cy := clampIdx(py, cl.grid[1])
	cz := clampIdx(pz, cl.grid[2])
	return (cz*cl.grid[1]+cy)*cl.grid[0] + cx
}

func inBox(px, py, pz float64, lo, hi [3]float64) bool {
	return px >= lo[0] && px < hi[0] && py >= lo[1] && py < hi[1] && pz >= lo[2] && pz < hi[2]
}

// boxOverlap returns the volume of the intersection of [alo,ahi] and
// [blo,bhi].
func boxOverlap(alo, ahi, blo, bhi [3]float64) float64 {
	v := 1.0
	for d := 0; d < 3; d++ {
		l := math.Max(alo[d], blo[d])
		h := math.Min(ahi[d], bhi[d])
		if h <= l {
			return 0
		}
		v *= h - l
	}
	return v
}

// Count returns the global simulated droplet count (collective).
func (cl *Cloud) Count() int { return cl.comm.AllreduceInt(len(cl.x), mpi.Sum) }

// TrueCount returns the represented true droplet population (collective).
func (cl *Cloud) TrueCount() float64 {
	return cl.comm.AllreduceScalar(float64(len(cl.x))*cl.partScale, mpi.Sum)
}

// Imbalance returns max/mean droplets per rank (collective).
func (cl *Cloud) Imbalance() float64 {
	n := float64(len(cl.x))
	maxN := cl.comm.AllreduceScalar(n, mpi.Max)
	sumN := cl.comm.AllreduceScalar(n, mpi.Sum)
	mean := sumN / float64(cl.comm.Size())
	if mean == 0 {
		return 1
	}
	return maxN / mean
}

// Step advances the droplets one time-step under spatial partitioning:
// drag/evaporation update, wall handling, redistribution to the owning
// ranks, and the global count reduction the load balancer performs.
func (cl *Cloud) Step(dt float64) {
	// Update phase: drag toward a swirling gas velocity, evaporation,
	// recycling of evaporated droplets at the injector.
	evap := 1.0 / float64(cl.cfg.EvapSteps)
	side := particle.ConeSide(cl.cfg.ConeFraction)
	lo, hi := cl.boxOf(cl.comm.Rank())
	injectorMine := inBox(particle.InjectorX, particle.InjectorY, particle.InjectorZ, lo, hi)
	for i := 0; i < len(cl.x); i++ {
		gx, gy, gz := particle.GasVelocity(cl.y[i], cl.z[i])
		cl.vx[i] += dt / particle.Tau * (gx - cl.vx[i])
		cl.vy[i] += dt / particle.Tau * (gy - cl.vy[i])
		cl.vz[i] += dt / particle.Tau * (gz - cl.vz[i])
		cl.x[i] += dt * cl.vx[i]
		cl.y[i] += dt * cl.vy[i]
		cl.z[i] += dt * cl.vz[i]
		cl.rad[i] -= evap * cl.rng.Float64() * 2
		// Reflect at lateral walls, absorb at the outlet (x > 1).
		particle.Reflect(&cl.y[i], &cl.vy[i])
		particle.Reflect(&cl.z[i], &cl.vz[i])
		if cl.x[i] < 0 {
			cl.x[i] = -cl.x[i]
			cl.vx[i] = -cl.vx[i]
		}
		if cl.rad[i] <= 0 || cl.x[i] >= 1 {
			// Evaporated or escaped: recycle at the injector cone if this
			// rank hosts it; otherwise drop (the injector rank re-seeds).
			if injectorMine {
				cl.x[i] = cl.rng.Float64() * side * 0.2
				cl.y[i] = 0.5 + (cl.rng.Float64()-0.5)*side*0.5
				cl.z[i] = 0.5 + (cl.rng.Float64()-0.5)*side*0.5
				cl.vx[i] = 0.3 + 0.1*cl.rng.NormFloat64()
				cl.rad[i] = 1.0
			} else {
				// Mark for removal by radius.
				cl.rad[i] = -1
			}
		}
	}
	cl.comm.Compute(cluster.Work{
		Flops: particle.DropletFlopsPerStep * float64(len(cl.x)) * cl.partScale,
		Bytes: particle.DropletBytesPerStep * float64(len(cl.x)) * cl.partScale,
	})
	cl.redistribute()
}

// redistribute moves each droplet to its owning rank. The production
// solver does this with an alltoallv; the per-message CPU overheads of
// the dense pairwise schedule are charged analytically while the
// non-empty payloads travel as real messages, and a global reduction
// (the balancer's census) synchronises the step.
func (cl *Cloud) redistribute() {
	p, r := cl.comm.Size(), cl.comm.Rank()
	buffers := map[int][]float64{}
	var kx, ky, kz, kvx, kvy, kvz, krad []float64
	for i := 0; i < len(cl.x); i++ {
		if cl.rad[i] < 0 {
			continue // removed
		}
		owner := cl.ownerOf(cl.x[i], cl.y[i], cl.z[i])
		if owner == r {
			kx = append(kx, cl.x[i])
			ky = append(ky, cl.y[i])
			kz = append(kz, cl.z[i])
			kvx = append(kvx, cl.vx[i])
			kvy = append(kvy, cl.vy[i])
			kvz = append(kvz, cl.vz[i])
			krad = append(krad, cl.rad[i])
		} else {
			buffers[owner] = append(buffers[owner],
				cl.x[i], cl.y[i], cl.z[i], cl.vx[i], cl.vy[i], cl.vz[i], cl.rad[i])
		}
	}
	removed := 0
	for i := 0; i < len(cl.x); i++ {
		if cl.rad[i] < 0 {
			removed++
		}
	}
	// Census: every rank learns how many inbound messages to expect, and
	// the balancer gets its global view (including the evaporated count
	// to replace) — one p-wide reduction per step, the collective the
	// paper blames for spray scaling.
	// Destination order is fixed once here and reused for the sends below,
	// whose virtual timestamps depend on it.
	dests := order.SortedKeys(buffers)
	indicators := make([]float64, p+1)
	for _, d := range dests {
		indicators[d] = 1
	}
	indicators[p] = float64(removed)
	census := cl.comm.Allreduce(indicators, mpi.Sum)
	inbound := int(census[r])
	lost := int(census[p])

	// Analytic charge for the dense pairwise schedule. Every pair of the
	// alltoallv exchanges droplet ownership updates plus the spray-solver
	// coupling payload (gas properties at droplet sites, source terms
	// back) — ~4 KiB per pair in the production code. This O(p) per-rank
	// schedule is what makes the spray routine 96% communication at
	// 2,048 cores (Fig. 5a).
	m := cl.comm.Machine()
	const pairBytes = 12288
	pairCost := m.SendOverhead + m.RecvOverhead + m.InterNodeLatency + pairBytes/m.EffectiveInterBW()
	if n := p - 1 - len(buffers); n > 0 {
		cl.comm.ChargeCommSeconds(float64(n) * pairCost)
	}
	// Real payload messages, in the deterministic destination order
	// established above.
	for _, d := range dests {
		buf := buffers[d]
		cl.comm.SendVirtual(d, tagMigrate, buf, int(float64(len(buf))*8*cl.partScale))
	}
	// Waitall-style batched receive: clock advance and droplet ordering
	// are both independent of host-side delivery order.
	batches, _ := cl.comm.RecvAll(inbound, tagMigrate)
	for _, d := range batches {
		for i := 0; i+6 < len(d); i += 7 {
			kx = append(kx, d[i])
			ky = append(ky, d[i+1])
			kz = append(kz, d[i+2])
			kvx = append(kvx, d[i+3])
			kvy = append(kvy, d[i+4])
			kvz = append(kvz, d[i+5])
			krad = append(krad, d[i+6])
		}
		cl.comm.Release(d)
	}
	cl.x, cl.y, cl.z, cl.vx, cl.vy, cl.vz, cl.rad = kx, ky, kz, kvx, kvy, kvz, krad

	// The injector rank replaces globally lost droplets, keeping the
	// population stationary like a continuous fuel spray.
	if lost > 0 && cl.ownerOf(particle.InjectorX, particle.InjectorY, particle.InjectorZ) == r {
		side := particle.ConeSide(cl.cfg.ConeFraction)
		for k := 0; k < lost; k++ {
			cl.spawn(cl.rng.Float64()*side*0.2,
				0.5+(cl.rng.Float64()-0.5)*side*0.5,
				0.5+(cl.rng.Float64()-0.5)*side*0.5)
		}
	}
}

// StepWork returns the true per-step droplet work this rank represents
// (for external cost models).
func (cl *Cloud) StepWork() cluster.Work {
	return cluster.Work{
		Flops: particle.DropletFlopsPerStep * float64(len(cl.x)) * cl.partScale,
		Bytes: particle.DropletBytesPerStep * float64(len(cl.x)) * cl.partScale,
	}
}
