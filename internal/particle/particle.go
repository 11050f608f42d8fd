package particle

import (
	"fmt"
	"math"
	"slices"

	"cpx/internal/cluster"
	"cpx/internal/mpi"
	"cpx/internal/scratch"
)

// Message tags, disjoint from the coupler's unit tag blocks and from the
// pressure solver's, which runs its Base spray as a System on its own
// communicator.
const (
	tagMigrate    = 48
	tagStealReq   = 49
	tagStealGrant = 50
)

// dropletFields is the per-droplet payload width of every exchange:
// position, velocity, radius.
const dropletFields = 7

// Config describes a coupled particle population.
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
	// Strategy selects the load balancer (default StaticSplit).
	Strategy Strategy
	// Grid is the static and steal strategies' process grid over the
	// unit cube, x fastest in rank order; it must multiply to the rank
	// count. Zero takes gridFor's. A flow solver running its spray on
	// its own ranks passes its decomposition's grid, so each rank owns
	// the droplets inside its flow box.
	Grid [3]int
	// ImbalanceThreshold triggers a repartition when the max/mean
	// per-rank droplet load crosses it (Repartition strategy only;
	// default 1.5). Must be >= 1 when set.
	ImbalanceThreshold float64
	Seed               int64
}

func (c Config) withDefaults() Config {
	if c.ConeFraction == 0 {
		c.ConeFraction = 0.25
	}
	if c.EvapSteps == 0 {
		c.EvapSteps = 200
	}
	if c.ImbalanceThreshold == 0 {
		c.ImbalanceThreshold = 1.5
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Droplets < 1 {
		return fmt.Errorf("particle: need at least one droplet, got %d", c.Droplets)
	}
	if c.ConeFraction < 0 || c.ConeFraction > 1 {
		return fmt.Errorf("particle: cone fraction %v out of [0,1]", c.ConeFraction)
	}
	if c.ImbalanceThreshold != 0 && c.ImbalanceThreshold < 1 {
		return fmt.Errorf("particle: imbalance threshold %v below 1 (max/mean load is never smaller)", c.ImbalanceThreshold)
	}
	if c.Strategy < StaticSplit || c.Strategy > Repartition {
		return fmt.Errorf("particle: unknown strategy %d", int(c.Strategy))
	}
	return nil
}

// ScaleOpts bound the simulated droplets per rank; zero disables capping.
type ScaleOpts struct {
	MaxDropletsPerRank int
}

// RankLoad is one rank's load-balancing accounting, surfaced through
// coupler.Report so harnesses and the serving layer can attribute where
// a strategy wins or loses.
type RankLoad struct {
	// Droplets is the rank's final local simulated droplet count.
	Droplets int
	// Moved counts droplets this rank migrated to another owner.
	Moved int
	// Stolen counts droplets this rank received through steal grants;
	// Granted counts droplets it handed to thieves.
	Stolen, Granted int
	// Repartitions counts ownership rebuilds this rank joined.
	Repartitions int
	// LastImbalance and PeakImbalance are the global max/mean droplet
	// load after the final step and its maximum over the run (identical
	// on every rank: both derive from the shared census).
	LastImbalance, PeakImbalance float64
}

// LoadReport aggregates the per-rank loads of one particle instance.
type LoadReport struct {
	Strategy                     string
	Ranks                        int
	Moved, Stolen, Granted       int
	Repartitions                 int
	LastImbalance, PeakImbalance float64
}

// AggregateLoads folds the per-rank accounting of one instance into a
// report. Imbalance fields are global values replicated on every rank;
// the first rank's copy is authoritative.
func AggregateLoads(strategy string, loads []RankLoad) LoadReport {
	rep := LoadReport{Strategy: strategy, Ranks: len(loads)}
	for i, l := range loads {
		rep.Moved += l.Moved
		rep.Stolen += l.Stolen
		rep.Granted += l.Granted
		if i == 0 {
			rep.Repartitions = l.Repartitions
			rep.LastImbalance = l.LastImbalance
			rep.PeakImbalance = l.PeakImbalance
		}
	}
	return rep
}

// System is the per-rank state of the coupled particle component.
type System struct {
	comm *mpi.Comm
	cfg  Config
	bal  balancer
	seed uint64
	side float64

	// Droplet state (SoA): position, velocity, radius.
	x, y, z    []float64
	vx, vy, vz []float64
	rad        []float64

	partScale float64 // true droplets per simulated droplet
	step      int     // global step counter (drives deterministic re-injection)
	// gasGain scales the axial gas velocity; coupled runs drive it from
	// the absorbed flow field (1.0 standalone).
	gasGain float64
	load    RankLoad

	// Migration scratch, reused by every step (DESIGN.md §5.13): the
	// send buffer of every destination this rank has migrated to
	// (emptied, not dropped, after a step), the step's destinations in
	// send order, the census vector (2p+1) and the load vector (p) it
	// yields, and the work-steal request and grant payloads.
	out   map[int][]float64
	dests []int
	vec   []float64
	loads []int
	req   [1]float64
	grant []float64
	// boundary is BoundarySample's buffer, refilled every call.
	boundary []float64
}

// New creates the particle component on communicator c, partitioned
// over its ranks independently of any flow mesh unless cfg.Grid puts it
// on one. Collective over c.
func New(c *mpi.Comm, cfg Config, sc ScaleOpts) (*System, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := c.Size()
	if cfg.Grid == ([3]int{}) {
		cfg.Grid = gridFor(p)
	}
	if g := cfg.Grid; g[0] < 1 || g[1] < 1 || g[2] < 1 || g[0]*g[1]*g[2] != p {
		return nil, fmt.Errorf("particle: grid %v does not cover %d ranks", g, p)
	}
	s := &System{
		comm: c, cfg: cfg, seed: ModelSeed(cfg.Seed),
		side: ConeSide(cfg.ConeFraction), gasGain: 1,
		out: map[int][]float64{}, vec: make([]float64, 2*p+1), loads: make([]int, p),
	}
	simTotal := int64(p) * 4096
	if simTotal > cfg.Droplets {
		simTotal = cfg.Droplets
	}
	if sc.MaxDropletsPerRank > 0 && simTotal > int64(sc.MaxDropletsPerRank)*int64(p) {
		simTotal = int64(sc.MaxDropletsPerRank) * int64(p)
	}
	s.partScale = float64(cfg.Droplets) / float64(simTotal)
	s.bal = newBalancer(c, cfg, s.seed, s.side, simTotal)

	// The initial cloud is a global agreement: droplet k's state is a
	// hash of (seed, k), and the rank owning it under the strategy's
	// initial map keeps it.
	mine := initialCloud(c, cloudKey{p, s.seed, s.side, simTotal, cfg.Strategy, cfg.Grid}, s.bal.owner)[c.Rank()]
	for _, xs := range []*[]float64{&s.x, &s.y, &s.z, &s.vx, &s.vy, &s.vz, &s.rad} {
		*xs = make([]float64, 0, len(mine))
	}
	for _, k := range mine {
		px, py, pz, pvx, pvy, pvz := InitialState(s.seed, uint64(k), s.side)
		s.spawn(px, py, pz, pvx, pvy, pvz, 1.0)
	}
	// Loading cost for the true population share.
	c.Compute(cluster.Work{Flops: 20 * float64(len(mine)) * s.partScale,
		Bytes: 64 * float64(len(mine)) * s.partScale})
	return s, nil
}

// cloudKey holds everything the initial cloud's ownership depends on.
type cloudKey struct {
	ranks    int
	seed     uint64
	side     float64
	simTotal int64
	strategy Strategy
	grid     [3]int
}

// initialCloud returns the initial cloud's droplet indices by owning
// rank, each rank's ascending. Every rank of a run would bucket the same
// simTotal droplets identically, so the run does it once (mpi.Shared)
// and each rank then generates only its own droplets.
func initialCloud(c *mpi.Comm, key cloudKey, owner func(x, y, z float64) int) [][]int64 {
	return mpi.Shared(c, key, func() [][]int64 {
		owned := make([][]int64, key.ranks)
		for k := range key.simTotal {
			x, y, z, _, _, _ := InitialState(key.seed, uint64(k), key.side)
			o := owner(x, y, z)
			owned[o] = append(owned[o], k)
		}
		return owned
	})
}

func (s *System) spawn(px, py, pz, pvx, pvy, pvz, r float64) {
	s.x = append(s.x, px)
	s.y = append(s.y, py)
	s.z = append(s.z, pz)
	s.vx = append(s.vx, pvx)
	s.vy = append(s.vy, pvy)
	s.vz = append(s.vz, pvz)
	s.rad = append(s.rad, r)
}

// TrueCount returns the represented true droplet population (collective).
//
//lint:allow unused pressure's TestBaseSprayRepresentsConfiguredDroplets reads the population the Base spray stands for
func (s *System) TrueCount() float64 {
	return s.comm.AllreduceScalar(float64(len(s.x))*s.partScale, mpi.Sum)
}

// imbalanceOf is the max/mean load metric (1 when the population is
// empty).
func imbalanceOf(maxN, sumN float64, ranks int) float64 {
	mean := sumN / float64(ranks)
	if mean == 0 {
		return 1
	}
	return maxN / mean
}

// Load returns this rank's accounting with the live droplet count.
func (s *System) Load() RankLoad {
	l := s.load
	l.Droplets = len(s.x)
	return l
}

// Step advances the component one time-step: droplet physics, then the
// strategy's migration/balancing exchange. Collective over the particle
// communicator.
//
//perf:hotpath
func (s *System) Step(dt float64) {
	s.advect(dt)
	s.bal.balance(s)
	s.step++
}

// advect updates every local droplet: drag toward the gas velocity,
// evaporation, wall handling. Droplets that evaporate or escape are
// marked (negative radius) and replaced during migration by the
// injector-owning rank. All noise is hash-derived from droplet state and
// the step counter, so trajectories are independent of ownership.
//
//perf:hotpath
func (s *System) advect(dt float64) {
	evap := 1.0 / float64(s.cfg.EvapSteps)
	for i := 0; i < len(s.x); i++ {
		gx, gy, gz := GasVelocity(s.y[i], s.z[i])
		gx *= s.gasGain
		s.vx[i] += dt / Tau * (gx - s.vx[i])
		s.vy[i] += dt / Tau * (gy - s.vy[i])
		s.vz[i] += dt / Tau * (gz - s.vz[i])
		s.x[i] += dt * s.vx[i]
		s.y[i] += dt * s.vy[i]
		s.z[i] += dt * s.vz[i]
		s.rad[i] -= evap * EvapNoise(s.x[i], s.y[i], s.z[i], s.step)
		// Reflect at lateral walls, absorb at the outlet (x > 1).
		Reflect(&s.y[i], &s.vy[i])
		Reflect(&s.z[i], &s.vz[i])
		if s.x[i] < 0 {
			s.x[i] = -s.x[i]
			s.vx[i] = -s.vx[i]
		}
		if s.rad[i] <= 0 || s.x[i] >= 1 {
			s.rad[i] = -1 // lost: re-seeded at the injector during migration
		}
	}
	s.comm.Compute(cluster.Work{
		Flops: DropletFlopsPerStep * float64(len(s.x)) * s.partScale,
		Bytes: DropletBytesPerStep * float64(len(s.x)) * s.partScale,
	})
}

// census is the balancer's global view after one migration: the exact
// post-migration droplet load of every rank and the number of droplets
// lost this step. One p-wide reduction per migration — the collective
// the paper blames for spray scaling.
type census struct {
	loads []int // post-migration (and post-re-injection) load per rank
	lost  int
}

// migrate moves each droplet to the rank owning its position under the
// given ownership map, exactly like the spray's alltoallv-style
// redistribution: per-message CPU overheads of the dense pairwise
// schedule are charged analytically, the non-empty payloads travel as
// real messages, and a single combined reduction gives every rank both
// its inbound message count and the global post-migration load vector.
// The injector-owning rank then re-seeds the globally lost droplets.
// Stayers are compacted in place in their old order, arrivals appended
// behind them in source-rank order and re-seeded droplets last, so the
// droplet order, and with it the state hash, is what rebuilding the arrays
// from empty would give. The census's loads are the System's own and
// are overwritten by the next migrate.
//
//perf:hotpath
func (s *System) migrate(owner func(x, y, z float64) int) census {
	p, r := s.comm.Size(), s.comm.Rank()
	keep, removed := 0, 0
	for i := 0; i < len(s.x); i++ {
		if s.rad[i] < 0 {
			removed++
			continue
		}
		o := owner(s.x[i], s.y[i], s.z[i])
		if o == r {
			s.x[keep], s.y[keep], s.z[keep] = s.x[i], s.y[i], s.z[i]
			s.vx[keep], s.vy[keep], s.vz[keep] = s.vx[i], s.vy[i], s.vz[i]
			s.rad[keep] = s.rad[i]
			keep++
		} else {
			s.out[o] = append(s.out[o], //lint:allow hotalloc amortised growth of a send buffer kept on the System
				s.x[i], s.y[i], s.z[i], s.vx[i], s.vy[i], s.vz[i], s.rad[i])
		}
	}
	s.x, s.y, s.z = s.x[:keep], s.y[:keep], s.z[:keep]
	s.vx, s.vy, s.vz = s.vx[:keep], s.vy[:keep], s.vz[:keep]
	s.rad = s.rad[:keep]
	// Combined census: [0,p) inbound-message indicator, [p,2p) exact
	// post-migration load contribution, [2p] lost droplets. Destination
	// order is fixed once here and reused for the sends below, whose
	// virtual timestamps depend on it.
	dests := s.dests[:0]
	for d, buf := range s.out {
		if len(buf) > 0 {
			//lint:allow determinism the non-empty keys are sorted right after the loop
			dests = append(dests, d) //lint:allow hotalloc amortised growth of the destination list kept on the System
		}
	}
	slices.Sort(dests)
	s.dests = dests
	vec := s.vec
	clear(vec)
	for _, d := range dests {
		vec[d] = 1
		vec[p+d] = float64(len(s.out[d]) / dropletFields)
	}
	vec[p+r] = float64(keep)
	vec[2*p] = float64(removed)
	sum := s.comm.Allreduce(vec, mpi.Sum)
	inbound := int(sum[r])
	cs := census{loads: s.loads, lost: int(sum[2*p])}
	for d := 0; d < p; d++ {
		cs.loads[d] = int(sum[p+d])
	}
	s.comm.Release(sum)

	// Analytic charge for the dense pairwise schedule: every pair of the
	// alltoallv exchanges ownership updates plus the particle-flow
	// coupling payload, ~12 KiB per pair in the production code. This
	// O(p) per-rank schedule is what makes the spray routine 96%
	// communication at 2,048 cores (Fig. 5a).
	m := s.comm.Machine()
	const pairBytes = 12288
	pairCost := m.SendOverhead + m.RecvOverhead + m.InterNodeLatency + pairBytes/m.EffectiveInterBW()
	if n := (p - 1) - len(dests); n > 0 {
		s.comm.ChargeCommSeconds(float64(n) * pairCost)
	}
	// Real payload messages, in the deterministic destination order
	// established above.
	for _, d := range dests {
		buf := s.out[d]
		s.load.Moved += len(buf) / dropletFields
		s.comm.SendVirtual(d, tagMigrate, buf, int(float64(len(buf))*8*s.partScale))
		s.out[d] = buf[:0]
	}
	// Waitall-style batched receive: clock advance and droplet ordering
	// are both independent of host-side delivery order.
	batches, _ := s.comm.RecvAll(inbound, tagMigrate)
	for _, d := range batches {
		for i := 0; i+dropletFields-1 < len(d); i += dropletFields {
			s.spawn(d[i], d[i+1], d[i+2], d[i+3], d[i+4], d[i+5], d[i+6])
		}
		s.comm.Release(d)
	}

	// The injector-owning rank re-seeds globally lost droplets from the
	// deterministic injection stream, keeping the population stationary
	// like a continuous fuel spray. The re-seeded states depend only on
	// (step, index), so re-injection commutes with the strategy choice.
	if cs.lost > 0 {
		inj := owner(InjectorX, InjectorY, InjectorZ)
		if inj == r {
			for j := 0; j < cs.lost; j++ {
				px, py, pz, pvx, pvy, pvz := InjectionState(s.seed, s.step, j, s.side)
				s.spawn(px, py, pz, pvx, pvy, pvz, 1.0)
			}
		}
		cs.loads[inj] += cs.lost
	}
	return cs
}

// observe records the census-derived global imbalance in the rank's
// accounting (identical on every rank).
func (s *System) observe(cs census) float64 {
	maxN, sumN := 0, 0
	for _, l := range cs.loads {
		if l > maxN {
			maxN = l
		}
		sumN += l
	}
	imb := imbalanceOf(float64(maxN), float64(sumN), len(cs.loads))
	s.load.LastImbalance = imb
	s.load.PeakImbalance = math.Max(s.load.PeakImbalance, imb)
	return imb
}

// ---- Coupling hooks (the coupler's solver interface) ------------------------

// BoundarySample extracts n interface values: the droplet source terms
// (evaporated-mass proxy from this rank's population share) a flow
// solver absorbs, laid out over the interface points, into a buffer the
// rank keeps: the next call overwrites it.
//
//perf:hotpath
func (s *System) BoundarySample(n int) []float64 {
	out := scratch.Floats(&s.boundary, n)
	if n == 0 {
		return out
	}
	sumR := 0.0
	for _, r := range s.rad {
		sumR += r
	}
	mean := 0.0
	if len(s.rad) > 0 {
		mean = sumR / float64(len(s.rad))
	}
	// Source-term magnitude around 1 (the flow side's absorb guards
	// reject non-physical transfers outside (0.1, 10)).
	base := 0.8 + 0.4*mean
	for i := range out {
		out[i] = base * (1 + 0.1*math.Sin(float64(i)*0.7))
	}
	return out
}

// AbsorbBoundary relaxes the axial gas velocity gain toward interpolated
// flow-field values received from the coupled flow solver.
func (s *System) AbsorbBoundary(vals []float64) {
	if len(vals) == 0 {
		return
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	g := sum / float64(len(vals))
	if g > 0.1 && g < 10 { // guard against non-physical transfers
		s.gasGain = 0.95*s.gasGain + 0.05*g
	}
}
