package particle

import (
	"fmt"

	"cpx/internal/cluster"
	"cpx/internal/fault"
	"cpx/internal/mpi"
	"cpx/internal/partition"
)

// Strategy selects the load-balancing implementation behind a particle
// component.
type Strategy int

// Balancing strategies.
const (
	// StaticSplit is the Base solver: a fixed spatial decomposition of
	// the unit domain over the particle ranks; every step ends with the
	// alltoallv-style redistribution plus the census reduction.
	StaticSplit Strategy = iota
	// WorkSteal keeps the static spatial ownership but follows every
	// migration with explicit steal requests/grants between particle
	// ranks: overloaded ranks lend droplets to underloaded ones for the
	// next step's compute, trading extra point-to-point traffic for
	// balanced droplet work.
	WorkSteal
	// Repartition rebuilds the spatial decomposition (an RCB tree over a
	// gathered droplet sample) whenever the max/mean per-rank load
	// crosses Config.ImbalanceThreshold, paying an explicit repartition
	// cost — the sample gather, the tree build, and a full second
	// redistribution — to restore balance.
	Repartition
)

func (st Strategy) String() string {
	switch st {
	case WorkSteal:
		return "steal"
	case Repartition:
		return "repartition"
	default:
		return "static"
	}
}

// ParseStrategy maps the wire names used by cpxsim configs and the
// serving layer ("static", "steal", "repartition"; empty means static).
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "", "static":
		return StaticSplit, nil
	case "steal", "worksteal":
		return WorkSteal, nil
	case "repartition":
		return Repartition, nil
	}
	return StaticSplit, fmt.Errorf("particle: unknown strategy %q (want static, steal or repartition)", name)
}

// Strategies lists every balancer, for sweeps.
func Strategies() []Strategy { return []Strategy{StaticSplit, WorkSteal, Repartition} }

// balancer is the pluggable ownership + per-step balancing behaviour.
// Implementations must be deterministic in virtual time: every decision
// derives from the shared census, never from host-side state.
type balancer interface {
	// owner returns the rank owning a position under the current map.
	owner(x, y, z float64) int
	// balance runs the strategy's post-advection exchange (migration,
	// census, and any balancing traffic). Collective over s.comm.
	balance(s *System)
	// walk visits the balancer's mutable state, as System.Walk does.
	walk(st *fault.State)
}

func newBalancer(c *mpi.Comm, cfg Config, seed uint64, side float64, simTotal int64) balancer {
	switch cfg.Strategy {
	case WorkSteal:
		return &stealBalancer{grid: cfg.Grid}
	case Repartition:
		b := &repartitionBalancer{threshold: cfg.ImbalanceThreshold, ranks: c.Size()}
		b.tree = initialTree(c, seed, side, simTotal)
		return b
	default:
		return &staticBalancer{grid: cfg.Grid}
	}
}

// gridFor factors the rank count into a 3-D process grid with dimensions
// as equal as possible, the largest along x (the droplets' drift axis):
// the grid a zero Config.Grid takes.
func gridFor(p int) [3]int {
	best := [3]int{p, 1, 1}
	for a := 1; a*a*a <= p; a++ {
		if p%a != 0 {
			continue
		}
		q := p / a
		for b := a; b*b <= q; b++ {
			if q%b != 0 {
				continue
			}
			c := q / b // a <= b <= c
			if c < best[0] {
				best = [3]int{c, b, a}
			}
		}
	}
	return best
}

// gridOwner maps a position to its rank on a fixed process grid over the
// unit cube (the Base solver's spatial partitioning).
//
//perf:hotpath
func gridOwner(grid [3]int, x, y, z float64) int {
	cx := clampIdx(x, grid[0])
	cy := clampIdx(y, grid[1])
	cz := clampIdx(z, grid[2])
	return (cz*grid[1]+cy)*grid[0] + cx
}

//perf:hotpath
func clampIdx(v float64, g int) int {
	i := int(v * float64(g))
	if i < 0 {
		i = 0
	}
	if i >= g {
		i = g - 1
	}
	return i
}

// ---- Static spatial split ---------------------------------------------------

type staticBalancer struct {
	grid [3]int
}

func (b *staticBalancer) owner(x, y, z float64) int { return gridOwner(b.grid, x, y, z) }

func (b *staticBalancer) balance(s *System) {
	cs := s.migrate(b.owner)
	s.observe(cs)
}

func (b *staticBalancer) walk(*fault.State) {}

// ---- Work stealing ----------------------------------------------------------

type stealBalancer struct {
	grid [3]int
}

func (b *stealBalancer) owner(x, y, z float64) int { return gridOwner(b.grid, x, y, z) }

// balance migrates on the static map, then executes the deterministic
// steal plan derived from the census's exact post-migration loads:
// thieves send a steal request to their paired victim, the victim
// answers with a grant carrying the droplets. Stolen droplets are
// computed by the thief on the next step and drift home through the
// normal migration — per-step stealing, the classic scheme.
func (b *stealBalancer) balance(s *System) {
	cs := s.migrate(b.owner)
	s.observe(cs)
	plan := stealPlan(cs.loads)
	r := s.comm.Rank()
	for _, tr := range plan {
		switch r {
		case tr.thief:
			s.req[0] = float64(tr.n)
			s.comm.SendVirtual(tr.victim, tagStealReq, s.req[:], 64)
			d, _, _ := s.comm.Recv(tr.victim, tagStealGrant)
			for i := 0; i+dropletFields-1 < len(d); i += dropletFields {
				s.spawn(d[i], d[i+1], d[i+2], d[i+3], d[i+4], d[i+5], d[i+6])
			}
			s.comm.Release(d)
			s.load.Stolen += tr.n
		case tr.victim:
			d, _, _ := s.comm.Recv(tr.thief, tagStealReq)
			s.comm.Release(d)
			cut := len(s.x) - tr.n
			buf := s.grant[:0]
			for i := cut; i < len(s.x); i++ {
				buf = append(buf, s.x[i], s.y[i], s.z[i], s.vx[i], s.vy[i], s.vz[i], s.rad[i])
			}
			s.grant = buf
			s.x, s.y, s.z = s.x[:cut], s.y[:cut], s.z[:cut]
			s.vx, s.vy, s.vz = s.vx[:cut], s.vy[:cut], s.vz[:cut]
			s.rad = s.rad[:cut]
			s.comm.SendVirtual(tr.thief, tagStealGrant, buf, int(float64(len(buf))*8*s.partScale))
			s.load.Granted += tr.n
		}
	}
}

// transfer is one steal: victim hands n droplets to thief.
type transfer struct {
	victim, thief, n int
}

// stealPlan pairs overloaded ranks with underloaded ones from the shared
// load vector. Every rank computes the identical plan: victims in
// descending surplus (rank ascending on ties), thieves in descending
// deficit, greedy two-pointer matching, transfers below the chunk floor
// dropped (stealing single droplets costs more than it saves).
func stealPlan(loads []int) []transfer {
	p := len(loads)
	total := 0
	for _, l := range loads {
		total += l
	}
	target := (total + p - 1) / p
	minChunk := target / 16
	if minChunk < 1 {
		minChunk = 1
	}
	type entry struct{ rank, amount int }
	var victims, thieves []entry
	for r := 0; r < p; r++ {
		if s := loads[r] - target; s > 0 {
			victims = append(victims, entry{r, s})
		} else if d := target - loads[r]; d > 0 {
			thieves = append(thieves, entry{r, d})
		}
	}
	sortBy := func(es []entry) {
		for i := 1; i < len(es); i++ { // insertion sort: tiny, deterministic
			for j := i; j > 0 && (es[j].amount > es[j-1].amount ||
				(es[j].amount == es[j-1].amount && es[j].rank < es[j-1].rank)); j-- {
				es[j], es[j-1] = es[j-1], es[j]
			}
		}
	}
	sortBy(victims)
	sortBy(thieves)
	var plan []transfer
	vi, ti := 0, 0
	for vi < len(victims) && ti < len(thieves) {
		n := victims[vi].amount
		if thieves[ti].amount < n {
			n = thieves[ti].amount
		}
		if n >= minChunk {
			plan = append(plan, transfer{victim: victims[vi].rank, thief: thieves[ti].rank, n: n})
		}
		victims[vi].amount -= n
		thieves[ti].amount -= n
		if victims[vi].amount < minChunk {
			vi++
		}
		if thieves[ti].amount < minChunk {
			ti++
		}
	}
	return plan
}

func (b *stealBalancer) walk(*fault.State) {}

// ---- Repartition on imbalance -----------------------------------------------

// Explicit repartition costs: rewriting per-droplet ownership plus the
// sample sort/tree build, charged on every rank when a rebuild fires.
const (
	repartitionFlopsPerDroplet = 40.0
	repartitionFlopsPerSample  = 500.0
)

// samplesPerRank sizes the repartition sample: enough points per part
// for a meaningful median at small scale, bounded total (≈4096 points)
// at large scale — every rank sorts the full gathered sample, so an
// unbounded per-rank count would cost O(p² log p) host time.
func samplesPerRank(ranks int) int {
	s := 4096 / ranks
	if s > 32 {
		return 32
	}
	if s < 4 {
		return 4
	}
	return s
}

type repartitionBalancer struct {
	tree      *partition.RCBTree
	threshold float64
	ranks     int
}

// Every rank of a communicator builds the identical RCB tree, so the p
// identical O(n log² n) builds are done once per run (mpi.Shared): the
// initial tree per particle configuration, a rebuilt one per instance and
// step (balance rebuilds at most once a step).
type initialTreeKey struct {
	ranks    int
	seed     uint64
	side     float64
	simTotal int64
}

type rebuiltTreeKey struct{ firstWorldRank, step int }

// initialTree builds the starting ownership map from the globally agreed
// initial droplet states — identical on every rank, no communication.
func initialTree(c *mpi.Comm, seed uint64, side float64, simTotal int64) *partition.RCBTree {
	ranks := c.Size()
	return mpi.Shared(c, initialTreeKey{ranks, seed, side, simTotal}, func() *partition.RCBTree {
		n := int64(ranks * samplesPerRank(ranks))
		if n > simTotal {
			n = simTotal
		}
		points := make([]partition.Point, n)
		for k := int64(0); k < n; k++ {
			x, y, z, _, _, _ := InitialState(seed, uint64(k), side)
			points[k] = partition.Point{x, y, z}
		}
		return partition.BuildRCBTree(points, ranks)
	})
}

func (b *repartitionBalancer) owner(x, y, z float64) int {
	return b.tree.Locate(partition.Point{x, y, z})
}

// balance migrates on the current tree; when the census imbalance
// crosses the threshold it gathers a droplet sample, rebuilds the tree
// (identically on every rank), charges the explicit repartition cost and
// runs a full second redistribution onto the new ownership.
func (b *repartitionBalancer) balance(s *System) {
	cs := s.migrate(b.owner)
	imb := s.observe(cs)
	if imb <= b.threshold {
		return
	}
	b.rebuild(s)
	s.load.Repartitions++
	s.observe(s.migrate(b.owner))
}

// rebuild gathers a stride sample of every rank's droplets and rebuilds
// the RCB tree from the concatenation (rank order, so every rank builds
// the identical tree). Ranks with no droplets contribute the injector
// position, keeping the gather shape deterministic.
func (b *repartitionBalancer) rebuild(s *System) {
	spr := samplesPerRank(b.ranks)
	buf := make([]float64, 0, 3*spr)
	n := len(s.x)
	for i := 0; i < spr; i++ {
		if n == 0 {
			buf = append(buf, InjectorX, InjectorY, InjectorZ)
			continue
		}
		j := i * n / spr
		buf = append(buf, s.x[j], s.y[j], s.z[j])
	}
	all := s.comm.Allgather(buf)
	points := make([]partition.Point, 0, b.ranks*spr)
	for _, part := range all {
		for i := 0; i+2 < len(part); i += 3 {
			points = append(points, partition.Point{part[i], part[i+1], part[i+2]})
		}
	}
	key := rebuiltTreeKey{s.comm.WorldRank() - s.comm.Rank(), s.step}
	b.tree = mpi.Shared(s.comm, key, func() *partition.RCBTree { return partition.BuildRCBTree(points, b.ranks) })
	s.comm.Compute(cluster.Work{
		Flops: repartitionFlopsPerDroplet*float64(n)*s.partScale +
			repartitionFlopsPerSample*float64(len(points)),
		Bytes: 24 * float64(n) * s.partScale,
	})
}

// walk visits the ownership tree through its flat encoding; a restore
// rejects a malformed encoding or one split for another rank count.
func (b *repartitionBalancer) walk(st *fault.State) {
	st.Encoded(b.tree.Encode, func(enc []float64) error {
		t, err := partition.DecodeRCBTree(enc)
		if err != nil {
			return err
		}
		if t.Parts() != b.ranks {
			return fmt.Errorf("particle: checkpointed tree splits %d ways, communicator has %d ranks", t.Parts(), b.ranks)
		}
		b.tree = t
		return nil
	})
}
