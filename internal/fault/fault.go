package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"cpx/internal/cluster"
)

// Default model constants. DetectionLatency is the time a ULFM-style
// failure detector (heartbeats, RAS events) needs to flag a dead peer;
// RestartCost is the scheduler/relaunch time of one recovery.
const (
	DefaultDetectionLatency = 5e-3
	DefaultRestartCost      = 1.0
)

// Crash kills one rank at a virtual timestamp.
type Crash struct {
	Rank int
	At   float64 // virtual seconds
}

// Straggler multiplies the compute time of every rank on one node by
// Factor (>= 1) for virtual times in [From, To). Node == -1 applies to
// all nodes (a machine-wide slowdown such as thermal throttling).
type Straggler struct {
	Node     int
	Factor   float64
	From, To float64
}

// LinkFault degrades the network path of messages departing in
// [From, To): latency is multiplied by Alpha and bandwidth divided by
// Beta for any message whose source or destination lives on Node
// (Node == -1 degrades every link). Zero multipliers mean "unchanged".
type LinkFault struct {
	Node     int
	From, To float64
	Alpha    float64 // latency multiplier
	Beta     float64 // bandwidth divisor
}

// Plan is one immutable fault schedule. The zero value injects nothing.
type Plan struct {
	Crashes    []Crash
	Stragglers []Straggler
	LinkFaults []LinkFault
	// DetectionLatency is the virtual time between a rank's death and a
	// peer's receive failing with a RankFailure. Zero selects
	// DefaultDetectionLatency.
	DetectionLatency float64
}

// Detection returns the effective failure-detection latency.
func (p *Plan) Detection() float64 {
	if p.DetectionLatency > 0 {
		return p.DetectionLatency
	}
	return DefaultDetectionLatency
}

// Validate checks the schedule's invariants.
func (p *Plan) Validate() error {
	for i, c := range p.Crashes {
		if c.Rank < 0 || c.At < 0 {
			return fmt.Errorf("fault: crash %d: rank and time must be non-negative", i)
		}
	}
	for i, s := range p.Stragglers {
		if s.Factor < 1 {
			return fmt.Errorf("fault: straggler %d: factor %v < 1", i, s.Factor)
		}
		if s.To <= s.From || s.From < 0 {
			return fmt.Errorf("fault: straggler %d: bad window [%v,%v)", i, s.From, s.To)
		}
	}
	for i, l := range p.LinkFaults {
		if l.To <= l.From || l.From < 0 {
			return fmt.Errorf("fault: link fault %d: bad window [%v,%v)", i, l.From, l.To)
		}
		if l.Alpha < 0 || l.Beta < 0 {
			return fmt.Errorf("fault: link fault %d: multipliers must be non-negative", i)
		}
	}
	if p.DetectionLatency < 0 {
		return fmt.Errorf("fault: DetectionLatency must be non-negative")
	}
	return nil
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Crashes) == 0 && len(p.Stragglers) == 0 && len(p.LinkFaults) == 0)
}

// CrashTime returns the earliest crash timestamp scheduled for a rank,
// or +Inf if the rank never crashes.
func (p *Plan) CrashTime(rank int) float64 {
	at := math.Inf(1)
	for _, c := range p.Crashes {
		if c.Rank == rank && c.At < at {
			at = c.At
		}
	}
	return at
}

// After returns a copy of the plan with every crash at or before t
// removed — the schedule a restarted attempt faces once the failures up
// to t have been consumed. Stragglers and link faults are kept: a slow
// node stays slow across restarts.
func (p *Plan) After(t float64) *Plan {
	out := &Plan{
		Stragglers:       p.Stragglers,
		LinkFaults:       p.LinkFaults,
		DetectionLatency: p.DetectionLatency,
	}
	for _, c := range p.Crashes {
		if c.At > t {
			out.Crashes = append(out.Crashes, c)
		}
	}
	return out
}

// rateAt returns the product of straggler factors active on a node at
// virtual time t, and the next window boundary after t (+Inf if none).
func (p *Plan) rateAt(node int, t float64) (factor, until float64) {
	factor, until = 1, math.Inf(1)
	for _, s := range p.Stragglers {
		if s.Node != -1 && s.Node != node {
			continue
		}
		if t >= s.From && t < s.To {
			factor *= s.Factor
			if s.To < until {
				until = s.To
			}
		} else if t < s.From && s.From < until {
			until = s.From
		}
	}
	return factor, until
}

// ComputeSeconds stretches a nominal compute charge starting at virtual
// time `start` on `node` through the straggler windows it overlaps: the
// charge is integrated piecewise, each window segment running at
// 1/factor of the nominal rate. With no stragglers it returns the
// nominal value unchanged (bit for bit).
func (p *Plan) ComputeSeconds(node int, start, nominal float64) float64 {
	if len(p.Stragglers) == 0 || nominal <= 0 {
		return nominal
	}
	t, rem, total := start, nominal, 0.0
	for rem > 0 {
		f, until := p.rateAt(node, t)
		span := rem * f // virtual span if this factor held to the end
		if t+span <= until {
			return total + span
		}
		d := until - t
		total += d
		rem -= d / f
		t = until
	}
	return total
}

// TransferTime is the fault-aware Hockney delay of a message of the
// given size departing at virtual time `at`: the machine's alpha/beta
// terms for the (src, dst) path, degraded by every link fault whose
// epoch covers the departure and whose node matches either endpoint.
func (p *Plan) TransferTime(m *cluster.Machine, src, dst, bytes int, at float64) float64 {
	lat, bw := m.Link(src, dst)
	for _, l := range p.LinkFaults {
		if at < l.From || at >= l.To {
			continue
		}
		if l.Node >= 0 && l.Node != m.Node(src) && l.Node != m.Node(dst) {
			continue
		}
		if l.Alpha > 0 {
			lat *= l.Alpha
		}
		if l.Beta > 0 {
			bw /= l.Beta
		}
	}
	if bytes < 0 {
		bytes = 0
	}
	return lat + float64(bytes)/bw
}

// Spec parameterises random plan generation. Crash inter-arrival times
// are exponential with mean MTBF (the whole-job mean time between
// failures), crash ranks uniform — the standard Young/Daly failure
// process. Straggler and link-fault events are optional Poisson streams.
type Spec struct {
	Seed    int64
	Ranks   int
	Horizon float64 // generate events in [0, Horizon)

	MTBF float64 // mean virtual time between rank crashes; 0 disables

	StragglerEvery float64 // mean time between straggler onsets; 0 disables
	LinkEvery      float64 // mean time between link-degradation epochs; 0 disables

	DetectionLatency float64

	// Machine maps ranks to nodes for straggler/link targets; defaults to
	// cluster.ARCHER2().
	Machine *cluster.Machine

	// Periodic replaces the exponential crash process with crashes at
	// exactly MTBF, 2*MTBF, ... — the deterministic schedule Daly's
	// first-order analysis assumes, useful for clean interval sweeps.
	Periodic bool
}

// maxEvents bounds generated event streams against degenerate specs
// (horizon >> rate).
const maxEvents = 4096

// A generated straggler slows its node's compute by stragglerFactor; a
// generated link fault multiplies latency by linkAlpha and divides
// bandwidth by linkBeta.
const (
	stragglerFactor float64 = 4
	linkAlpha       float64 = 8
	linkBeta        float64 = 4
)

// windowLen is the length of every generated straggler window and
// link-fault epoch: a quarter of the MTBF, or 1 without crashes.
func (sp Spec) windowLen() float64 {
	if sp.MTBF > 0 {
		return sp.MTBF / 4
	}
	return 1
}

// NewPlan generates the deterministic fault schedule of a spec. The same
// spec always yields the same plan.
func NewPlan(sp Spec) (*Plan, error) {
	if sp.Ranks <= 0 {
		return nil, fmt.Errorf("fault: Spec.Ranks must be positive")
	}
	if sp.Horizon <= 0 {
		return nil, fmt.Errorf("fault: Spec.Horizon must be positive")
	}
	m := sp.Machine
	if m == nil {
		m = cluster.ARCHER2()
	}
	nodes := m.Nodes(sp.Ranks)
	rng := rand.New(rand.NewSource(sp.Seed))
	p := &Plan{DetectionLatency: sp.DetectionLatency}
	if sp.MTBF > 0 {
		for t := 0.0; len(p.Crashes) < maxEvents; {
			if sp.Periodic {
				t += sp.MTBF
			} else {
				t += rng.ExpFloat64() * sp.MTBF
			}
			if t >= sp.Horizon {
				break
			}
			p.Crashes = append(p.Crashes, Crash{Rank: rng.Intn(sp.Ranks), At: t})
		}
	}
	if sp.StragglerEvery > 0 {
		length := sp.windowLen()
		for t := 0.0; len(p.Stragglers) < maxEvents; {
			t += rng.ExpFloat64() * sp.StragglerEvery
			if t >= sp.Horizon {
				break
			}
			p.Stragglers = append(p.Stragglers, Straggler{
				Node: rng.Intn(nodes), Factor: stragglerFactor, From: t, To: t + length,
			})
		}
	}
	if sp.LinkEvery > 0 {
		length := sp.windowLen()
		for t := 0.0; len(p.LinkFaults) < maxEvents; {
			t += rng.ExpFloat64() * sp.LinkEvery
			if t >= sp.Horizon {
				break
			}
			p.LinkFaults = append(p.LinkFaults, LinkFault{
				Node: rng.Intn(nodes), From: t, To: t + length, Alpha: linkAlpha, Beta: linkBeta,
			})
		}
	}
	sort.Slice(p.Crashes, func(a, b int) bool { return p.Crashes[a].At < p.Crashes[b].At })
	return p, nil
}

// YoungInterval is Young's first-order optimal checkpoint interval
// sqrt(2 * C * MTBF) for a per-checkpoint cost C, the optimum the
// resilience experiment's sweep reproduces.
func YoungInterval(ckptCost, mtbf float64) float64 {
	if ckptCost <= 0 || mtbf <= 0 {
		return 0
	}
	return math.Sqrt(2 * ckptCost * mtbf)
}
