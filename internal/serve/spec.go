package serve

import (
	"fmt"

	"cpx/internal/coupler"
	"cpx/internal/particle"
	"cpx/internal/perfmodel"
)

// maxRanks bounds each instance's and unit's rank count and their
// total: above the full-engine scale (40,000 cores), and far below the
// counts at which per-rank state would exhaust the host.
const maxRanks = 1 << 16

// InstanceSpec describes one application instance (the cpxsim schema).
// The droplets/strategy/coneFraction/imbalanceThreshold fields apply
// only to kind "particle" (dedicated particle ranks partitioned
// independently of any mesh) and are rejected on other kinds.
type InstanceSpec struct {
	Name      string `json:"name"`
	Kind      string `json:"kind"` // "mgcfd" | "simpic" | "fem" | "particle"
	MeshCells int64  `json:"meshCells"`
	Ranks     int    `json:"ranks"`
	Seed      int64  `json:"seed"`
	// Droplets is the true droplet population of a particle instance
	// (default MeshCells/4, the paper's 7M droplets per 28M cells).
	Droplets int64 `json:"droplets,omitempty"`
	// Strategy selects the particle load balancer: "static" (default),
	// "steal" or "repartition".
	Strategy string `json:"strategy,omitempty"`
	// ConeFraction is the injection-cone volume fraction (default 0.25).
	ConeFraction float64 `json:"coneFraction,omitempty"`
	// ImbalanceThreshold triggers a repartition when max/mean droplet
	// load crosses it (strategy "repartition"; default 1.5, must be >= 1).
	ImbalanceThreshold float64 `json:"imbalanceThreshold,omitempty"`
}

// UnitSpec describes one coupling unit (the cpxsim schema).
type UnitSpec struct {
	Name          string `json:"name"`
	A             int    `json:"a"`
	BIdx          int    `json:"b"`
	Kind          string `json:"kind"` // "sliding" | "steady"
	Points        int    `json:"points"`
	Ranks         int    `json:"ranks"`
	Search        string `json:"search"` // "brute" | "tree" | "prefetch"
	ExchangeEvery int    `json:"exchangeEvery"`
}

// SimSpec is the JSON description of a coupled simulation — the same
// schema cpxsim reads with -config, accepted verbatim by POST
// /v1/simulate.
type SimSpec struct {
	DensitySteps    int            `json:"densitySteps"`
	RotationPerStep float64        `json:"rotationPerStep"`
	Instances       []InstanceSpec `json:"instances"`
	Units           []UnitSpec     `json:"units"`
}

// Build translates the JSON spec into a coupler.Simulation at
// production scale.
func (sp *SimSpec) Build() (*coupler.Simulation, error) {
	sim := &coupler.Simulation{
		DensitySteps:    sp.DensitySteps,
		RotationPerStep: sp.RotationPerStep,
		Scale:           coupler.ProductionScale(),
	}
	for _, ji := range sp.Instances {
		if err := checkRanks("instance", ji.Name, ji.Ranks); err != nil {
			return nil, err
		}
		kind, err := coupler.ParseSolverKind(ji.Kind)
		if err != nil {
			return nil, fmt.Errorf("instance %q: field \"kind\": %w", ji.Name, err)
		}
		is := coupler.InstanceSpec{
			Name: ji.Name, Kind: kind, MeshCells: ji.MeshCells, Ranks: ji.Ranks, Seed: ji.Seed,
		}
		if kind == coupler.KindParticle {
			strategy, err := particle.ParseStrategy(ji.Strategy)
			if err != nil {
				return nil, fmt.Errorf("instance %q: field \"strategy\": %w", ji.Name, err)
			}
			if ji.Droplets < 0 {
				return nil, fmt.Errorf("instance %q: field \"droplets\" must be non-negative, got %d", ji.Name, ji.Droplets)
			}
			if ji.ImbalanceThreshold != 0 && ji.ImbalanceThreshold < 1 {
				return nil, fmt.Errorf("instance %q: field \"imbalanceThreshold\" must be >= 1, got %v", ji.Name, ji.ImbalanceThreshold)
			}
			if ji.ConeFraction < 0 || ji.ConeFraction > 1 {
				return nil, fmt.Errorf("instance %q: field \"coneFraction\" must be in [0,1], got %v", ji.Name, ji.ConeFraction)
			}
			is.Particle = &particle.Config{
				Droplets: ji.Droplets, ConeFraction: ji.ConeFraction,
				Strategy: strategy, ImbalanceThreshold: ji.ImbalanceThreshold,
			}
		} else {
			for _, f := range []struct {
				field string
				set   bool
			}{
				{"droplets", ji.Droplets != 0},
				{"strategy", ji.Strategy != ""},
				{"coneFraction", ji.ConeFraction != 0},
				{"imbalanceThreshold", ji.ImbalanceThreshold != 0},
			} {
				if f.set {
					field := f.field
					return nil, fmt.Errorf("instance %q: field %q applies only to kind \"particle\", not %q", ji.Name, field, ji.Kind)
				}
			}
		}
		sim.Instances = append(sim.Instances, is)
	}
	for _, ju := range sp.Units {
		if err := checkRanks("unit", ju.Name, ju.Ranks); err != nil {
			return nil, err
		}
		kind, err := coupler.ParseInterfaceKind(ju.Kind)
		if err != nil {
			return nil, fmt.Errorf("unit %q: field \"kind\": %w", ju.Name, err)
		}
		search, err := coupler.ParseSearch(ju.Search)
		if err != nil {
			return nil, fmt.Errorf("unit %q: field \"search\": %w", ju.Name, err)
		}
		sim.Units = append(sim.Units, coupler.UnitSpec{
			Name: ju.Name, A: ju.A, B: ju.BIdx, Kind: kind, Points: ju.Points,
			Ranks: ju.Ranks, Search: search, ExchangeEvery: ju.ExchangeEvery,
		})
	}
	if n := sim.TotalRanks(); n > maxRanks {
		return nil, fmt.Errorf("field \"ranks\": instances and units total %d, above %d", n, maxRanks)
	}
	return sim, nil
}

// checkRanks bounds one instance's or unit's rank count.
func checkRanks(what, name string, ranks int) error {
	if ranks < 0 || ranks > maxRanks {
		return fmt.Errorf("%s %q: field \"ranks\" must be in [0, %d], got %d", what, name, maxRanks, ranks)
	}
	return nil
}

// ApplySeed offsets every instance's setup seed, replaying the whole
// coupled run bitwise-identically for the same offset (the cpxsim
// -seed semantics).
func (sp *SimSpec) ApplySeed(offset int64) {
	for i := range sp.Instances {
		sp.Instances[i].Seed += offset
	}
}

// SampleSpec is one benchmark observation used to fit a PE curve.
type SampleSpec struct {
	Cores   int     `json:"cores"`
	Runtime float64 `json:"runtime"` // seconds
}

// CurveSpec is an explicit fitted curve, accepted instead of samples
// when the caller already knows the knee parameters.
type CurveSpec struct {
	BaseCores int     `json:"baseCores"`
	BaseTime  float64 `json:"baseTime"`
	P50       float64 `json:"p50"`
	K         float64 `json:"k"`
}

// ComponentSpec describes one component for the Algorithm 1 allocation
// (an element of AllocateRequest.Components). Exactly one of Samples
// (fit a curve) or Curve (use as given) must be set.
type ComponentSpec struct {
	Name      string       `json:"name"`
	IsCU      bool         `json:"isCU"`
	MinRanks  int          `json:"minRanks"`
	SizeRatio float64      `json:"sizeRatio"`
	IterRatio float64      `json:"iterRatio"`
	Samples   []SampleSpec `json:"samples,omitempty"`
	Curve     *CurveSpec   `json:"curve,omitempty"`
}

// Build fits (or adopts) the component's curve and returns the
// perfmodel view of it.
func (cs *ComponentSpec) Build() (perfmodel.Component, error) {
	if err := cs.checkFields(); err != nil {
		return perfmodel.Component{}, err
	}
	var curve *perfmodel.Curve
	switch {
	case cs.Curve != nil && len(cs.Samples) > 0:
		return perfmodel.Component{}, fmt.Errorf("component %q: give samples or an explicit curve, not both", cs.Name)
	case cs.Curve != nil:
		curve = &perfmodel.Curve{
			BaseCores: cs.Curve.BaseCores, BaseTime: cs.Curve.BaseTime,
			P50: cs.Curve.P50, K: cs.Curve.K,
		}
	default:
		samples := make([]perfmodel.Sample, len(cs.Samples))
		for i, s := range cs.Samples {
			samples[i] = perfmodel.Sample{Cores: s.Cores, Runtime: s.Runtime}
		}
		var err error
		curve, err = perfmodel.FitCurve(samples)
		if err != nil {
			return perfmodel.Component{}, fmt.Errorf("component %q: %w", cs.Name, err)
		}
	}
	return perfmodel.Component{
		Name: cs.Name, Curve: curve, IsCU: cs.IsCU,
		MinRanks: cs.MinRanks, SizeRatio: cs.SizeRatio, IterRatio: cs.IterRatio,
	}, nil
}

// checkFields rejects a curve or ratio the model cannot evaluate: a
// zero or negative base, base time or P50 made a NaN or non-positive
// run-time, and a negative ratio a negative one. A zero ratio still
// means 1 and a zero K a flat efficiency.
func (cs *ComponentSpec) checkFields() error {
	type field struct {
		name     string
		v        float64
		positive bool // else only not negative
	}
	fs := []field{{"sizeRatio", cs.SizeRatio, false}, {"iterRatio", cs.IterRatio, false}}
	if c := cs.Curve; c != nil {
		fs = append(fs, field{"curve.baseCores", float64(c.BaseCores), true}, field{"curve.baseTime", c.BaseTime, true},
			field{"curve.p50", c.P50, true}, field{"curve.k", c.K, false})
	}
	for _, f := range fs {
		if f.positive && !(f.v > 0) {
			return fmt.Errorf("component %q: %s must be positive, got %v", cs.Name, f.name, f.v)
		}
		if f.v < 0 {
			return fmt.Errorf("component %q: %s must not be negative, got %v", cs.Name, f.name, f.v)
		}
	}
	return nil
}

// BuildComponents builds every spec in order.
func BuildComponents(specs []ComponentSpec) ([]perfmodel.Component, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("no components")
	}
	out := make([]perfmodel.Component, len(specs))
	for i := range specs {
		c, err := specs[i].Build()
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// FitRequest is the body of POST /v1/fit.
type FitRequest struct {
	Samples []SampleSpec `json:"samples"`
}

// FitResponse reports the fitted knee and the worst per-sample error.
type FitResponse struct {
	Curve     CurveSpec `json:"curve"`
	MaxRelErr float64   `json:"maxRelErr"`
}

// AllocateRequest is the body of POST /v1/allocate.
type AllocateRequest struct {
	Budget     int             `json:"budget"`
	Components []ComponentSpec `json:"components"`
}

// AllocatedComponent is one row of an allocation result.
type AllocatedComponent struct {
	Name  string  `json:"name"`
	IsCU  bool    `json:"isCU"`
	Cores int     `json:"cores"`
	Time  float64 `json:"time"`
}

// AllocateResponse reports the Algorithm 1 allocation.
type AllocateResponse struct {
	Budget      int                  `json:"budget"`
	Components  []AllocatedComponent `json:"components"`
	Predicted   float64              `json:"predicted"`
	MaxApp      float64              `json:"maxApp"`
	MaxCU       float64              `json:"maxCU"`
	Unallocated int                  `json:"unallocated"`
}

// SpeedupRequest is the body of POST /v1/speedup: allocate the same
// budget to a base and an optimised component set and compare.
type SpeedupRequest struct {
	Budget    int             `json:"budget"`
	Base      []ComponentSpec `json:"base"`
	Optimized []ComponentSpec `json:"optimized"`
}

// SpeedupResponse reports both predictions and their ratio.
type SpeedupResponse struct {
	Budget             int     `json:"budget"`
	BasePredicted      float64 `json:"basePredicted"`
	OptimizedPredicted float64 `json:"optimizedPredicted"`
	Speedup            float64 `json:"speedup"`
}

// SimulateRequest is the body of POST /v1/simulate: a cpxsim scenario
// plus run options.
type SimulateRequest struct {
	SimSpec
	// SeedOffset shifts every instance seed (cpxsim -seed).
	SeedOffset int64 `json:"seedOffset,omitempty"`
}

// ComponentTime is one component's virtual-time outcome.
type ComponentTime struct {
	Name    string  `json:"name"`
	Time    float64 `json:"time"`
	Compute float64 `json:"compute"`
}

// ParticleLoadOut is the load-balancing outcome of one particle
// instance: total droplet migrations, steal traffic, repartition count
// and the final/peak max-mean imbalance.
type ParticleLoadOut struct {
	Name          string  `json:"name"`
	Strategy      string  `json:"strategy"`
	Moved         int     `json:"moved"`
	Stolen        int     `json:"stolen"`
	Granted       int     `json:"granted"`
	Repartitions  int     `json:"repartitions"`
	LastImbalance float64 `json:"lastImbalance"`
	PeakImbalance float64 `json:"peakImbalance"`
}

// SimulateResponse summarises a coupled run.
type SimulateResponse struct {
	Elapsed       float64         `json:"elapsed"`
	DensitySteps  int             `json:"densitySteps"`
	Ranks         int             `json:"ranks"`
	CouplingShare float64         `json:"couplingShare"`
	Instances     []ComponentTime `json:"instances"`
	Units         []ComponentTime `json:"units"`
	// Particles reports the load-balancing outcome of each particle
	// instance (omitted when the simulation has none).
	Particles []ParticleLoadOut `json:"particles,omitempty"`
}

// DemoComponents returns the built-in four-component model scenario:
// three engine rows with synthetic PE samples and one coupling unit.
//
//lint:allow unused the fixture shared by the serve tests and cmd/cpxserve's smoke tests (runSmoke)
func DemoComponents() []ComponentSpec {
	mk := func(name string, base, p50 float64, isCU bool) ComponentSpec {
		truth := perfmodel.Curve{BaseCores: 100, BaseTime: base, P50: p50, K: 1.3}
		var samples []SampleSpec
		for _, p := range []int{100, 200, 400, 800, 1600, 3200} {
			samples = append(samples, SampleSpec{Cores: p, Runtime: truth.Runtime(float64(p))})
		}
		return ComponentSpec{Name: name, IsCU: isCU, MinRanks: 100, Samples: samples}
	}
	return []ComponentSpec{
		mk("compressor row (24M)", 30, 5000, false),
		mk("combustor (380M equiv)", 400, 2500, false),
		mk("turbine row (150M)", 90, 8000, false),
		mk("coupling unit", 0.5, 200, true),
	}
}
