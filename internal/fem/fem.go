package fem

import (
	"fmt"
	"math"

	"cpx/internal/amg"
	"cpx/internal/cluster"
	"cpx/internal/mpi"
	"cpx/internal/scratch"
	"cpx/internal/sparse"
)

// Fixed casing geometry, heat capacity and time-step: a shell of unit
// radius and length 2, unit density*specific-heat, and an implicit
// time-step of 0.01.
const (
	radius float64 = 1
	length float64 = 2
	rhoC   float64 = 1
	dt     float64 = 0.01
)

// Config describes a casing thermal problem.
type Config struct {
	// Shell discretisation: NAxial x NCirc quadrilateral elements.
	NAxial, NCirc int
	// Conductivity of the casing material (default 1).
	Conductivity float64
	Steps        int
	Seed         int64
}

func (c Config) withDefaults() Config {
	if c.Conductivity == 0 {
		c.Conductivity = 1
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NAxial < 2 || c.NCirc < 3 {
		return fmt.Errorf("fem: shell needs at least 2x3 elements, got %dx%d", c.NAxial, c.NCirc)
	}
	if c.Steps < 1 {
		return fmt.Errorf("fem: need at least one step")
	}
	// The casing system is assembled globally (shells are small compared
	// to the flow meshes); keep that tractable.
	if int64(c.NumNodes()) > 2_000_000 {
		return fmt.Errorf("fem: shell of %d nodes too large for global assembly (max 2M)", c.NumNodes())
	}
	return nil
}

// NumNodes returns the node count of the shell: (NAxial+1) axial rings of
// NCirc nodes (periodic in the circumferential direction).
func (c Config) NumNodes() int { return (c.NAxial + 1) * c.NCirc }

// nodeID flattens (axial ring i, circumferential j) with periodic wrap.
func (c Config) nodeID(i, j int) int {
	j = ((j % c.NCirc) + c.NCirc) % c.NCirc
	return i*c.NCirc + j
}

// quadStiffness returns the 4x4 element stiffness of a bilinear quad of
// size a x b with conductivity k, from the standard closed-form
// integration of grad(Ni).grad(Nj) over the element.
func quadStiffness(a, b, k float64) [4][4]float64 {
	// Closed form for a rectangle (local nodes: 00,10,11,01):
	// K = k/(6ab) * [ 2(a^2+b^2) ...] — derived from the bilinear shape
	// functions; symmetric with zero row sums.
	r := a / b
	s := b / a
	k1 := k / 6 * (2*r + 2*s)
	k2 := k / 6 * (r - 2*s)
	k3 := k / 6 * (-r - s)
	k4 := k / 6 * (-2*r + s)
	return [4][4]float64{
		{k1, k4, k3, k2},
		{k4, k1, k2, k3},
		{k3, k2, k1, k4},
		{k2, k3, k4, k1},
	}
}

// Assemble builds the global stiffness matrix K and the lumped mass
// vector M for the shell.
func Assemble(cfg Config) (*sparse.CSR, []float64) {
	cfg = cfg.withDefaults()
	n := cfg.NumNodes()
	// Element dimensions on the developed (unrolled) shell surface.
	a := length / float64(cfg.NAxial)              // axial
	b := 2 * math.Pi * radius / float64(cfg.NCirc) // circumferential
	ke := quadStiffness(a, b, cfg.Conductivity)
	var ri, ci []int
	var v []float64
	mass := make([]float64, n)
	elemMass := rhoC * a * b / 4 // lumped
	for i := 0; i < cfg.NAxial; i++ {
		for j := 0; j < cfg.NCirc; j++ {
			nodes := [4]int{
				cfg.nodeID(i, j), cfg.nodeID(i+1, j),
				cfg.nodeID(i+1, j+1), cfg.nodeID(i, j+1),
			}
			for p := 0; p < 4; p++ {
				mass[nodes[p]] += elemMass
				for q := 0; q < 4; q++ {
					ri = append(ri, nodes[p])
					ci = append(ci, nodes[q])
					v = append(v, ke[p][q])
				}
			}
		}
	}
	return sparse.FromCOO(n, n, ri, ci, v), mass
}

// AssembleWork estimates the roofline cost of one assembly pass.
func AssembleWork(cfg Config) cluster.Work {
	elems := float64(cfg.NAxial * cfg.NCirc)
	return cluster.Work{Flops: 200 * elems, Bytes: 600 * elems}
}

// Solver is the per-rank transient thermal solver state.
type Solver struct {
	comm *mpi.Comm
	cfg  Config

	dist *sparse.Dist // system matrix M/dt + K, row-block distributed
	amgS *amg.DistSolver
	mass []float64 // owned lumped masses / dt
	T    []float64 // owned temperatures
	Q    []float64 // owned heat loads

	boundary []float64 // BoundarySample's buffer, refilled every call

	// LastIterations is the CG iteration count of the latest step.
	LastIterations int
}

// New assembles and distributes the thermal system. Collective over c.
func New(c *mpi.Comm, cfg Config) (*Solver, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k, mass := Assemble(cfg)
	c.Compute(AssembleWork(cfg))
	// System matrix A = M/dt + K (backward Euler); anchored by the mass
	// term, so A is SPD even though pure-Neumann K is singular.
	n := k.Rows
	var ri, ci []int
	var v []float64
	for i := 0; i < n; i++ {
		ri = append(ri, i)
		ci = append(ci, i)
		v = append(v, mass[i]/dt)
	}
	a := sparse.Add(k, sparse.FromCOO(n, n, ri, ci, v), 1, 1)
	d := sparse.NewDistFromGlobal(c, a, 70)
	s := &Solver{comm: c, cfg: cfg, dist: d}
	solver, err := amg.NewDistSolver(d, amg.DefaultOptions())
	if err != nil {
		return nil, err
	}
	s.amgS = solver
	own := d.OwnedRows()
	s.mass = make([]float64, own)
	for i := 0; i < own; i++ {
		s.mass[i] = mass[d.RowLo+i] / dt
	}
	s.T = make([]float64, own)
	s.Q = make([]float64, own)
	// Initial condition: ambient temperature 300 with a seeded ripple.
	for i := range s.T {
		s.T[i] = 300 + 0.1*math.Sin(float64(d.RowLo+i)*0.01+float64(cfg.Seed))
	}
	return s, nil
}

// Step advances one implicit time-step, returning the CG iterations used.
func (s *Solver) Step() (int, error) {
	own := len(s.T)
	rhs := make([]float64, own)
	for i := 0; i < own; i++ {
		rhs[i] = s.mass[i]*s.T[i] + s.Q[i]
	}
	res := s.amgS.Solve(rhs, s.T, 1e-8, 500)
	if !res.Converged {
		return res.Iterations, fmt.Errorf("fem: thermal solve stalled at residual %.2e", res.Residual)
	}
	s.LastIterations = res.Iterations
	return res.Iterations, nil
}

// BoundarySample extracts n wall-temperature values for coupling
// transfers (cycling over owned nodes), into a buffer the solver keeps:
// the next call overwrites it.
//
//perf:hotpath
func (s *Solver) BoundarySample(n int) []float64 {
	out := scratch.Floats(&s.boundary, n)
	if len(s.T) == 0 {
		clear(out)
		return out
	}
	for i := range out {
		out[i] = s.T[i%len(s.T)]
	}
	return out
}

// AbsorbBoundary converts received near-wall gas temperatures into heat
// loads on the inner casing surface (convective flux h*(Tgas - Twall)).
func (s *Solver) AbsorbBoundary(vals []float64) {
	const h = 0.05 // convective film coefficient (model units)
	for i, tg := range vals {
		if i >= len(s.Q) {
			break
		}
		if tg > 0 && tg < 5000 {
			s.Q[i] = h * (tg - s.T[i])
		}
	}
}
