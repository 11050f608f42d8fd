package simpic

import (
	"fmt"

	"cpx/internal/cluster"
	"cpx/internal/mpi"
)

// The 1-D Poisson solve phi'' = -rho (eps0 = 1) is discretised on grid
// nodes 0..N with Dirichlet walls phi[0] = phi[N] = 0, giving the
// tridiagonal system (-1, 2, -1) phi = dx^2 rho at the interior nodes.
//
// In parallel the domain is sliced into contiguous node ranges and solved
// directly with a substructuring method (Wang's algorithm family): every
// rank eliminates its interior unknowns with three local Thomas solves,
// the interface unknowns (first node of each rank r > 0) form a reduced
// tridiagonal system of size P-1 solved by distributed parallel cyclic
// reduction (log2 P rounds of small neighbour exchanges), and interiors
// are recovered by back-substitution. The log-depth exchange chain plus
// the per-step reductions are the field solver's inherent scaling limit.

// fieldSolver holds the per-rank decomposition of the Poisson problem.
type fieldSolver struct {
	comm *mpi.Comm
	n    int // global cells; nodes 0..n
	lo   int // first owned node (wall nodes never owned)
	hi   int // one past last owned node
	// Interface bookkeeping: rank r > 0 owns the interface node lo; its
	// interior segment is [segLo, hi).
	segLo int
	// cellScale is the rank's true/simulated cell ratio. The segment
	// solves' charges are multiplied by it although m is already the
	// true segment length, so a capped rank is charged cellScale times
	// its solve (see New).
	cellScale float64
	tag       int

	// The segment's factors, shared read-only by every rank of the run
	// whose segment has the same length.
	*segment

	// phi is the solver's own potential (Solve returns it and the Sim
	// caches it across sub-cycled steps); resp and one are send buffers.
	// All are reused by every Solve.
	phi  []float64
	resp [6]float64
	one  [1]float64
}

// segment is what depends only on a segment's length m: the Thomas
// forward factors of the constant (-1, 2, -1) operator (pivot and
// eliminated superdiagonal per row) and the segment's two harmonic
// responses, to a unit value just left of it (yL) and just right of it
// (yR). Nothing writes it after newSegment returns, so the run builds
// one per length (mpi.Shared, DESIGN.md §5.12).
type segment struct {
	pivot, cp []float64
	yL, yR    []float64
}

// segmentKey keys a segment's factors in the run's memo (mpi.Shared).
type segmentKey struct{ m int }

// newSegment factors the operator on a segment of m >= 1 interior nodes
// and solves for its two harmonic responses.
func newSegment(m int) *segment {
	sg := &segment{pivot: make([]float64, m), cp: make([]float64, m)}
	sg.pivot[0], sg.cp[0] = 2, -0.5
	for i := 1; i < m; i++ {
		sg.pivot[i] = 2 + sg.cp[i-1]
		sg.cp[i] = -1 / sg.pivot[i]
	}
	sg.yL, sg.yR = make([]float64, m), make([]float64, m)
	sg.yL[0], sg.yR[m-1] = 1, 1
	sg.solveSegment(sg.yL)
	sg.solveSegment(sg.yR)
	return sg
}

// newFieldSolver sets up the node ownership for the global problem of n
// cells across the communicator. Each rank must own at least 2 nodes.
func newFieldSolver(c *mpi.Comm, n int, cellScale float64, tag int) (*fieldSolver, error) {
	p, r := c.Size(), c.Rank()
	if n < 2*p {
		return nil, fmt.Errorf("simpic: %d cells cannot be split over %d ranks (need >= 2 per rank)", n, p)
	}
	lo := r * n / p
	hi := (r + 1) * n / p
	if r == 0 {
		lo = 1 // node 0 is the wall
	}
	if r == p-1 {
		hi = n // node n is the wall; own up to n-1
	}
	segLo := lo
	if r > 0 {
		segLo = lo + 1 // node lo is this rank's interface unknown
	}
	m := hi - segLo
	fs := &fieldSolver{comm: c, n: n, lo: lo, hi: hi, segLo: segLo, cellScale: cellScale, tag: tag,
		segment: mpi.Shared(c, segmentKey{m}, func() *segment { return newSegment(m) })}
	fs.phi = make([]float64, fs.ownedNodes())
	return fs, nil
}

// solveSegment solves the segment's (-1, 2, -1) system in place: d holds
// the right-hand side on entry and the solution on return. It is the
// Thomas algorithm with the operator's forward elimination taken from
// sg.pivot and sg.cp, leaving the right-hand side's own sweep and the
// back-substitution.
//
//perf:hotpath
func (sg *segment) solveSegment(d []float64) {
	d[0] /= sg.pivot[0]
	for i := 1; i < len(d); i++ {
		d[i] = (d[i] + d[i-1]) / sg.pivot[i]
	}
	for i := len(d) - 2; i >= 0; i-- {
		d[i] -= sg.cp[i] * d[i+1]
	}
}

func (fs *fieldSolver) ownedNodes() int { return fs.hi - fs.lo }

// pcr solves the distributed interface tridiagonal system by parallel
// cyclic reduction. Ranks 1..p-1 each own one equation
// a*v_{r-1} + b*v_r + c*v_{r+1} = d; every round doubles the coupling
// stride with one 4-double exchange per direction, and out-of-range
// neighbours act as identity equations. Returns v_r. Must be called by
// exactly the ranks 1..p-1.
func (fs *fieldSolver) pcr(a, b, c, d float64) float64 {
	p, r := fs.comm.Size(), fs.comm.Rank()
	np := p - 1
	for s := 1; s < np; s *= 2 {
		lo, hi := r-s, r+s
		eq := []float64{a, b, c, d}
		if lo >= 1 {
			fs.comm.Send(lo, fs.tag+2, eq)
		}
		if hi <= p-1 {
			fs.comm.Send(hi, fs.tag+2, eq)
		}
		la, lb, lc, ld := 0.0, 1.0, 0.0, 0.0
		ua, ub, uc, ud := 0.0, 1.0, 0.0, 0.0
		if lo >= 1 {
			e, _, _ := fs.comm.Recv(lo, fs.tag+2)
			la, lb, lc, ld = e[0], e[1], e[2], e[3]
			fs.comm.Release(e)
		}
		if hi <= p-1 {
			e, _, _ := fs.comm.Recv(hi, fs.tag+2)
			ua, ub, uc, ud = e[0], e[1], e[2], e[3]
			fs.comm.Release(e)
		}
		alpha := a / lb
		gamma := c / ub
		a, c = -alpha*la, -gamma*uc
		b = b - alpha*lc - gamma*ua
		d = d - alpha*ld - gamma*ud
		fs.comm.Compute(cluster.Work{Flops: 16, Bytes: 64})
	}
	return d / b
}

// Solve computes phi at the owned nodes from the owned right-hand side
// f[i] = dx^2 * rho[i] (indexed from fs.lo). Returns phi over the owned
// range plus the two ghost nodes (phi[lo-1] and phi[hi]) needed for the
// E-field stencil, as (phiOwned, ghostLeft, ghostRight). phiOwned is the
// solver's own vector, overwritten by the next Solve. Solve overwrites
// its argument: the segment f[segLo-lo:] is solved in place, so on
// return it holds the particular solution, not the right-hand side.
//
//perf:hotpath
func (fs *fieldSolver) Solve(f []float64) (phi []float64, ghostL, ghostR float64) {
	if len(f) != fs.ownedNodes() {
		panic(fmt.Sprintf("simpic: Solve rhs length %d, want %d", len(f), fs.ownedNodes())) //lint:allow hotalloc a caller's bug, off the steady-state path
	}
	p, r := fs.comm.Size(), fs.comm.Rank()

	// Local segment solves: the particular solution, in place in f; the
	// two harmonic responses are the set-up's (every rank of the modelled
	// machine solves all three each step, and is charged for all three).
	// f[0], the interface node's right-hand side for r > 0, lies outside
	// the segment and is read below.
	m := fs.hi - fs.segLo
	y0, yL, yR := f[fs.segLo-fs.lo:], fs.yL, fs.yR
	fs.solveSegment(y0)
	fs.comm.Compute(cluster.Work{Flops: 6 * float64(m) * fs.cellScale, Bytes: 30 * float64(m) * fs.cellScale})

	// The interface unknowns v_i (i = 1..p-1, owned by rank i at node
	// lo(i)) form a strictly diagonally dominant tridiagonal system.
	// Each rank assembles its own equation from the left neighbour's
	// segment responses (one neighbour message), then the system is
	// solved with distributed parallel cyclic reduction: ceil(log2(p-1))
	// rounds of stride-doubling 4-double exchanges. This is the
	// logarithmic-depth substructuring that keeps the field solve from
	// becoming an O(p) serial fraction.
	var uL, uR float64
	if p > 1 {
		// Segment responses travel one rank to the right.
		if r < p-1 {
			fs.resp = [6]float64{y0[0], y0[m-1], yL[0], yL[m-1], yR[0], yR[m-1]}
			fs.comm.Send(r+1, fs.tag+1, fs.resp[:])
		}
		if r > 0 {
			left, _, _ := fs.comm.Recv(r-1, fs.tag+1)
			// Equation: a*v_{r-1} + b*v_r + c*v_{r+1} = d.
			a := -left[3]            // left segment's yL response at its last node
			b := 2 - left[5] - yL[0] // minus yR(left, last) and own yL(first)
			c := -yR[0]
			dRHS := f[0] + left[1] + y0[0]
			fs.comm.Release(left)
			if r == 1 {
				a = 0 // previous boundary is the wall
			}
			if r == p-1 {
				c = 0 // next boundary is the wall
			}
			uL = fs.pcr(a, b, c, dRHS)
		}
		// Each rank needs v_{r+1} too (the right ghost of its segment).
		if r > 0 {
			fs.one[0] = uL
			fs.comm.Send(r-1, fs.tag+3, fs.one[:])
		}
		if r < p-1 {
			d, _, _ := fs.comm.Recv(r+1, fs.tag+3)
			uR = d[0]
			fs.comm.Release(d)
		}
	}
	phi = fs.phi
	if r > 0 {
		phi[0] = uL // the owned interface node
	}
	for i := 0; i < m; i++ {
		phi[fs.segLo-fs.lo+i] = y0[i] + uL*yL[i] + uR*yR[i]
	}
	fs.comm.Compute(cluster.Work{Flops: 2 * float64(m) * fs.cellScale, Bytes: 12 * float64(m) * fs.cellScale})

	// Ghosts for the E-field stencil. The right ghost (node hi) is the
	// next rank's interface unknown, already known from the reduced
	// solve; the left ghost (node lo-1) is the left neighbour's last
	// owned node and travels by one neighbour message.
	ghostL, ghostR = 0.0, 0.0 // walls by default
	if r < p-1 {
		ghostR = uR
		fs.one[0] = phi[len(phi)-1]
		fs.comm.Send(r+1, fs.tag, fs.one[:])
	}
	if r > 0 {
		d, _, _ := fs.comm.Recv(r-1, fs.tag)
		ghostL = d[0]
		fs.comm.Release(d)
	}
	return phi, ghostL, ghostR
}
