package mesh

import (
	"fmt"
	"math"
	"math/rand"

	"cpx/internal/mpi"
	"cpx/internal/partition"
)

// Dims are the cell dimensions of a structured block.
type Dims struct {
	NI, NJ, NK int
}

// Cells returns the total cell count.
func (d Dims) Cells() int64 { return int64(d.NI) * int64(d.NJ) * int64(d.NK) }

// Nodes returns the vertex count of the block.
func (d Dims) Nodes() int64 { return int64(d.NI+1) * int64(d.NJ+1) * int64(d.NK+1) }

// Coarsen halves each dimension (rounding up, floor 1), the geometric
// multigrid coarsening rule MG-CFD uses.
func (d Dims) Coarsen() Dims {
	h := func(n int) int {
		if n <= 1 {
			return 1
		}
		return (n + 1) / 2
	}
	return Dims{h(d.NI), h(d.NJ), h(d.NK)}
}

// CubeDims returns roughly cubic dimensions holding at least `cells` cells.
// Used to express paper test cases ("28M cells") as blocks.
func CubeDims(cells int64) Dims {
	if cells < 1 {
		cells = 1
	}
	n := int(math.Cbrt(float64(cells)))
	for int64(n)*int64(n)*int64(n) < cells {
		n++
	}
	return Dims{n, n, n}
}

// Box is a half-open cell-index range per axis: [Lo, Hi).
type Box struct {
	Lo, Hi [3]int
}

// Dims returns the box extents as Dims.
func (b Box) Dims() Dims { return Dims{b.Hi[0] - b.Lo[0], b.Hi[1] - b.Lo[1], b.Hi[2] - b.Lo[2]} }

// Decomp is a block decomposition of a global mesh across P = product of
// Grid ranks arranged as a 3-D process grid.
type Decomp struct {
	Dims Dims
	Grid [3]int
}

// NewDecompBestEffort chooses a process grid for p ranks over the global
// dims, minimising the per-rank halo surface. A rank count that cannot be
// factored within the mesh dimensions (e.g. a large prime on a small
// mesh) falls back to the largest decomposable count <= p, and p above
// the cell count to the cell count: the remaining ranks idle, as
// production job scripts do. The caller can compare Ranks() against p to
// see how many ranks participate.
func NewDecompBestEffort(d Dims, p int) (*Decomp, error) {
	if p <= 0 {
		return nil, fmt.Errorf("mesh: decomposition needs positive rank count, got %d", p)
	}
	if int64(p) > d.Cells() {
		p = int(d.Cells())
	}
	for q := p; q >= 1; q-- {
		if grid, err := FactorGrid(q, d); err == nil {
			return &Decomp{Dims: d, Grid: grid}, nil
		}
	}
	return nil, fmt.Errorf("mesh: no decomposition of %+v for any rank count <= %d", d, p)
}

// Keys and values of the run's memo (mpi.Shared) for SharedDecomp.
type (
	decompKey struct {
		dims  Dims
		ranks int
	}
	decomposition struct {
		dc  *Decomp
		err error
	}
)

// SharedDecomp is NewDecompBestEffort(dims, c.Size()), built by the first
// rank of the run to ask and shared read-only by every rank that asks for
// the same dims and size (FactorGrid is O(p), so a build per rank would
// cost O(p²) an instance). It sends no message and charges nothing.
func SharedDecomp(c *mpi.Comm, dims Dims) (*Decomp, error) {
	d := mpi.Shared(c, decompKey{dims, c.Size()}, func() decomposition {
		dc, err := NewDecompBestEffort(dims, c.Size())
		return decomposition{dc, err}
	})
	return d.dc, d.err
}

// FactorGrid factorises p into a 3-D grid (gx, gy, gz), gx*gy*gz = p,
// with each factor no larger than the matching mesh dimension, choosing
// the triple with the smallest per-rank communication surface.
func FactorGrid(p int, d Dims) ([3]int, error) {
	dims := [3]float64{float64(d.NI), float64(d.NJ), float64(d.NK)}
	best := [3]int{-1, -1, -1}
	bestCost := math.Inf(1)
	bestSpread := math.Inf(1)
	for a := 1; a <= p; a++ {
		if p%a != 0 || a > d.NI {
			continue
		}
		q := p / a
		for b := 1; b <= q; b++ {
			if q%b != 0 || b > d.NJ {
				continue
			}
			c := q / b
			if c > d.NK {
				continue
			}
			g := [3]int{a, b, c}
			cost := 0.0
			// Per-rank surface: two faces per split axis.
			lx, ly, lz := dims[0]/float64(a), dims[1]/float64(b), dims[2]/float64(c)
			if a > 1 {
				cost += 2 * ly * lz
			}
			if b > 1 {
				cost += 2 * lx * lz
			}
			if c > 1 {
				cost += 2 * lx * ly
			}
			// Tie-break equal-surface grids toward cube-like local boxes
			// (fewer, larger messages and better cache blocking).
			spread := math.Max(lx, math.Max(ly, lz)) - math.Min(lx, math.Min(ly, lz))
			if cost < bestCost || (cost == bestCost && spread < bestSpread) {
				bestCost = cost
				bestSpread = spread
				best = g
			}
		}
	}
	if best[0] < 0 {
		return best, fmt.Errorf("mesh: cannot factor %d ranks into grid within %+v", p, d)
	}
	return best, nil
}

// Ranks returns the total rank count of the decomposition.
func (dc *Decomp) Ranks() int { return dc.Grid[0] * dc.Grid[1] * dc.Grid[2] }

// Coords returns the process-grid coordinates of a rank (x fastest).
func (dc *Decomp) Coords(rank int) [3]int {
	gx, gy := dc.Grid[0], dc.Grid[1]
	return [3]int{rank % gx, (rank / gx) % gy, rank / (gx * gy)}
}

// Rank is the inverse of Coords.
func (dc *Decomp) Rank(c [3]int) int {
	return (c[2]*dc.Grid[1]+c[1])*dc.Grid[0] + c[0]
}

// chunk splits n cells into g chunks; chunk k covers [k*n/g, (k+1)*n/g).
func chunk(n, g, k int) (lo, hi int) { return k * n / g, (k + 1) * n / g }

// Box returns the cell box owned by a rank.
func (dc *Decomp) Box(rank int) Box {
	c := dc.Coords(rank)
	var b Box
	n := [3]int{dc.Dims.NI, dc.Dims.NJ, dc.Dims.NK}
	for a := 0; a < 3; a++ {
		b.Lo[a], b.Hi[a] = chunk(n[a], dc.Grid[a], c[a])
	}
	return b
}

// Neighbor describes one face-adjacent peer of a rank.
type Neighbor struct {
	Rank      int // peer rank
	Axis      int // 0,1,2 for i,j,k
	Dir       int // -1 or +1
	FaceCells int // cells on the shared face (halo layer size)
}

// FaceCellsAt is the face size at multigrid level lvl: every coarsening
// quarters a face, FaceCells/4^lvl, and a face keeps at least one cell.
func (nb Neighbor) FaceCellsAt(lvl int) int { return max(nb.FaceCells>>(2*lvl), 1) }

// Neighbors lists the face neighbours of a rank (up to 6).
func (dc *Decomp) Neighbors(rank int) []Neighbor {
	c := dc.Coords(rank)
	b := dc.Box(rank)
	d := b.Dims()
	faces := [3]int{d.NJ * d.NK, d.NI * d.NK, d.NI * d.NJ}
	var out []Neighbor
	for a := 0; a < 3; a++ {
		for _, dir := range [2]int{-1, 1} {
			nc := c
			nc[a] += dir
			if nc[a] < 0 || nc[a] >= dc.Grid[a] {
				continue
			}
			out = append(out, Neighbor{
				Rank: dc.Rank(nc), Axis: a, Dir: dir, FaceCells: faces[a],
			})
		}
	}
	return out
}

// FaceIndices lists the flat indices (i fastest, then j, then k) of the
// first (dir < 0) or last (dir > 0) layer along axis of an NI×NJ×NK index
// box, walking the face's other two axes lower axis fastest. The box is
// whatever the caller indexes: cells for the pressure proxy, nodes
// (NI+1, NJ+1, NK+1) for MG-CFD.
func FaceIndices(d Dims, axis, dir int) []int {
	n := [3]int{d.NI, d.NJ, d.NK}
	stride := [3]int{1, d.NI, d.NI * d.NJ}
	u, v := (axis+1)%3, (axis+2)%3
	if u > v {
		u, v = v, u
	}
	base := 0
	if dir > 0 {
		base = (n[axis] - 1) * stride[axis]
	}
	out := make([]int, 0, n[u]*n[v])
	for b := 0; b < n[v]; b++ {
		for a := 0; a < n[u]; a++ {
			out = append(out, base+a*stride[u]+b*stride[v])
		}
	}
	return out
}

// Local is a rank's view of its subdomain: the true box it owns and the
// (possibly capped) working set it actually allocates.
type Local struct {
	Rank      int
	True      Dims    // true owned box extents
	Sim       Dims    // allocated extents (<= True, shape-preserving)
	Scale     float64 // True.Cells() / Sim.Cells(); 1 when uncapped
	Neighbors []Neighbor
}

// Local derives rank's local view. capCells <= 0 disables capping.
func (dc *Decomp) Local(rank, capCells int) *Local {
	b := dc.Box(rank)
	d := b.Dims()
	sim := CapDims(d, capCells)
	scale := 1.0
	if sim != d {
		scale = float64(d.Cells()) / float64(sim.Cells())
	}
	return &Local{
		Rank:      rank,
		True:      d,
		Sim:       sim,
		Scale:     scale,
		Neighbors: dc.Neighbors(rank),
	}
}

// CapDims shrinks dims shape-preservingly so the cell count does not
// exceed capCells (<=0 means no cap). Minimum 1 cell per axis.
func CapDims(d Dims, capCells int) Dims {
	if capCells <= 0 || d.Cells() <= int64(capCells) {
		return d
	}
	f := math.Cbrt(float64(capCells) / float64(d.Cells()))
	shrink := func(n int) int {
		m := int(float64(n) * f)
		if m < 1 {
			m = 1
		}
		return m
	}
	out := Dims{shrink(d.NI), shrink(d.NJ), shrink(d.NK)}
	// The cube-root scaling can overshoot on very thin boxes; trim greedily.
	for out.Cells() > int64(capCells) {
		switch {
		case out.NI >= out.NJ && out.NI >= out.NK && out.NI > 1:
			out.NI--
		case out.NJ >= out.NK && out.NJ > 1:
			out.NJ--
		case out.NK > 1:
			out.NK--
		default:
			return out
		}
	}
	return out
}

// NodeCoords returns jittered node coordinates for a block, giving the
// synthetic mesh an unstructured character (distinct spacings, non-grid
// point locations) for partitioners and coupler searches. Deterministic
// for a given seed.
func NodeCoords(d Dims, jitter float64, seed int64) []partition.Point {
	return NodeCoordsRand(d, jitter, rand.New(rand.NewSource(seed)))
}

// NodeCoordsRand is NodeCoords drawing from an explicit generator, for
// callers that thread one seeded stream through a whole setup phase.
func NodeCoordsRand(d Dims, jitter float64, rng *rand.Rand) []partition.Point {
	ni, nj, nk := d.NI+1, d.NJ+1, d.NK+1
	pts := make([]partition.Point, 0, ni*nj*nk)
	for k := 0; k < nk; k++ {
		for j := 0; j < nj; j++ {
			for i := 0; i < ni; i++ {
				p := partition.Point{
					float64(i) + jitter*(rng.Float64()-0.5),
					float64(j) + jitter*(rng.Float64()-0.5),
					float64(k) + jitter*(rng.Float64()-0.5),
				}
				pts = append(pts, p)
			}
		}
	}
	return pts
}

// InterfaceCells returns the number of cells a coupling interface spans
// when it covers `fraction` of a mesh (the paper: 0.42% for sliding
// planes, 5% for the density-pressure interface).
func InterfaceCells(d Dims, fraction float64) int {
	n := int(float64(d.Cells()) * fraction)
	if n < 1 {
		n = 1
	}
	return n
}
