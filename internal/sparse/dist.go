package sparse

import (
	"fmt"
	"sort"

	"cpx/internal/cluster"
	"cpx/internal/mpi"
	"cpx/internal/scratch"
)

// Dist is a distributed sparse matrix in row-block form: rank r owns the
// contiguous global rows [RowLo, RowHi). Off-block column references are
// satisfied by a halo exchange whose send/recv lists are computed once at
// construction, the communication pattern at the heart of distributed
// SpMV and the AMG solve phases the paper profiles. A Dist belongs to
// the rank that built it.
type Dist struct {
	Comm         *mpi.Comm
	N            int // global dimension (square matrices)
	RowLo, RowHi int

	// Local holds the owned rows with renumbered columns: owned columns
	// come first as [0, RowHi-RowLo), halo columns follow in the order of
	// haloGlobals.
	Local       *CSR
	haloGlobals []int

	// Halo exchange pattern.
	nbrs     []int   // peer ranks, sorted
	sendIdx  [][]int // local x indices to pack per peer
	recvOffs [][]int // halo slot per incoming value per peer

	// MulVec's owned-plus-halo operand, and Exchange's send buffers and
	// receive slots, one per peer, sized on first use and reused by every
	// later call.
	ext      []float64
	sendBufs [][]float64
	recvd    [][]float64

	// WorkScale multiplies the virtual compute charged per kernel so a
	// scaled-down working set can stand in for the true problem size.
	WorkScale float64
	// Tag is the base mpi tag used by this matrix's exchanges.
	Tag int
}

// OwnedRows returns the number of rows this rank owns.
func (d *Dist) OwnedRows() int { return d.RowHi - d.RowLo }

// rowRange gives the even row split used by NewDistFromGlobal.
func rowRange(n, p, r int) (lo, hi int) { return r * n / p, (r + 1) * n / p }

// ownerOf returns the rank owning global row g under the even split.
func ownerOf(n, p, g int) int {
	// Invert g = r*n/p approximately, then fix up.
	r := g * p / n
	for lo, _ := rowRange(n, p, r); lo > g; lo, _ = rowRange(n, p, r) {
		r--
	}
	for _, hi := rowRange(n, p, r); hi <= g; _, hi = rowRange(n, p, r) {
		r++
	}
	return r
}

// NewDistFromGlobal builds the distributed form of a square global matrix.
// Every rank passes the same global matrix (convenient for tests and for
// mini-app setup where the global operator is generated analytically);
// only the owned rows are retained. Collective over c.
func NewDistFromGlobal(c *mpi.Comm, global *CSR, tag int) *Dist {
	if global.Rows != global.Cols {
		panic("sparse: NewDistFromGlobal requires a square matrix")
	}
	n, p, r := global.Rows, c.Size(), c.Rank()
	lo, hi := rowRange(n, p, r)
	d := &Dist{Comm: c, N: n, RowLo: lo, RowHi: hi, WorkScale: 1, Tag: tag}

	// Collect the halo: off-block global columns referenced by owned rows.
	need := map[int]bool{}
	for i := lo; i < hi; i++ {
		for k := global.RowPtr[i]; k < global.RowPtr[i+1]; k++ {
			cIdx := global.ColIdx[k]
			if cIdx < lo || cIdx >= hi {
				need[cIdx] = true
			}
		}
	}
	d.haloGlobals = make([]int, 0, len(need))
	for g := range need {
		d.haloGlobals = append(d.haloGlobals, g)
	}
	sort.Ints(d.haloGlobals)
	haloLocal := make(map[int]int, len(d.haloGlobals))
	for i, g := range d.haloGlobals {
		haloLocal[g] = (hi - lo) + i
	}

	// Localise the owned rows.
	own := hi - lo
	rowPtr := make([]int, own+1)
	var colIdx []int
	var val []float64
	for i := lo; i < hi; i++ {
		for k := global.RowPtr[i]; k < global.RowPtr[i+1]; k++ {
			g := global.ColIdx[k]
			if g >= lo && g < hi {
				colIdx = append(colIdx, g-lo)
			} else {
				colIdx = append(colIdx, haloLocal[g])
			}
			val = append(val, global.Val[k])
		}
		rowPtr[i-lo+1] = len(colIdx)
	}
	d.Local = &CSR{Rows: own, Cols: own + len(d.haloGlobals), RowPtr: rowPtr, ColIdx: colIdx, Val: val}

	// Build the exchange pattern: tell each owner which of its rows we
	// need, and learn which of our rows others need. Row indices travel
	// as float64, which holds them exactly.
	requests := make([][]float64, p)
	recvSlots := make([][]int, p) // halo slot per requested global, per peer
	for slot, g := range d.haloGlobals {
		owner := ownerOf(n, p, g)
		requests[owner] = append(requests[owner], float64(g))
		recvSlots[owner] = append(recvSlots[owner], own+slot)
	}
	granted := c.Alltoallv(requests)
	for peer := 0; peer < p; peer++ {
		wantsFromUs := granted[peer]
		if len(wantsFromUs) == 0 && len(requests[peer]) == 0 {
			continue
		}
		d.nbrs = append(d.nbrs, peer)
		idxs := make([]int, len(wantsFromUs))
		for i, gf := range wantsFromUs {
			g := int(gf)
			if g < lo || g >= hi {
				panic(fmt.Sprintf("sparse: rank %d asked rank %d for row %d it does not own", peer, r, g))
			}
			idxs[i] = g - lo
		}
		d.sendIdx = append(d.sendIdx, idxs)
		d.recvOffs = append(d.recvOffs, recvSlots[peer])
	}
	return d
}

// Exchange fills ext's halo region from neighbouring ranks. ext must have
// length Local.Cols (the owned rows, then the halo) with the owned values
// already in place.
// Sends copy their payload, so the send buffers are the Dist's own;
// each received payload goes back to the runtime once unpacked.
func (d *Dist) Exchange(ext []float64) {
	if len(ext) != d.Local.Cols {
		panic(fmt.Sprintf("sparse: Exchange buffer length %d, want %d", len(ext), d.Local.Cols))
	}
	if len(d.sendBufs) != len(d.sendIdx) {
		d.sendBufs = make([][]float64, len(d.sendIdx))
		d.recvd = make([][]float64, len(d.sendIdx))
	}
	for i, idxs := range d.sendIdx {
		buf := scratch.Floats(&d.sendBufs[i], len(idxs))
		for k, idx := range idxs {
			buf[k] = ext[idx]
		}
	}
	d.Comm.HaloExchange(d.Tag, d.nbrs, d.sendBufs, d.recvd)
	for i, offs := range d.recvOffs {
		for k, off := range offs {
			ext[off] = d.recvd[i][k]
		}
		d.Comm.Release(d.recvd[i])
		d.recvd[i] = nil
	}
}

// MulVec computes y = A x where x and y are the rank's owned slices.
// Performs the halo exchange and charges the virtual compute cost.
func (d *Dist) MulVec(x, y []float64) {
	ext := scratch.Floats(&d.ext, d.Local.Cols)
	copy(ext, x)
	d.Exchange(ext)
	d.Local.MulVec(ext, y)
	f, b := d.Local.MulVecWork()
	d.Comm.Compute(cluster.Work{Flops: f * d.WorkScale, Bytes: b * d.WorkScale})
}

// Dot returns the global dot product of owned slices a and b.
func (d *Dist) Dot(a, b []float64) float64 { return Dot(d.Comm, a, b, d.WorkScale) }

// Dot returns the inner product of a distributed pair of vectors: each
// rank of c passes its owned slices a and b and gets the sum over all
// ranks. Each rank charges its 2n flops and 16n bytes, times scale.
func Dot(c *mpi.Comm, a, b []float64, scale float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	c.Compute(cluster.Work{Flops: 2 * float64(len(a)) * scale, Bytes: 16 * float64(len(a)) * scale})
	return c.AllreduceScalar(s, mpi.Sum)
}
