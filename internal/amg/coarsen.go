package amg

import (
	"fmt"
	"math/rand"

	"cpx/internal/sparse"
)

// Strength computes the strength-of-connection pattern: S[i] lists the
// columns j != i with -a_ij >= theta * max_k(-a_ik), the classical
// negative-coupling test appropriate for the M-matrices that pressure-
// correction discretisations produce.
func Strength(a *sparse.CSR, theta float64) [][]int {
	s := make([][]int, a.Rows)
	for i := 0; i < a.Rows; i++ {
		maxNeg := 0.0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.ColIdx[k] != i && -a.Val[k] > maxNeg {
				maxNeg = -a.Val[k]
			}
		}
		if maxNeg == 0 {
			continue
		}
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			if j != i && -a.Val[k] >= theta*maxNeg {
				s[i] = append(s[i], j)
			}
		}
	}
	return s
}

// Aggregate performs greedy aggregation coarsening (the "aggregate AMG"
// of the production pressure solver): a first pass forms aggregates
// around seed points whose strong neighbourhood is untouched, a second
// pass attaches leftovers to an adjacent aggregate, and a final pass
// makes singleton aggregates from isolated points. Returns the aggregate
// id per fine point and the number of aggregates.
func Aggregate(a *sparse.CSR, strength [][]int) (agg []int, numAgg int) {
	n := a.Rows
	agg = make([]int, n)
	for i := range agg {
		agg[i] = -1
	}
	// Pass 1: seed aggregates.
	for i := 0; i < n; i++ {
		if agg[i] != -1 {
			continue
		}
		free := true
		for _, j := range strength[i] {
			if agg[j] != -1 {
				free = false
				break
			}
		}
		if !free {
			continue
		}
		agg[i] = numAgg
		for _, j := range strength[i] {
			agg[j] = numAgg
		}
		numAgg++
	}
	// Pass 2: attach stragglers to a neighbouring aggregate.
	for i := 0; i < n; i++ {
		if agg[i] != -1 {
			continue
		}
		for _, j := range strength[i] {
			if agg[j] != -1 {
				agg[i] = agg[j]
				break
			}
		}
	}
	// Pass 3: isolated points become singleton aggregates.
	for i := 0; i < n; i++ {
		if agg[i] == -1 {
			agg[i] = numAgg
			numAgg++
		}
	}
	return agg, numAgg
}

// CF marks a point Coarse or Fine in a classical C/F splitting.
type CF int8

// C/F splitting states.
const (
	FPoint CF = iota
	CPoint
)

// PMIS computes a parallel-maximal-independent-set C/F splitting with
// deterministic seeded tie-breaking weights, the splitting used with
// distance-two interpolation in large-scale AMG [52]. Points with no
// strong connections become F-points interpolating nothing (handled by
// interpolation as injection-free rows).
func PMIS(a *sparse.CSR, strength [][]int, seed int64) []CF {
	return PMISRand(a, strength, rand.New(rand.NewSource(seed)))
}

// PMISRand is PMIS drawing its tie-breaking weights from an explicit
// generator, for callers that thread one seeded stream through setup.
func PMISRand(a *sparse.CSR, strength [][]int, rng *rand.Rand) []CF {
	n := a.Rows
	// Influence count |S^T_i| plus random tie-break.
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		w[i] = rng.Float64()
	}
	for i := 0; i < n; i++ {
		for _, j := range strength[i] {
			w[j]++ // j influences i
		}
	}
	const (
		undecided = 0
		isC       = 1
		isF       = 2
	)
	state := make([]int8, n)
	// Points with no strong couplings: F immediately (smoother handles them).
	remaining := 0
	for i := 0; i < n; i++ {
		if len(strength[i]) == 0 {
			// No dependencies: nothing to interpolate from; mark F.
			state[i] = isF
		} else {
			remaining++
		}
	}
	// neighbours in the symmetrised strength graph
	sym := make([][]int, n)
	for i := 0; i < n; i++ {
		sym[i] = append(sym[i], strength[i]...)
	}
	for i := 0; i < n; i++ {
		for _, j := range strength[i] {
			sym[j] = append(sym[j], i)
		}
	}
	for remaining > 0 {
		progressed := false
		// Select local maxima among undecided.
		newC := []int{}
		for i := 0; i < n; i++ {
			if state[i] != undecided {
				continue
			}
			maxLocal := true
			for _, j := range sym[i] {
				if state[j] == undecided && (w[j] > w[i] || (w[j] == w[i] && j < i)) {
					maxLocal = false
					break
				}
			}
			if maxLocal {
				newC = append(newC, i)
			}
		}
		for _, i := range newC {
			state[i] = isC
			remaining--
			progressed = true
		}
		// Undecided points strongly depending on a new C-point become F.
		for _, c := range newC {
			for _, j := range sym[c] {
				if state[j] == undecided {
					state[j] = isF
					remaining--
				}
			}
		}
		if !progressed && remaining > 0 {
			// Defensive: cannot happen with strict tie-break, but never loop.
			for i := 0; i < n; i++ {
				if state[i] == undecided {
					state[i] = isC
					remaining--
				}
			}
		}
	}
	out := make([]CF, n)
	for i, s := range state {
		if s == isC {
			out[i] = CPoint
		} else {
			out[i] = FPoint
		}
	}
	return out
}

// EnsureInterpolable promotes F-points with no strong C-neighbour to
// C-points, which direct (distance-one) interpolation requires. Returns
// the number promoted.
func EnsureInterpolable(strength [][]int, cf []CF) int {
	promoted := 0
	for i, s := range cf {
		if s == CPoint {
			continue
		}
		if len(strength[i]) == 0 {
			continue // truly isolated; interpolation injects zero
		}
		hasC := false
		for _, j := range strength[i] {
			if cf[j] == CPoint {
				hasC = true
				break
			}
		}
		if !hasC {
			cf[i] = CPoint
			promoted++
		}
	}
	return promoted
}

// CoarseIndex numbers the C-points 0..nc-1; F-points map to -1.
func CoarseIndex(cf []CF) (index []int, nc int) {
	index = make([]int, len(cf))
	for i, s := range cf {
		if s == CPoint {
			index[i] = nc
			nc++
		} else {
			index[i] = -1
		}
	}
	return index, nc
}

func validateSquare(a *sparse.CSR, where string) {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("amg: %s requires a square matrix, got %dx%d", where, a.Rows, a.Cols))
	}
}
