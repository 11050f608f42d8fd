package partition

import "sort"

// Point is a vertex coordinate for geometric partitioning.
type Point [3]float64

// RCB partitions points into `parts` pieces by recursive coordinate
// bisection: at each level the current point set is split at the median of
// its longest axis. Part sizes differ by at most one when parts divides
// unevenly. Returns part id per point.
func RCB(points []Point, parts int) []int {
	if parts <= 0 {
		panic("partition: RCB parts must be positive")
	}
	part := make([]int, len(points))
	idx := make([]int, len(points))
	for i := range idx {
		idx[i] = i
	}
	rcbRecurse(points, idx, 0, parts, part)
	return part
}

func rcbRecurse(points []Point, idx []int, base, parts int, out []int) {
	if parts == 1 {
		for _, i := range idx {
			out[i] = base
		}
		return
	}
	// Longest axis of this subset's bounding box.
	var lo, hi Point
	for d := 0; d < 3; d++ {
		lo[d], hi[d] = points[idx[0]][d], points[idx[0]][d]
	}
	for _, i := range idx {
		for d := 0; d < 3; d++ {
			if points[i][d] < lo[d] {
				lo[d] = points[i][d]
			}
			if points[i][d] > hi[d] {
				hi[d] = points[i][d]
			}
		}
	}
	axis := 0
	for d := 1; d < 3; d++ {
		if hi[d]-lo[d] > hi[axis]-lo[axis] {
			axis = d
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := points[idx[a]], points[idx[b]]
		if pa[axis] != pb[axis] {
			return pa[axis] < pb[axis]
		}
		return idx[a] < idx[b] // deterministic tie-break
	})
	// Split proportionally to the part counts on each side.
	leftParts := parts / 2
	rightParts := parts - leftParts
	cut := len(idx) * leftParts / parts
	rcbRecurse(points, idx[:cut], base, leftParts, out)
	rcbRecurse(points, idx[cut:], base+leftParts, rightParts, out)
}
