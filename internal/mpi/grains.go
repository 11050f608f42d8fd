package mpi

import "math/bits"

// Grains divide capacities finer than size classes: every length below
// 2×grainsPerClass is a grain of its own, and each size class above is
// split into grainsPerClass equal steps, so rounding a length up to its
// grain wastes less than 1/grainsPerClass of it. The world's spare store
// (pool.go) files buffers by grain and fresh payload buffers are rounded
// up to one, which lets a released buffer serve a later clone of its
// own length without the store comparing capacities.
const (
	grainBits      = 4
	grainsPerClass = 1 << grainBits
)

// grainOf is the index of the largest grain no longer than n > 0.
func grainOf(n int) int {
	shift := max(bits.Len(uint(n))-1-grainBits, 0)
	return shift<<grainBits + n>>shift
}

// grainSize is the length of grain g, the inverse of grainOf.
func grainSize(g int) int {
	if g < 2*grainsPerClass {
		return g
	}
	shift := g>>grainBits - 1
	return (g&(grainsPerClass-1) | grainsPerClass) << shift
}

// grainCap is n rounded up to its grain.
func grainCap(n int) int {
	g := grainOf(n)
	if s := grainSize(g); s >= n {
		return s
	}
	return grainSize(g + 1)
}
