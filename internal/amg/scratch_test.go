package amg

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"cpx/internal/sparse"
)

// matrixCase is one cell of the smoother × cycle matrix, on aggregation
// coarsening; "Optimized" rows add PMIS coarsening and the identity-split
// transfer path.
type matrixCase struct {
	name string
	opts Options
}

func smootherCycleMatrix() []matrixCase {
	smoothers := []struct {
		name string
		s    Smoother
	}{{"Jacobi", Jacobi}, {"GS", GaussSeidel}, {"HybridGS", HybridGS}, {"Chebyshev", Chebyshev}}
	cycles := []struct {
		name string
		c    Cycle
	}{{"V", VCycle}, {"K", KCycle}}
	var out []matrixCase
	for _, s := range smoothers {
		for _, c := range cycles {
			o := DefaultOptions()
			o.Smoother, o.Cycle = s.s, c.c
			out = append(out, matrixCase{s.name + "/" + c.name, o})
		}
	}
	for _, c := range cycles {
		o := OptimizedOptions()
		o.Cycle = c.c
		out = append(out, matrixCase{"Optimized/" + c.name, o})
	}
	return out
}

// iterateDigest hashes the exact bit patterns of an iterate and the
// result that came with it.
func iterateDigest(x []float64, res Result) uint64 {
	h := fnv.New64a()
	binary.Write(h, binary.LittleEndian, x) // a hash.Hash never fails a Write
	binary.Write(h, binary.LittleEndian, [2]uint64{uint64(res.Iterations), math.Float64bits(res.Residual)})
	return h.Sum64()
}

// TestGoldenIterates pins the bit patterns of Hierarchy.Solve and PCG
// iterates over the smoother × cycle matrix. The values were recorded at
// the last commit whose cycle allocated its vectors afresh on every
// visit; scratch reuse must not move one bit of them. The operator is
// deep enough (four levels) that K-cycles revisit a level.
func TestGoldenIterates(t *testing.T) {
	golden := map[string][2]uint64{
		"Jacobi/V":    {0x52b259407e08bfda, 0x8dcd669f2bc0265d},
		"Jacobi/K":    {0x2b81a0389afcf9aa, 0x75c5fd2bac809924},
		"GS/V":        {0x2d17b5da4bc5174, 0x64dc71a321cdc8f5},
		"GS/K":        {0x2956dd08b8afaaa, 0x3e57456058053727},
		"HybridGS/V":  {0x6d9003f5faf4c124, 0x1ebdedbb1abd2e8b},
		"HybridGS/K":  {0xa615649d79bce7ca, 0x77ebdb7b51b36325},
		"Chebyshev/V": {0x85b66b752d94ae0, 0x30a191d069a3d35d},
		"Chebyshev/K": {0xa6744e83dbacaf19, 0xa774c472b9d03c7f},
		"Optimized/V": {0x364674973c5aa16b, 0x39822919068dc8f9},
		"Optimized/K": {0x344365e6b2e28612, 0xa5b096bd287fb8ff},
	}
	a := sparse.Poisson2D(64, 64)
	b := randomRHS(a.Rows, 21)
	for _, mc := range smootherCycleMatrix() {
		h, err := Setup(a, mc.opts)
		if err != nil {
			t.Fatalf("%s: %v", mc.name, err)
		}
		if h.NumLevels() < 4 {
			t.Fatalf("%s: %d levels, want at least 4 so a coarse level is revisited", mc.name, h.NumLevels())
		}
		xs := make([]float64, a.Rows)
		solve := iterateDigest(xs, h.Solve(b, xs, 1e-12, 5))
		xp := make([]float64, a.Rows)
		pcg := iterateDigest(xp, h.PCG(b, xp, 1e-12, 7))
		if want := golden[mc.name]; solve != want[0] || pcg != want[1] {
			t.Errorf("%q: {%#x, %#x}, golden {%#x, %#x}", mc.name, solve, pcg, want[0], want[1])
		}
	}
}

// TestApplyCycleAllocatesNothingWarm runs one cycle to size every
// level's working vectors, then requires the next cycles, warm-started
// (ApplyCycle) and from zero (Precondition), to allocate nothing at all,
// for each smoother under each cycle type.
func TestApplyCycleAllocatesNothingWarm(t *testing.T) {
	a := sparse.Poisson2D(64, 64)
	b := randomRHS(a.Rows, 22)
	for _, mc := range smootherCycleMatrix() {
		h, err := Setup(a, mc.opts)
		if err != nil {
			t.Fatalf("%s: %v", mc.name, err)
		}
		x := make([]float64, a.Rows)
		h.ApplyCycle(b, x)
		if n := testing.AllocsPerRun(5, func() { h.ApplyCycle(b, x) }); n != 0 {
			t.Errorf("%s: a warmed ApplyCycle allocates %v times, want 0", mc.name, n)
		}
		if n := testing.AllocsPerRun(5, func() { h.Precondition(b, x) }); n != 0 {
			t.Errorf("%s: a warmed Precondition allocates %v times, want 0", mc.name, n)
		}
	}
}
