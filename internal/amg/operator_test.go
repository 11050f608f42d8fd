package amg

import (
	"math"
	"testing"

	"cpx/internal/sparse"
)

// TestStencilSetupMatchesCSR: a hierarchy set up on a Stencil3D applies
// the stencil on its finest level and cycles bit for bit as one set up on
// the stencil's assembled matrix, for every smoother under V- and
// K-cycles: Precondition on right-hand sides with both zeros, subnormals
// and NaN, the tests' stationary Solve and PCG. A warm cycle on it
// allocates nothing.
func TestStencilSetupMatchesCSR(t *testing.T) {
	for _, d := range [][3]int{{11, 11, 11}, {6, 7, 5}} {
		g := sparse.NewStencil3D(d[0], d[1], d[2])
		a := g.Matrix()
		inputs := preconditionInputs(a.Rows, 33)
		for _, mc := range smootherCycleMatrix() {
			hg, err := Setup(g, mc.opts)
			if err != nil {
				t.Fatalf("%v %s: %v", d, mc.name, err)
			}
			ha, err := Setup(a, mc.opts)
			if err != nil {
				t.Fatalf("%v %s: %v", d, mc.name, err)
			}
			if hg.NumLevels() < 2 || hg.Levels[0].op != sparse.Operator(g) || ha.Levels[0].op != sparse.Operator(ha.Levels[0].A) {
				t.Fatalf("%v %s: the finest level does not apply the operator Setup was given", d, mc.name)
			}
			want, got := make([]float64, a.Rows), make([]float64, a.Rows)
			for k, b := range inputs {
				ha.Precondition(b, want)
				hg.Precondition(b, got)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%v %s input %d: x[%d] = %v, on the assembled matrix %v", d, mc.name, k, i, got[i], want[i])
					}
				}
			}
			b := randomRHS(a.Rows, 23)
			for name, run := range map[string]func(h *Hierarchy, x []float64) Result{
				"Solve": func(h *Hierarchy, x []float64) Result { return h.Solve(b, x, 1e-12, 5) },
				"PCG":   func(h *Hierarchy, x []float64) Result { return h.PCG(b, x, 1e-12, 7) },
			} {
				clear(want)
				clear(got)
				if dw, dg := iterateDigest(want, run(ha, want)), iterateDigest(got, run(hg, got)); dw != dg {
					t.Errorf("%v %s: %s iterates differ from the assembled matrix's", d, mc.name, name)
				}
			}
			if n := testing.AllocsPerRun(5, func() { hg.ApplyCycle(b, got) }); n != 0 {
				t.Errorf("%v %s: a warmed cycle on the stencil allocates %v times, want 0", d, mc.name, n)
			}
		}
	}
}
