package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatReduce guards reproducible floating-point reductions in the
// simulation-critical packages. Float addition is not associative, so an
// accumulation whose term order is nondeterministic — iterating a map, or
// merging goroutine results as they arrive — produces run-to-run drift
// that the bitwise-reproducibility tests then catch far from the cause.
// Flagged:
//
//   - sum += expr (or sum = sum + expr, sum -= expr) on a float inside
//     `range` over a map, unless the loop iterates sorted keys;
//   - the same accumulation inside `range` over a channel or a
//     select/receive loop, where arrival order is scheduler-dependent.
//
// The fix is order.SortedKeys for maps, and a rank/index-ordered merge
// for concurrent producers.
var FloatReduce = &Analyzer{
	Name: "floatreduce",
	Doc: "flag floating-point accumulation over map-ordered or " +
		"goroutine-ordered data in simulation-critical packages",
	SimCriticalOnly: true,
	Run:             runFloatReduce,
}

func runFloatReduce(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.typeOf(rs.X)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				checkFloatAccum(pass, rs, "map iteration order")
			case *types.Chan:
				checkFloatAccum(pass, rs, "channel arrival order")
			}
			return true
		})
	}
}

// checkFloatAccum flags float accumulations into variables declared
// outside the loop. Accumulating into a loop-local (e.g. a per-key
// sub-sum that is then stored keyed) is fine; it is the cross-iteration
// accumulator whose result depends on term order.
func checkFloatAccum(pass *Pass, rs *ast.RangeStmt, orderKind string) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != 1 {
			return true
		}
		lhs := ast.Unparen(assign.Lhs[0])
		lt := pass.typeOf(lhs)
		if lt == nil || !isFloat(lt) {
			return true
		}
		accumulates := false
		switch assign.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN:
			accumulates = true
		case token.ASSIGN:
			// sum = sum + x / sum = x + sum
			if bin, ok := ast.Unparen(assign.Rhs[0]).(*ast.BinaryExpr); ok &&
				(bin.Op == token.ADD || bin.Op == token.SUB || bin.Op == token.MUL) {
				ls := exprString(lhs)
				accumulates = exprString(ast.Unparen(bin.X)) == ls || exprString(ast.Unparen(bin.Y)) == ls
			}
		}
		if !accumulates {
			return true
		}
		if id, ok := lhs.(*ast.Ident); ok && pass.declaredWithin(id, rs) {
			return true // loop-local sub-accumulator
		}
		// Keyed writes acc[k] += v are order-independent per key only if the
		// index is the loop key itself; conservatively allow index writes —
		// the determinism analyzer covers colliding index writes separately.
		if _, ok := lhs.(*ast.IndexExpr); ok {
			return true
		}
		pass.Reportf(assign.Pos(),
			"float accumulation into %s depends on %s: addition is not associative, so the sum drifts run to run; iterate sorted keys (order.SortedKeys) or merge in a fixed order",
			exprString(lhs), orderKind)
		return true
	})
}
