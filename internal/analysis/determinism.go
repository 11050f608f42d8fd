package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism enforces the virtual-time reproducibility contract inside
// the simulation-critical packages: simulated code must never read the
// host clock, never draw from the process-global math/rand state, and
// never let Go's randomised map iteration order leak into results.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid host wall-clock reads, global math/rand and " +
		"order-dependent map iteration in simulation-critical packages",
	SimCriticalOnly: true,
	Run:             runDeterminism,
}

// forbiddenTimeFuncs are the package-level time functions that observe or
// schedule against the host clock. Host-side code that legitimately needs
// them (the deadlock watchdog, benchmarks) carries a reviewed
// //lint:allow determinism suppression.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// allowedRandFuncs are the math/rand package-level constructors that feed
// an explicitly seeded generator; everything else at package level draws
// from the shared process-seeded source.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkHostTimeAndRand(pass, n)
			case *ast.FuncDecl:
				if n.Body != nil {
					checkMapRanges(pass, n.Body)
				}
			case *ast.FuncLit:
				checkMapRanges(pass, n.Body)
			}
			return true
		})
	}
}

// checkMapRanges checks every map range whose innermost enclosing
// function is the one with this body; nested function literals get their
// own visit from runDeterminism.
func checkMapRanges(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			checkMapRangeOrder(pass, n, body)
		}
		return true
	})
}

func checkHostTimeAndRand(pass *Pass, call *ast.CallExpr) {
	fn := pass.calleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. (*rand.Rand).Float64, (*time.Timer).Stop) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if forbiddenTimeFuncs[fn.Name()] {
			pass.Reportf(call.Pos(),
				"time.%s reads or schedules against the host clock; simulated code must take time from the mpi virtual clock (host-side code needs a //lint:allow determinism suppression)",
				fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !allowedRandFuncs[fn.Name()] {
			pass.Reportf(call.Pos(),
				"rand.%s draws from the process-global generator; thread a seeded *rand.Rand instead", fn.Name())
		}
	}
}

// checkMapRangeOrder flags `range` over a map whose body's side effects
// depend on iteration order: appending to an outer slice, writing through
// an index of an outer slice, or sending on a channel. The standard fix
// is sorted-key iteration (order.SortedKeys). The collect-keys idiom —
// a body that only appends the loop key to one outer slice which fn, the
// enclosing function's body, then sorts or returns — is exempt, since it
// is the first half of that fix.
func checkMapRangeOrder(pass *Pass, rs *ast.RangeStmt, fn *ast.BlockStmt) {
	t := pass.typeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if keys, ok := keyCollectLoop(pass, rs); ok && sortedOrReturned(pass, fn, rs, keys) {
		return
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkOrderedWrite(pass, rs, lhs, n)
			}
		case *ast.IncDecStmt:
			checkOrderedWrite(pass, rs, n.X, nil)
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send inside map iteration publishes results in map order; iterate sorted keys (order.SortedKeys)")
		}
		return true
	})
}

// checkOrderedWrite reports order-dependent writes from within a map
// range: appends to an outer slice and index writes into an outer slice.
func checkOrderedWrite(pass *Pass, rs *ast.RangeStmt, lhs ast.Expr, assign *ast.AssignStmt) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.IndexExpr:
		base := ast.Unparen(lhs.X)
		bt := pass.typeOf(base)
		if bt == nil {
			return
		}
		if _, ok := bt.Underlying().(*types.Slice); !ok {
			return // map writes are keyed, not ordered; arrays behave like slices but are rare
		}
		if id, ok := base.(*ast.Ident); ok && pass.declaredWithin(id, rs) {
			return
		}
		pass.Reportf(lhs.Pos(),
			"write to %s[...] inside map iteration depends on map order when indices collide or values accumulate; iterate sorted keys (order.SortedKeys)",
			exprString(base))
	case *ast.Ident, *ast.SelectorExpr:
		if assign == nil {
			return
		}
		if id, ok := lhs.(*ast.Ident); ok && pass.declaredWithin(id, rs) {
			return
		}
		// slice = append(slice, ...) growing an outer slice in map order.
		for _, rhs := range assign.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			if args, ok := appendCall(pass, call); ok && len(args) > 0 &&
				exprString(ast.Unparen(args[0])) == exprString(lhs) {
				pass.Reportf(lhs.Pos(),
					"append to %s inside map iteration records results in map order; collect keys, sort them, then iterate (order.SortedKeys)",
					exprString(lhs))
			}
		}
	}
}

// keyCollectLoop matches a body consisting solely of one append of the
// loop key into an outer slice —
//
//	for k := range m { keys = append(keys, k) }
//
// — and returns that slice's rendering.
func keyCollectLoop(pass *Pass, rs *ast.RangeStmt) (keys string, ok bool) {
	if len(rs.Body.List) != 1 {
		return "", false
	}
	assign, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || assign.Tok != token.ASSIGN || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return "", false
	}
	call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	args, ok := appendCall(pass, call)
	if !ok || len(args) < 2 {
		return "", false
	}
	keys = exprString(ast.Unparen(assign.Lhs[0]))
	if exprString(ast.Unparen(args[0])) != keys {
		return "", false
	}
	key, ok := ast.Unparen(rs.Key).(*ast.Ident)
	if !ok {
		return "", false
	}
	keyObj := pass.Info.Defs[key]
	if keyObj == nil {
		keyObj = pass.Info.Uses[key]
	}
	for _, arg := range args[1:] {
		// Only the key may be collected: sorting keys fixes the order,
		// whereas collected values keep map order among equal elements.
		id, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok || keyObj == nil || pass.Info.Uses[id] != keyObj {
			return "", false
		}
	}
	return keys, true
}

// sortedOrReturned reports whether the slice rendered as keys, collected
// by rs, has its order fixed where the analyzer can see it: after the
// loop, fn passes it to a sort.* or slices.Sort* function, or returns it
// (the idiom's helper form — the caller ranges over the result, which is
// then checked there).
func sortedOrReturned(pass *Pass, fn *ast.BlockStmt, rs *ast.RangeStmt, keys string) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if found || n == nil || n.Pos() < rs.End() {
			return !found // not yet past the loop: keep descending
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				found = found || exprString(ast.Unparen(r)) == keys
			}
		case *ast.CallExpr:
			if f := pass.calleeFunc(n); f != nil && f.Pkg() != nil &&
				(f.Pkg().Path() == "sort" || f.Pkg().Path() == "slices" && strings.HasPrefix(f.Name(), "Sort")) {
				for _, arg := range n.Args {
					found = found || mentions(arg, keys)
				}
			}
		}
		return !found
	})
	return found
}

// mentions reports whether the expression rendered as s occurs within e.
func mentions(e ast.Expr, s string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if sub, ok := n.(ast.Expr); ok && exprString(sub) == s {
			found = true
		}
		return !found
	})
	return found
}
