package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// MPIUse enforces correct use of the mpi runtime's communicator API:
// collectives must be reached by every rank of their communicator, and a
// collective lexically inside a branch conditioned on that communicator's
// rank is the classic deadlock/mismatch.
var MPIUse = &Analyzer{
	Name: "mpiuse",
	Doc:  "flag collectives inside rank-conditioned branches",
	Run:  runMPIUse,
}

// collectiveMethods are the Comm methods every member rank must call.
var collectiveMethods = map[string]bool{
	"Barrier": true, "Bcast": true,
	"Allreduce": true, "AllreduceScalar": true,
	"Allgather": true, "Alltoallv": true,
}

// rankWordIdents are bare identifier names treated as holding a rank even
// when their origin cannot be traced to a Rank() call (e.g. parameters).
var rankWordIdents = map[string]bool{
	"rank": true, "myrank": true, "worldrank": true, "rnk": true,
}

func runMPIUse(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkRankConditionedCollectives(pass, fd.Body)
		}
	}
}

// isCommReceiver reports whether expr has the communicator type (a named
// type called Comm, by value or pointer — matched by name so fixtures and
// future comm wrappers are covered alike).
func isCommReceiver(pass *Pass, expr ast.Expr) bool {
	return namedTypeName(pass.typeOf(expr)) == "Comm"
}

// rankCall matches x.Rank() / x.WorldRank() on a Comm and returns the
// receiver rendering.
func rankCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := methodCall(call)
	if !ok || (sel.Sel.Name != "Rank" && sel.Sel.Name != "WorldRank") {
		return "", false
	}
	if !isCommReceiver(pass, sel.X) {
		return "", false
	}
	return exprString(ast.Unparen(sel.X)), true
}

// condRankReceivers analyzes a branch condition and returns the rendered
// receivers of every communicator whose rank the condition reads, plus a
// wildcard flag for rank-named identifiers with no traceable origin.
func condRankReceivers(pass *Pass, cond ast.Expr, rankVars map[types.Object]string) (recvs map[string]bool, wildcard bool) {
	recvs = map[string]bool{}
	ast.Inspect(cond, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if r, ok := rankCall(pass, n); ok {
				recvs[r] = true
			}
		case *ast.SelectorExpr:
			// Internal field access (c.rank) inside the mpi package itself.
			if (n.Sel.Name == "rank" || n.Sel.Name == "worldRank") && isCommReceiver(pass, n.X) {
				recvs[exprString(ast.Unparen(n.X))] = true
			}
		case *ast.Ident:
			if obj := pass.Info.Uses[n]; obj != nil {
				if r, ok := rankVars[obj]; ok {
					recvs[r] = true
					return true
				}
			}
			if rankWordIdents[strings.ToLower(n.Name)] {
				wildcard = true
			}
		}
		return true
	})
	return recvs, wildcard
}

// collectRankVars maps local variables assigned from x.Rank() or
// x.WorldRank() to the rendering of x.
func collectRankVars(pass *Pass, body *ast.BlockStmt) map[types.Object]string {
	out := map[types.Object]string{}
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, rhs := range assign.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			recv, ok := rankCall(pass, call)
			if !ok {
				continue
			}
			id, ok := assign.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if obj := pass.Info.Defs[id]; obj != nil {
				out[obj] = recv
			} else if obj := pass.Info.Uses[id]; obj != nil {
				out[obj] = recv
			}
		}
		return true
	})
	return out
}

// rankCond is one enclosing if/switch condition that reads a rank.
type rankCond struct {
	recvs    map[string]bool
	wildcard bool
}

func checkRankConditionedCollectives(pass *Pass, body *ast.BlockStmt) {
	rankVars := collectRankVars(pass, body)

	var walk func(n ast.Node, conds []rankCond)
	walkList := func(list []ast.Stmt, conds []rankCond) {
		for _, s := range list {
			walk(s, conds)
		}
	}
	pushCond := func(conds []rankCond, exprs ...ast.Expr) []rankCond {
		merged := rankCond{recvs: map[string]bool{}}
		for _, e := range exprs {
			if e == nil {
				continue
			}
			recvs, wild := condRankReceivers(pass, e, rankVars)
			for r := range recvs {
				merged.recvs[r] = true
			}
			merged.wildcard = merged.wildcard || wild
		}
		if len(merged.recvs) == 0 && !merged.wildcard {
			return conds
		}
		return append(append([]rankCond{}, conds...), merged)
	}
	walk = func(n ast.Node, conds []rankCond) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.IfStmt:
			walk(n.Init, conds)
			inner := pushCond(conds, n.Cond)
			walkList(n.Body.List, inner)
			walk(n.Else, inner)
		case *ast.SwitchStmt:
			walk(n.Init, conds)
			// The tag alone decides which case runs; case expressions can
			// also read ranks in a tagless switch.
			for _, cc := range n.Body.List {
				clause := cc.(*ast.CaseClause)
				inner := pushCond(conds, append([]ast.Expr{n.Tag}, clause.List...)...)
				walkList(clause.Body, inner)
			}
		case *ast.BlockStmt:
			walkList(n.List, conds)
		case *ast.CallExpr:
			if sel, ok := methodCall(n); ok && collectiveMethods[sel.Sel.Name] && isCommReceiver(pass, sel.X) {
				recv := exprString(ast.Unparen(sel.X))
				for _, c := range conds {
					if c.recvs[recv] || c.wildcard {
						pass.Reportf(n.Pos(),
							"collective %s.%s inside a branch conditioned on the rank: every rank of the communicator must reach a collective, or ranks deadlock/mismatch",
							recv, sel.Sel.Name)
						break
					}
				}
			}
			for _, child := range n.Args {
				walk(child, conds)
			}
			walk(n.Fun, conds)
		default:
			// Generic traversal preserving the condition stack.
			children(n, func(c ast.Node) { walk(c, conds) })
		}
	}
	walkList(body.List, nil)
}

// children invokes fn on each direct child of n.
func children(n ast.Node, fn func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			fn(c)
		}
		return false
	})
}
