// Package analysis is a self-contained static-analysis suite enforcing
// the invariants the virtual-time runtime's headline guarantees rest on:
// bitwise-identical per-rank clocks, GOMAXPROCS-independent schedules and
// reproducible solver output. It mirrors the golang.org/x/tools
// go/analysis architecture (Analyzer, Pass, diagnostics, testdata-driven
// fixtures) but is built purely on the standard library's go/ast and
// go/types so the module stays dependency-free.
//
// Four analyzers ship with the suite; each stayed because a seeded
// violation showed it names a fault sooner or more precisely than the
// tests do (ROADMAP "Legible" (3) has the audit):
//
//   - determinism: no host wall-clock or timers, no process-seeded
//     math/rand, no map-iteration order leaking into results inside the
//     simulation-critical packages.
//   - mpiuse: no collectives lexically inside rank-conditioned branches
//     (deadlock/mismatch).
//   - floatreduce: no float accumulation in map- or goroutine-order.
//   - hotalloc: no new heap-allocating construct in //perf:hotpath code.
//
// Check runs all four over a module; TestModuleLintsClean makes a
// finding a tier-1 failure, and `make lint` runs that test alone to
// print the result. Host-time cost is not a lint rule: the benchmark
// (`go run ./bench`) is its one gate.
//
// A diagnostic is silenced with a reviewed suppression comment on the
// same line or the line above:
//
//	//lint:allow <rule> <reason>
//
// The reason is mandatory; Check reports bare suppressions as findings.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named rule set, runnable over a type-checked package.
type Analyzer struct {
	// Name is the rule name used in diagnostics and //lint:allow comments.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// SimCriticalOnly restricts the analyzer to the simulation-critical
	// packages (IsSimCritical); host-side tooling is exempt.
	SimCriticalOnly bool
	// Run reports diagnostics through the pass.
	Run func(*Pass)
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	Diagnostics []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Diagnostics = append(p.Diagnostics, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Determinism, MPIUse, FloatReduce, HotAlloc}
}

// AnalyzerNames returns the valid rule names for suppression validation.
func AnalyzerNames() map[string]bool {
	names := map[string]bool{}
	for _, a := range Analyzers() {
		names[a.Name] = true
	}
	return names
}

// simCriticalPackages are the internal packages whose code runs under (or
// feeds) the virtual clock, where determinism is a correctness property.
var simCriticalPackages = map[string]bool{
	"mpi": true, "coupler": true, "harness": true, "mgcfd": true,
	"simpic": true, "amg": true, "sparse": true, "pressure": true,
	"spray": true, "mesh": true, "partition": true, "perfmodel": true,
	"fault": true, "serve": true, "telemetry": true, "particle": true,
	"trace": true, "fem": true, "cluster": true, "order": true, "scratch": true,
}

// IsSimCritical reports whether an import path belongs to the
// simulation-critical set the determinism and floatreduce analyzers cover.
func IsSimCritical(importPath string) bool {
	rest, ok := strings.CutPrefix(importPath, "cpx/internal/")
	if !ok {
		return false
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return simCriticalPackages[rest]
}

// ---- shared AST/type helpers -----------------------------------------------

// typeOf returns the type of e, or nil.
func (p *Pass) typeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// calleeFunc resolves the *types.Func a call invokes (package function or
// method), or nil for builtins, function-typed variables and conversions.
func (p *Pass) calleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

// namedTypeName returns the name of t's (pointer-stripped) named type, or "".
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	if ptr, ok := t.(*types.Pointer); ok {
		if named, ok := ptr.Elem().(*types.Named); ok {
			return named.Obj().Name()
		}
	}
	return ""
}

// methodCall matches call as a method invocation x.Name(...) and returns
// the selector; ok is false for plain function calls.
func methodCall(call *ast.CallExpr) (*ast.SelectorExpr, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return sel, ok
}

// declaredWithin reports whether id resolves to an object declared inside
// node's source range (e.g. a range-statement's own variables).
func (p *Pass) declaredWithin(id *ast.Ident, node ast.Node) bool {
	obj := p.Info.Uses[id]
	if obj == nil {
		obj = p.Info.Defs[id]
	}
	if obj == nil {
		return false
	}
	return obj.Pos() >= node.Pos() && obj.Pos() < node.End()
}

// isFloat reports whether t is a floating-point basic type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// exprString renders an expression compactly (types.ExprString).
func exprString(e ast.Expr) string { return types.ExprString(e) }

// appendCall matches call as the builtin append and returns its arguments.
func appendCall(p *Pass, call *ast.CallExpr) ([]ast.Expr, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil, false
	}
	if b, ok := p.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return nil, false
	}
	return call.Args, true
}
