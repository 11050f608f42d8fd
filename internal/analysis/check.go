package analysis

import (
	"cmp"
	"errors"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
)

// Result is what Check found over one module. File names are relative
// to the module root and both lists are sorted by position.
type Result struct {
	Packages   int          // packages loaded and analyzed
	Kept       []Diagnostic // findings to fix, malformed suppressions included
	Suppressed []Diagnostic // findings silenced by a reviewed //lint:allow
}

// Check loads every package of the module at root and runs the whole
// suite over it: each analyzer of Analyzers (the SimCriticalOnly ones on
// the simulation-critical packages only), with the package's
// //lint:allow directives applied. unused reads one set for the whole
// module: UsedObjects over every package, the root package's exported API
// counted as used. It is the one driver:
// TestModuleLintsClean (`make lint`) asserts Kept is empty and logs
// Suppressed. err reports a module that does not load, type-check or
// build.
//
//lint:allow unused the one driver, which TestModuleLintsClean (make lint) runs
func Check(root string) (*Result, error) {
	loader, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		return nil, err
	}
	if errs := loader.TypeErrors(); len(errs) > 0 {
		return nil, errors.Join(errs...)
	}

	infos := make([]*types.Info, len(pkgs))
	var public *types.Package
	for i, pkg := range pkgs {
		infos[i] = pkg.Info
		if pkg.ImportPath == loader.modulePath {
			public = pkg.Types
		}
	}
	used := UsedObjects(infos, public)

	rules := AnalyzerNames()
	res := &Result{Packages: len(pkgs)}
	for _, pkg := range pkgs {
		supps := CollectSuppressions(loader.Fset, pkg.Files, rules)
		res.Kept = append(res.Kept, supps.Malformed...)

		simCritical := IsSimCritical(pkg.ImportPath)
		for _, a := range Analyzers() {
			if a.SimCriticalOnly && !simCritical {
				continue
			}
			pass := &Pass{Analyzer: a, Fset: loader.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info, Used: used}
			a.Run(pass)
			kept, suppressed := supps.Filter(pass.Diagnostics)
			res.Kept = append(res.Kept, kept...)
			res.Suppressed = append(res.Suppressed, suppressed...)
		}
	}
	for _, diags := range [][]Diagnostic{res.Kept, res.Suppressed} {
		for i := range diags {
			if rel, err := filepath.Rel(root, diags[i].Pos.Filename); err == nil {
				diags[i].Pos.Filename = rel
			}
		}
		slices.SortFunc(diags, func(a, b Diagnostic) int {
			return cmp.Or(strings.Compare(a.Pos.Filename, b.Pos.Filename),
				cmp.Compare(a.Pos.Line, b.Pos.Line), cmp.Compare(a.Pos.Column, b.Pos.Column))
		})
	}
	return res, nil
}
