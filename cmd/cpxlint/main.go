// Command cpxlint runs the cpx static-analysis suite (internal/analysis)
// over the module: determinism, mpiuse, poolsafety, floatreduce,
// commmatch and hotalloc, plus the perfgate compiler-fact gate.
//
// Usage:
//
//	cpxlint [-tests] [-v] [-json] [-perfgate=false] [module-root]
//
// The module root defaults to the nearest directory containing go.mod,
// searching upward from the working directory. Diagnostics print as
//
//	path/file.go:line:col: [rule] message
//
// or, with -json, as a JSON report on stdout. They are silenced by a
// reviewed suppression on the same line or the line above:
//
//	//lint:allow <rule> <reason>
//
// Exit status: 0 clean, 1 unsuppressed diagnostics (including malformed
// suppressions), 2 load/type-check/perfgate-build failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"cpx/internal/analysis"
)

func main() {
	tests := flag.Bool("tests", false, "also analyze the packages' own _test.go files")
	verbose := flag.Bool("v", false, "report suppressed diagnostics too")
	jsonOut := flag.Bool("json", false, "emit the report as JSON on stdout")
	perfgate := flag.Bool("perfgate", true, "run the perfgate compiler-fact gate on annotated packages")
	flag.Parse()

	root := flag.Arg(0)
	if root == "" {
		var err error
		root, err = findModuleRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpxlint:", err)
			os.Exit(2)
		}
	}

	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cpxlint:", err)
		os.Exit(2)
	}
	loader.IncludeTests = *tests

	pkgs, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cpxlint:", err)
		os.Exit(2)
	}
	if errs := loader.TypeErrors(); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "cpxlint: type error:", e)
		}
		os.Exit(2)
	}

	rules := analysis.AnalyzerNames()
	var kept, suppressed []analysis.Diagnostic
	for _, pkg := range pkgs {
		supps := analysis.CollectSuppressions(loader.Fset, pkg.Files, rules)
		kept = append(kept, supps.Malformed...)

		simCritical := analysis.IsSimCritical(pkg.ImportPath)
		for _, a := range analysis.Analyzers() {
			if a.SimCriticalOnly && !simCritical {
				continue
			}
			pass := &analysis.Pass{
				Analyzer:    a,
				Fset:        loader.Fset,
				Files:       pkg.Files,
				Pkg:         pkg.Types,
				Info:        pkg.Info,
				SimCritical: simCritical,
			}
			a.Run(pass)
			k, s := supps.Filter(pass.Diagnostics)
			kept = append(kept, k...)
			suppressed = append(suppressed, s...)
		}

		if *perfgate {
			pass := &analysis.Pass{
				Analyzer:    analysis.PerfGateAnalyzer,
				Fset:        loader.Fset,
				Files:       pkg.Files,
				Pkg:         pkg.Types,
				Info:        pkg.Info,
				SimCritical: simCritical,
			}
			if err := analysis.PerfGate(root, pass); err != nil {
				fmt.Fprintln(os.Stderr, "cpxlint:", err)
				os.Exit(2)
			}
			k, s := supps.Filter(pass.Diagnostics)
			kept = append(kept, k...)
			suppressed = append(suppressed, s...)
		}
	}

	sortDiags(kept)
	sortDiags(suppressed)

	if *jsonOut {
		emitJSON(root, len(pkgs), kept, suppressed)
	} else {
		for _, d := range kept {
			fmt.Println(relativize(root, d))
		}
		if *verbose {
			for _, d := range suppressed {
				fmt.Printf("%s (suppressed)\n", relativize(root, d))
			}
		}
	}
	fmt.Fprintf(os.Stderr, "cpxlint: %d package(s), %d diagnostic(s), %d suppressed\n",
		len(pkgs), len(kept), len(suppressed))
	if len(kept) > 0 {
		os.Exit(1)
	}
}

// ---- output ----------------------------------------------------------------

// jsonDiag is the machine-readable form of one diagnostic.
type jsonDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func toJSON(root string, diags []analysis.Diagnostic) []jsonDiag {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{File: filepath.ToSlash(relPath(root, d.Pos.Filename)), Line: d.Pos.Line, Col: d.Pos.Column, Rule: d.Rule, Message: d.Message})
	}
	return out
}

func emitJSON(root string, pkgs int, kept, suppressed []analysis.Diagnostic) {
	report := struct {
		Packages    int        `json:"packages"`
		Diagnostics []jsonDiag `json:"diagnostics"`
		Suppressed  []jsonDiag `json:"suppressed"`
	}{pkgs, toJSON(root, kept), toJSON(root, suppressed)}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(report)
}

// findModuleRoot walks upward from the working directory to go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// relPath returns file relative to root when it lies beneath it.
func relPath(root, file string) string {
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return file
}

// relativize renders a diagnostic with its filename relative to root.
func relativize(root string, d analysis.Diagnostic) string {
	d.Pos.Filename = relPath(root, d.Pos.Filename)
	return d.String()
}

func sortDiags(diags []analysis.Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
}
