// Package analysistest runs an analyzer over fixture packages under
// testdata/src and checks its diagnostics against `// want` comments, in
// the style of golang.org/x/tools/go/analysis/analysistest but built on
// the standard library only.
//
// A fixture line expecting a diagnostic carries a comment of the form
//
//	code() // want `regexp`
//
// with one or more backquoted or double-quoted regexps, each matching one
// diagnostic reported on that line. Diagnostics with no matching want,
// and wants with no matching diagnostic, fail the test. Fixtures may also
// carry //lint:allow suppressions; suppressed diagnostics must NOT be
// matched by a want and are checked for being silenced.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cpx/internal/analysis"
)

// Run loads testdata/src/<pkg> relative to dir, applies the analyzer
// (SimCriticalOnly or not: the fixture counts as simulation-critical),
// filters //lint:allow suppressions, and diffs against // want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkg string) {
	t.Helper()
	pkgDir := filepath.Join(dir, "testdata", "src", pkg)
	fset := token.NewFileSet()

	entries, err := os.ReadDir(pkgDir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(pkgDir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parsing fixture: %v", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", pkgDir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "source", nil),
		Error:    func(err error) { t.Errorf("fixture type error: %v", err) },
	}
	tpkg, _ := conf.Check(pkg, fset, files, info)

	pass := &analysis.Pass{Analyzer: a, Fset: fset, Files: files, Pkg: tpkg, Info: info}
	a.Run(pass)

	supps := analysis.CollectSuppressions(fset, files, analysis.AnalyzerNames())
	for _, m := range supps.Malformed {
		t.Errorf("malformed suppression in fixture: %s", m)
	}
	kept, _ := supps.Filter(pass.Diagnostics)

	diffWants(t, fset, files, kept)
}

// want is one expected-diagnostic regexp at a file line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRE = regexp.MustCompile("// want ((?:[`\"][^`\"]*[`\"]\\s*)+)")
var wantArgRE = regexp.MustCompile("[`\"]([^`\"]*)[`\"]")

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, arg := range wantArgRE.FindAllStringSubmatch(m[1], -1) {
					re, err := regexp.Compile(arg[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, arg[1], err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: arg[1]})
				}
			}
		}
	}
	return wants
}

func diffWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	wants := collectWants(t, fset, files)
	for _, d := range diags {
		ok := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: no diagnostic matching %s", fmt.Sprintf("%s:%d", w.file, w.line), w.raw)
		}
	}
}
