package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package of the module.
type Package struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Loader discovers, parses and type-checks the module's packages using
// only the standard library: module-internal imports are resolved
// recursively from source, everything else goes through the compiler's
// source importer (which type-checks the standard library from GOROOT).
// This is what lets the suite run without golang.org/x/tools.
type Loader struct {
	Fset *token.FileSet

	moduleRoot string
	modulePath string
	std        types.Importer
	pkgs       map[string]*Package
	loading    map[string]bool
	typeErrs   []error
}

// NewLoader creates a loader rooted at the module directory containing
// go.mod.
func NewLoader(moduleRoot string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(moduleRoot, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: loader needs a module root: %w", err)
	}
	modulePath := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modulePath = strings.TrimSpace(rest)
			break
		}
	}
	if modulePath == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", moduleRoot)
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		moduleRoot: moduleRoot,
		modulePath: modulePath,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// Import implements types.Importer: module-internal paths load from
// source; everything else (stdlib) delegates to the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// dirFor maps an import path inside the module to its directory.
func (l *Loader) dirFor(path string) string {
	if path == l.modulePath {
		return l.moduleRoot
	}
	rel := strings.TrimPrefix(path, l.modulePath+"/")
	return filepath.Join(l.moduleRoot, filepath.FromSlash(rel))
}

// load parses and type-checks one module package (cached, cycle-checked).
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !isSourceFile(name) {
			continue
		}
		// Build constraints as the default build sees them: of a file
		// pair split on a tag (mpi's race-build poison) only one is in.
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			l.typeErrs = append(l.typeErrs, err)
		},
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	pkg := &Package{ImportPath: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// isSourceFile reports whether a directory entry name is a Go file the
// loader analyzes: tests and the go tool's ignored prefixes are not.
func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

// TypeErrors returns every type-checking error seen so far. The tree is
// expected to compile (the tier-1 gate builds it), so Check treats any
// entry here as a load failure.
func (l *Loader) TypeErrors() []error { return l.typeErrs }

// LoadAll walks the module and loads every package, skipping testdata,
// vendor and hidden directories. Results are sorted by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	var paths []string
	err := filepath.WalkDir(l.moduleRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.moduleRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor" || name == "node_modules") {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		if !slices.ContainsFunc(entries, func(e os.DirEntry) bool { return !e.IsDir() && isSourceFile(e.Name()) }) {
			return nil
		}
		rel, err := filepath.Rel(l.moduleRoot, p)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, l.modulePath)
		} else {
			paths = append(paths, l.modulePath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.load(p)
		if err != nil {
			return nil, fmt.Errorf("analysis: loading %s: %w", p, err)
		}
		out = append(out, pkg)
	}
	return out, nil
}
