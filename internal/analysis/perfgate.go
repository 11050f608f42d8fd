package analysis

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// This file is the perfgate: a compiler-fact gate that proves the
// repo's performance invariants at lint time instead of trusting code
// review. It runs `go build -gcflags='-m -m'` on the packages carrying
// perf annotations, parses the inlining and escape diagnostics the gc
// compiler emits, and checks them against two annotations placed in a
// function's doc comment:
//
//	//perf:inline    the function must stay within the inliner budget:
//	                 the compiler must report "can inline" for it. The
//	                 telemetry hooks and runtime charge paths carry this —
//	                 the <=10% telemetry-overhead bar was measured with
//	                 them inlined into the charge sites.
//
//	//perf:noescape  no parameter (receiver included) may leak to the
//	                 heap ("leaking param: x") and no local may be moved
//	                 to the heap inside the body ("moved to heap: x") —
//	                 i.e. calling the function never forces the caller's
//	                 arguments or its own locals into an allocation.
//	                 ("leaking param content" is deliberately exempt: it
//	                 does not force the argument itself off the stack.)
//
// A regression — a hook pushed over the inliner budget, a parameter
// escaping — fails `make check` with the compiler's own reason in the
// diagnostic. Findings are suppressible like any other rule with
// //lint:allow perfgate <reason>.

// PerfGateAnalyzer carries the rule name and documentation for perfgate
// diagnostics. It is not part of Analyzers(): PerfGate needs the module
// root and an external compiler run, so cmd/cpxlint invokes it
// separately with a Pass built on this analyzer.
var PerfGateAnalyzer = &Analyzer{
	Name: "perfgate",
	Doc: "verify //perf:inline and //perf:noescape annotations against the " +
		"gc compiler's inlining and escape-analysis facts (-gcflags='-m -m')",
}

// perfInlineMarker and perfNoescapeMarker are matched against doc
// comment lines.
const (
	perfInlineMarker   = "perf:inline"
	perfNoescapeMarker = "perf:noescape"
)

// perfAnnotation is one annotated function declaration.
type perfAnnotation struct {
	fn       *ast.FuncDecl
	name     string // rendered name, e.g. (*Collector).Received
	inline   bool
	noescape bool
}

// scanPerfAnnotations collects the //perf:inline and //perf:noescape
// annotations in a package's files.
func scanPerfAnnotations(files []*ast.File) []*perfAnnotation {
	var out []*perfAnnotation
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			a := &perfAnnotation{fn: fd, name: funcDisplayName(fd)}
			for _, c := range fd.Doc.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				switch {
				case strings.HasPrefix(text, perfInlineMarker):
					a.inline = true
				case strings.HasPrefix(text, perfNoescapeMarker):
					a.noescape = true
				}
			}
			if a.inline || a.noescape {
				out = append(out, a)
			}
		}
	}
	return out
}

// funcDisplayName renders fd the way the compiler's -m output does:
// Name for functions, (*Recv).Name or (Recv).Name for methods.
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		return fmt.Sprintf("(*%s).%s", exprString(star.X), fd.Name.Name)
	}
	return fmt.Sprintf("(%s).%s", exprString(recv), fd.Name.Name)
}

// compilerFact is one parsed -m diagnostic, located by (file base, line).
type compilerFact struct {
	file string // basename of the source file
	line int
	kind factKind
	name string // function name (inline facts) or variable (escape facts)
	text string // the fact's message, for embedding in diagnostics
}

type factKind uint8

const (
	factCanInline factKind = iota
	factCannotInline
	factLeakingParam
	factMovedToHeap
)

var factRE = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// parseCompilerFacts extracts the facts perfgate checks from one
// `go build -gcflags=-m -m` stderr stream.
func parseCompilerFacts(out []byte) []compilerFact {
	var facts []compilerFact
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := factRE.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		line, err := strconv.Atoi(m[2])
		if err != nil {
			continue
		}
		fact := compilerFact{file: filepath.Base(m[1]), line: line, text: m[4]}
		msg := m[4]
		switch {
		case strings.HasPrefix(msg, "can inline "):
			fact.kind = factCanInline
			fact.name = strings.TrimPrefix(msg, "can inline ")
			if i := strings.Index(fact.name, " with cost"); i >= 0 {
				fact.name = fact.name[:i]
			}
		case strings.HasPrefix(msg, "cannot inline "):
			fact.kind = factCannotInline
			rest := strings.TrimPrefix(msg, "cannot inline ")
			if i := strings.Index(rest, ": "); i >= 0 {
				fact.name, fact.text = rest[:i], rest[i+2:]
			} else {
				fact.name, fact.text = rest, "no reason given"
			}
		case strings.HasPrefix(msg, "leaking param: "):
			fact.kind = factLeakingParam
			fact.name = strings.TrimSpace(strings.TrimPrefix(msg, "leaking param: "))
			// Keep only the summary form; the verbose flow lines repeat
			// the same fact with "with derefs" noise.
			if i := strings.IndexByte(fact.name, ' '); i >= 0 {
				continue
			}
		case strings.HasPrefix(msg, "moved to heap: "):
			fact.kind = factMovedToHeap
			fact.name = strings.TrimSpace(strings.TrimPrefix(msg, "moved to heap: "))
		default:
			continue
		}
		facts = append(facts, fact)
	}
	return facts
}

// PerfGate checks the pass's //perf:inline and //perf:noescape
// annotations against the gc compiler's own inlining and escape
// analysis, appending findings to pass.Diagnostics. It is a no-op (and
// runs no compiler) for packages without annotations. The pass should
// be built on PerfGateAnalyzer; err reports a failed build, which
// callers should treat like a load error.
func PerfGate(moduleRoot string, pass *Pass) error {
	annotations := scanPerfAnnotations(pass.Files)
	if len(annotations) == 0 {
		return nil
	}
	importPath := pass.Pkg.Path()
	cmd := exec.Command("go", "build", "-gcflags=-m -m", importPath)
	cmd.Dir = moduleRoot
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("perfgate: go build -gcflags=-m -m %s: %v\n%s", importPath, err, out)
	}
	facts := parseCompilerFacts(out)

	// Index inline facts by (file, line) of the declaration and escape
	// facts by file for range scans.
	type key struct {
		file string
		line int
	}
	inlineFacts := map[key]compilerFact{}
	escapeByFile := map[string][]compilerFact{}
	for _, f := range facts {
		switch f.kind {
		case factCanInline, factCannotInline:
			inlineFacts[key{f.file, f.line}] = f
		case factLeakingParam, factMovedToHeap:
			escapeByFile[f.file] = append(escapeByFile[f.file], f)
		}
	}

	for _, a := range annotations {
		declPos := pass.Fset.Position(a.fn.Pos())
		base := filepath.Base(declPos.Filename)
		endLine := pass.Fset.Position(a.fn.End()).Line
		sigEnd := endLine
		if a.fn.Body != nil {
			sigEnd = pass.Fset.Position(a.fn.Body.Pos()).Line
		}
		if a.inline {
			switch f, ok := inlineFacts[key{base, declPos.Line}]; {
			case !ok:
				pass.Reportf(a.fn.Pos(),
					"%s is marked //perf:inline but the compiler emitted no inlining fact for it (unexported build issue?)", a.name)
			case f.kind == factCannotInline:
				pass.Reportf(a.fn.Pos(),
					"%s is marked //perf:inline but no longer inlines: %s — the hook overhead measured in the benchmarks assumes this call disappears",
					a.name, f.text)
			}
		}
		if a.noescape {
			for _, f := range escapeByFile[base] {
				switch f.kind {
				case factLeakingParam:
					// Parameters are declared between the func keyword and
					// the body's opening brace.
					if f.line >= declPos.Line && f.line <= sigEnd {
						pass.Reportf(a.fn.Pos(),
							"%s is marked //perf:noescape but parameter %s leaks to the heap: callers' arguments are forced into an allocation",
							a.name, f.name)
					}
				case factMovedToHeap:
					if f.line >= declPos.Line && f.line <= endLine {
						pass.Reportf(a.fn.Pos(),
							"%s is marked //perf:noescape but local %s is moved to the heap: the function allocates per call",
							a.name, f.name)
					}
				}
			}
		}
	}
	return nil
}
