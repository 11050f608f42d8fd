package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"cpx/internal/analysis"
)

// collectFrom parses src as one file and returns its suppressions.
func collectFrom(t *testing.T, src string, validRules map[string]bool) (*token.FileSet, *analysis.SuppressionSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "supp.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fset, analysis.CollectSuppressions(fset, []*ast.File{f}, validRules)
}

// diagAt builds a diagnostic of rule at the given line of the parsed file.
func diagAt(rule string, line int) analysis.Diagnostic {
	return analysis.Diagnostic{
		Pos:  token.Position{Filename: "supp.go", Line: line, Column: 1},
		Rule: rule,
	}
}

// TestSuppressSameLineVsLineAbove pins the two placements a directive
// supports: trailing the offending line, or on its own line directly
// above it — and nothing further away.
func TestSuppressSameLineVsLineAbove(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //lint:allow determinism trailing placement
	//lint:allow hotalloc line-above placement
	_ = 2
	_ = 3
}
`
	_, set := collectFrom(t, src, nil)

	if !set.Allows(diagAt("determinism", 4)) {
		t.Error("same-line directive did not suppress a diagnostic on its own line")
	}
	if set.Allows(diagAt("determinism", 3)) {
		t.Error("same-line directive leaked upward to the line above")
	}
	if !set.Allows(diagAt("hotalloc", 6)) {
		t.Error("line-above directive did not suppress the line below it")
	}
	if !set.Allows(diagAt("hotalloc", 5)) {
		t.Error("directive did not suppress a diagnostic on its own line")
	}
	if set.Allows(diagAt("hotalloc", 7)) {
		t.Error("directive leaked two lines down")
	}
	if set.Allows(diagAt("hotalloc", 4)) {
		t.Error("line-above directive leaked to the line above itself")
	}
}

// TestSuppressMultipleRulesOneComment pins the multi-directive form: one
// comment can carry several lint:allow directives, each with its own
// rule and reason, and only the named rules are silenced.
func TestSuppressMultipleRulesOneComment(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //lint:allow mpiuse peer validated at startup lint:allow hotalloc buffer recycled
}
`
	_, set := collectFrom(t, src, nil)

	if !set.Allows(diagAt("mpiuse", 4)) {
		t.Error("first directive in a multi-directive comment was dropped")
	}
	if !set.Allows(diagAt("hotalloc", 4)) {
		t.Error("second directive in a multi-directive comment was dropped")
	}
	if set.Allows(diagAt("determinism", 4)) {
		t.Error("multi-directive comment suppressed a rule it never named")
	}
	if set.Malformed != nil {
		t.Errorf("well-formed multi-directive comment reported malformed: %v", set.Malformed)
	}
}

// TestSuppressMalformedDirectives pins rejection of directives with a
// missing reason or (with validation on) an unknown rule name.
func TestSuppressMalformedDirectives(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //lint:allow mpiuse
	_ = 2 //lint:allow nosuchrule a perfectly good reason
	_ = 3 //lint:allow hotalloc grows once per run, not per step
}
`
	_, set := collectFrom(t, src, analysis.AnalyzerNames())

	if len(set.Malformed) != 2 {
		t.Fatalf("got %d malformed directives, want 2: %v", len(set.Malformed), set.Malformed)
	}
	if set.Allows(diagAt("mpiuse", 4)) {
		t.Error("reason-less directive still suppressed its rule")
	}
	if set.Allows(diagAt("nosuchrule", 5)) {
		t.Error("unknown-rule directive still suppressed")
	}
	if !set.Allows(diagAt("hotalloc", 6)) {
		t.Error("valid hotalloc directive was rejected")
	}
}

// TestSuppressCycleReportedSiteOnly pins that a directive silences only
// what is reported at its own site: a finding that involves several call
// sites (the arms of a rank-conditioned branch, the legs of a wait
// cycle) is reported at exactly one of them, and a suppression at
// another leg does not apply.
func TestSuppressCycleReportedSiteOnly(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //lint:allow mpiuse every rank takes this arm in lockstep
	_ = 2
}
`
	_, set := collectFrom(t, src, nil)

	reported := diagAt("mpiuse", 4)  // the collective the finding is reported at
	otherLeg := diagAt("mpiuse", 14) // the matching call in the peer branch
	if !set.Allows(reported) {
		t.Error("directive at the reported site did not suppress the diagnostic")
	}
	if set.Allows(otherLeg) {
		t.Error("directive at one call site suppressed a diagnostic reported at another")
	}
}
