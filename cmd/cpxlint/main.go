// Command cpxlint prints what analysis.Check finds over the module: the
// determinism, mpiuse, floatreduce and hotalloc analyzers plus the
// perfgate compiler-fact gate (internal/analysis). The same check runs
// under `go test ./internal/analysis` (TestModuleLintsClean), so tier-1
// enforces it; this command is for reading the findings.
//
// Usage:
//
//	cpxlint [-v] [module-root]
//
// The module root defaults to the nearest directory containing go.mod,
// searching upward from the working directory. Diagnostics print as
//
//	path/file.go:line:col: [rule] message
//
// and -v lists the suppressed ones too. A diagnostic is silenced by a
// reviewed suppression on the same line or the line above:
//
//	//lint:allow <rule> <reason>
//
// Exit status: 0 clean, 1 unsuppressed diagnostics (including malformed
// suppressions), 2 load/type-check/perfgate-build failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"cpx/internal/analysis"
)

func main() {
	verbose := flag.Bool("v", false, "report suppressed diagnostics too")
	flag.Parse()

	root := flag.Arg(0)
	if root == "" {
		var err error
		if root, err = findModuleRoot(); err != nil {
			fmt.Fprintln(os.Stderr, "cpxlint:", err)
			os.Exit(2)
		}
	}

	res, err := analysis.Check(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cpxlint:", err)
		os.Exit(2)
	}
	for _, d := range res.Kept {
		fmt.Println(d)
	}
	if *verbose {
		for _, d := range res.Suppressed {
			fmt.Printf("%s (suppressed)\n", d)
		}
	}
	fmt.Fprintf(os.Stderr, "cpxlint: %d package(s), %d diagnostic(s), %d suppressed\n",
		res.Packages, len(res.Kept), len(res.Suppressed))
	if len(res.Kept) > 0 {
		os.Exit(1)
	}
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
