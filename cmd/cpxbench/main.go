// Command cpxbench regenerates the paper's evaluation tables and figures
// on the virtual-time ARCHER2 model.
//
// Usage:
//
//	cpxbench -exp <id>            # one experiment
//	cpxbench -exp all             # everything, in catalogue order (long)
//	cpxbench -exp <id> -quick -v  # fast smoke geometry, progress on stderr
//
// The experiment ids are harness.Catalogue's; `cpxbench -h` lists them
// with the paper item each reproduces. Tables go to stdout, so
// `cpxbench -exp <id> > results/<id>.txt` records one.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cpx/internal/harness"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cpxbench", flag.ExitOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment id (listed below), or all")
	quick := fs.Bool("quick", false, "shrink sweeps for a fast smoke run")
	verbose := fs.Bool("v", false, "print progress to stderr")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "Usage of cpxbench:")
		fs.PrintDefaults()
		fmt.Fprintln(stderr, "experiments:")
		for _, e := range harness.Catalogue {
			fmt.Fprintf(stderr, "  %-17s %s\n", e.ID, e.Paper)
		}
	}
	fs.Parse(args) // ExitOnError: exits 2 on a bad flag, 0 on -h

	o := harness.DefaultOptions()
	o.Quick = *quick
	o.Verbose = *verbose

	todo := harness.Catalogue
	if *exp != "all" {
		e, ok := harness.Lookup(*exp)
		if !ok {
			fmt.Fprintf(stderr, "cpxbench: unknown experiment %q (want %s, or all)\n", *exp, strings.Join(harness.IDs(), ", "))
			return 2
		}
		todo = []harness.Experiment{e}
	}
	for _, e := range todo {
		tables, err := e.Run(o)
		if err != nil {
			fmt.Fprintf(stderr, "cpxbench: %s: %v\n", e.ID, err)
			return 1
		}
		for _, t := range tables {
			fmt.Fprintln(stdout, t.String())
		}
	}
	return 0
}
