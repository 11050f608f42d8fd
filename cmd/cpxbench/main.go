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
	todo, o, code := parse(args, stderr)
	if todo == nil {
		return code
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

// parse reads the flags and resolves -exp to the experiments to run. A
// nil todo means do not run, and exit with the returned code: 0 after
// -h, 2 on a usage error or an unknown experiment id.
func parse(args []string, stderr io.Writer) (todo []harness.Experiment, o harness.Options, code int) {
	fs := flag.NewFlagSet("cpxbench", flag.ContinueOnError)
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
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil, o, 0
		}
		return nil, o, 2
	}

	o = harness.DefaultOptions()
	o.Quick = *quick
	o.Verbose = *verbose
	if *exp == "all" {
		return harness.Catalogue, o, 0
	}
	e, ok := harness.Lookup(*exp)
	if !ok {
		fmt.Fprintf(stderr, "cpxbench: unknown experiment %q (want %s, or all)\n", *exp, strings.Join(harness.IDs(), ", "))
		return nil, o, 2
	}
	return []harness.Experiment{e}, o, 0
}
