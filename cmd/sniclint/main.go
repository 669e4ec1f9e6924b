// Command sniclint runs the module's invariant checks — the static
// gates behind the reproduction's determinism, isolation, and purity
// guarantees. Usage:
//
//	sniclint ./...                             # whole module (what make lint runs)
//	sniclint -checks map-order ./...           # one check
//	sniclint -format json ./internal/...       # machine-readable findings
//	sniclint -format sarif ./... > lint.sarif  # SARIF 2.1.0 for code-scanning UIs
//	sniclint -list                             # check IDs and what they guard
//
// The interprocedural checks (isolation-boundary, transitive-determinism,
// lock-discipline) print the call path that makes each finding reachable.
// Findings can be waived per site with //lint:allow <check-id> <reason>;
// stale waivers are findings themselves.
// Exit status: 0 clean, 1 findings, 2 usage or load errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"snic/internal/lint"
)

func main() {
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sniclint:", err)
		os.Exit(2)
	}
	os.Exit(run(os.Args[1:], dir, os.Stdout, os.Stderr))
}

// run lints the module that encloses dir; package patterns are relative
// to that module's root.
func run(args []string, dir string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sniclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checkList := fs.String("checks", "", "comma-separated check IDs to run (default: all)")
	format := fs.String("format", "text", "output format: text, json, or sarif")
	list := fs.Bool("list", false, "list check IDs and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: sniclint [-checks id,id] [-format text|json|sarif] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "sniclint:", err)
		return 2
	}

	if *list {
		for _, c := range lint.Registry() {
			fmt.Fprintf(stdout, "%-24s %s\n", c.Name(), c.Doc())
		}
		return 0
	}
	if *format != "text" && *format != "json" && *format != "sarif" {
		return fail(fmt.Errorf("unknown format %q (want text, json, or sarif)", *format))
	}

	checks, err := lint.Select(strings.Split(*checkList, ","))
	if err != nil {
		return fail(err)
	}
	root, err := lint.FindModuleRoot(dir)
	if err != nil {
		return fail(err)
	}
	loader := lint.NewLoader("snic", root)
	pkgs, err := loader.LoadPatterns(fs.Args())
	if err != nil {
		return fail(err)
	}

	diags := lint.Run(loader.Fset, pkgs, checks)
	trim := root + string(os.PathSeparator)
	var out string
	switch *format {
	case "json":
		out, err = lint.RenderJSON(diags, trim)
	case "sarif":
		out, err = lint.RenderSARIF(diags, trim)
	default:
		out = lint.RenderText(diags, trim)
	}
	if err != nil {
		return fail(err)
	}
	fmt.Fprint(stdout, out)
	if len(diags) > 0 {
		if *format == "text" {
			fmt.Fprintf(stderr, "sniclint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}
