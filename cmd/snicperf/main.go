// Command snicperf records and compares benchmark runs, maintaining the
// BENCH_<pr>.json trajectory files. Usage:
//
//	go test -bench=. -benchmem . | snicperf -record -o BENCH_5.json -section post -pr 5
//	snicperf BENCH_5.json                  # diff baseline -> post within one file
//	snicperf BENCH_4.json BENCH_5.json     # diff two PRs' representative ("post") runs
//	snicperf -threshold 5 OLD.json NEW.json
//
// -record parses `go test -bench` text from stdin into the file's named
// section, creating the file or replacing just that section. Diff mode
// prints a tabwriter table of ns/op and allocs/op movement and exits 1
// if any benchmark's ns/op regressed by more than -threshold percent
// (benchmarks present on only one side never count). Exit status: 0 ok,
// 1 regression, 2 usage or parse errors — the same contract as
// snicstat.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"snic/internal/perf"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("snicperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	record := fs.Bool("record", false, "parse `go test -bench` output from stdin into -o")
	out := fs.String("o", "BENCH.json", "output file for -record")
	section := fs.String("section", "", `section name: for -record, where to store (default "post"); for a two-file diff, which section of each file to read`)
	pr := fs.Int("pr", 0, "PR number to stamp into the file on -record")
	threshold := fs.Float64("threshold", 10, "ns/op regression tolerance in percent before exit 1")
	format := fs.String("format", "table", `diff output format: "table" or "json"`)
	fs.Usage = func() {
		fmt.Fprintln(stderr, `usage: go test -bench=. -benchmem . | snicperf -record -o BENCH_N.json [-section post] [-pr N]
       snicperf [-threshold PCT] BENCH_N.json             (baseline vs post)
       snicperf [-threshold PCT] OLD.json NEW.json`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "snicperf:", err)
		return 2
	}

	if *record {
		if fs.NArg() != 0 {
			fs.Usage()
			return 2
		}
		if *section == "" {
			*section = "post"
		}
		n, err := doRecord(stdin, *out, *section, *pr)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "snicperf: recorded %d benchmarks into %s section %q\n", n, *out, *section)
		return 0
	}

	var old, cur *perf.Summary
	switch fs.NArg() {
	case 1:
		f, err := readFile(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		old, cur = f.Sections["baseline"], f.Sections["post"]
		if old == nil || cur == nil {
			return fail(fmt.Errorf("%s: single-file diff needs both \"baseline\" and \"post\" sections", fs.Arg(0)))
		}
	case 2:
		var err error
		if old, err = readSection(fs.Arg(0), *section); err != nil {
			return fail(err)
		}
		if cur, err = readSection(fs.Arg(1), *section); err != nil {
			return fail(err)
		}
	default:
		fs.Usage()
		return 2
	}

	deltas := perf.Diff(old, cur)
	switch *format {
	case "", "table":
		fmt.Fprint(stdout, perf.RenderDiff(deltas, *threshold))
	case "json":
		doc, err := perf.RenderDiffJSON(deltas, *threshold)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, doc)
	default:
		return fail(fmt.Errorf("unknown -format %q (want table or json)", *format))
	}
	if n := perf.Regressions(deltas, *threshold); n > 0 {
		if *format != "json" {
			fmt.Fprintf(stdout, "%d of %d benchmarks regressed beyond %s%%\n", n, len(deltas), strconv.FormatFloat(*threshold, 'g', -1, 64))
		}
		return 1
	}
	return 0
}

// doRecord parses benchmark text from r into path's section, creating
// the file or replacing just that section, and returns how many
// benchmarks it recorded.
func doRecord(r io.Reader, path, section string, pr int) (int, error) {
	s, err := perf.ParseBench(r)
	if err != nil {
		return 0, err
	}
	f := &perf.File{Sections: map[string]*perf.Summary{}}
	if data, err := os.ReadFile(path); err == nil {
		if f, err = perf.ReadFile(bytes.NewReader(data)); err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
	}
	f.Sections[section] = s
	if pr != 0 {
		f.PR = pr
	}
	data, err := f.Marshal()
	if err != nil {
		return 0, err
	}
	return len(s.Benchmarks), os.WriteFile(path, data, 0o644)
}

func readFile(path string) (*perf.File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := perf.ReadFile(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// readSection reads one section of a BENCH file for a two-file diff.
func readSection(path, section string) (*perf.Summary, error) {
	f, err := readFile(path)
	if err != nil {
		return nil, err
	}
	s, err := f.Section(section)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
