// Command snicstat inspects snicbench/snicd metric output. Modes:
//
// Diff (the default) compares two metric dumps:
//
//	snicbench -experiment fig6 -metrics 2> before.txt
//	...change something...
//	snicbench -experiment fig6 -metrics 2> after.txt
//	snicstat before.txt after.txt        # only series that changed
//	snicstat -all before.txt after.txt   # every series
//
// -hist summarizes every histogram in one dump: count, sum, and
// p50/p90/p99 interpolated from the power-of-two buckets:
//
//	snicstat -hist after.txt
//
// -promcheck validates a Prometheus text exposition payload ("-" reads
// stdin) with the in-repo stdlib validator, the no-dependency stand-in
// for promtool; snicd's TestServeTelemetry applies the same validator to
// a live daemon's exposition:
//
//	curl -s 'localhost:8080/v1/metrics?format=prom' | snicstat -promcheck -
//
// -watch polls a live snicd, printing its run-progress line and how
// many metric series changed since the previous poll:
//
//	snicstat -watch http://localhost:8080 -interval 2s
//	snicstat -watch http://localhost:8080 -n 5   # five polls, then exit
//
// Dumps are the deterministic "# snic-metrics v1" text format written
// by internal/obs: because they are byte-identical across -workers
// counts, any difference snicstat reports is a real behavioural change,
// not scheduling noise. (-watch output is the exception by design: it
// reads the wall-clock-fed live telemetry plane.)
//
// Exit status: 0 when the dumps are identical (or the check passed), 1
// when they differ (or validation failed), 2 for usage or parse errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"encoding/json"

	"snic/internal/obs"
)

func parseFile(path string) (map[string]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := obs.ParseDump(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("snicstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	all := fs.Bool("all", false, "diff: show unchanged series too")
	hist := fs.String("hist", "", "summarize the histograms in DUMP (p50/p90/p99) and exit")
	promcheck := fs.String("promcheck", "", "validate a Prometheus exposition FILE (- = stdin) and exit")
	watch := fs.String("watch", "", "poll a live snicd at URL, printing progress and metric churn")
	interval := fs.Duration("interval", 2*time.Second, "watch: poll interval")
	polls := fs.Int("n", 0, "watch: stop after N polls (0 = until killed)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: snicstat [-all] OLD.txt NEW.txt")
		fmt.Fprintln(stderr, "       snicstat -hist DUMP.txt")
		fmt.Fprintln(stderr, "       snicstat -promcheck FILE|-")
		fmt.Fprintln(stderr, "       snicstat -watch URL [-interval D] [-n N]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	switch {
	case *hist != "":
		return runHist(*hist, stdout, stderr)
	case *promcheck != "":
		return runPromCheck(*promcheck, stdin, stdout, stderr)
	case *watch != "":
		return runWatch(strings.TrimRight(*watch, "/"), *interval, *polls, stdout, stderr)
	}

	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	oldDump, err := parseFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "snicstat:", err)
		return 2
	}
	newDump, err := parseFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "snicstat:", err)
		return 2
	}

	text, changed := obs.Diff(oldDump, newDump, *all)
	if changed == 0 && !*all {
		fmt.Fprintf(stdout, "identical: %d series\n", len(oldDump))
		return 0
	}
	fmt.Fprint(stdout, text)
	if changed > 0 {
		fmt.Fprintf(stdout, "%d of %d series changed\n", changed, len(oldDump)+countAdded(oldDump, newDump))
		return 1
	}
	return 0
}

// countAdded counts series present only in the new dump, so the summary
// denominator covers the union.
func countAdded(oldDump, newDump map[string]int64) int {
	n := 0
	for k := range newDump {
		if _, ok := oldDump[k]; !ok {
			n++
		}
	}
	return n
}

// runHist renders percentile summaries for every histogram in a dump.
func runHist(path string, stdout, stderr io.Writer) int {
	dump, err := parseFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "snicstat:", err)
		return 2
	}
	sums := obs.HistSummaries(dump)
	if len(sums) == 0 {
		fmt.Fprintln(stdout, "no histograms in dump")
		return 0
	}
	tw := tabwriter.NewWriter(stdout, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "series\tcount\tsum\tp50\tp90\tp99\t")
	for _, s := range sums {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.0f\t%.0f\t%.0f\t\n", s.Series, s.Count, s.Sum, s.P50, s.P90, s.P99)
	}
	tw.Flush()
	fmt.Fprintln(stdout, "(percentiles interpolated from power-of-two buckets: order-of-magnitude reads)")
	return 0
}

// runPromCheck validates a Prometheus exposition payload.
func runPromCheck(path string, stdin io.Reader, stdout, stderr io.Writer) int {
	rd := stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(stderr, "snicstat:", err)
			return 2
		}
		defer f.Close()
		rd = f
	}
	if err := obs.ValidateExposition(rd); err != nil {
		fmt.Fprintln(stderr, "snicstat: exposition invalid:", err)
		return 1
	}
	fmt.Fprintln(stdout, "exposition ok")
	return 0
}

// watchTimeout bounds each -watch request. It is independent of the
// poll interval: a short interval asks for frequent polls, not for
// giving up on a daemon that takes longer than that to answer.
const watchTimeout = 10 * time.Second

// runWatch polls a live snicd's /v1/metrics and /v1/progress, printing
// one line per poll: the daemon's progress snapshot plus the number of
// metric series that changed since the previous poll.
func runWatch(base string, interval time.Duration, polls int, stdout, stderr io.Writer) int {
	client := &http.Client{Timeout: watchTimeout}
	var prev map[string]int64
	for i := 0; polls == 0 || i < polls; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		dump, err := fetchDump(client, base+"/v1/metrics")
		if err != nil {
			fmt.Fprintln(stderr, "snicstat:", err)
			return 1
		}
		snap, err := fetchProgress(client, base+"/v1/progress")
		if err != nil {
			fmt.Fprintln(stderr, "snicstat:", err)
			return 1
		}
		churn := ""
		if prev != nil {
			_, changed := obs.Diff(prev, dump, false)
			churn = fmt.Sprintf(" | %d series changed", changed)
		}
		fmt.Fprintf(stdout, "%s | %d series%s\n", snap.String(), len(dump), churn)
		prev = dump
	}
	return 0
}

func fetchDump(client *http.Client, url string) (map[string]int64, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return obs.ParseDump(resp.Body)
}

func fetchProgress(client *http.Client, url string) (obs.ProgressSnapshot, error) {
	var snap obs.ProgressSnapshot
	resp, err := client.Get(url)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}
