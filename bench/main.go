// Command bench is the simulator's end-to-end benchmark. It runs one
// workload for a time budget, each repetition in a fresh child process,
// checks the simulated output, and prints every metric by name and unit.
// Build and run it from the repository root with bench/run.sh:
//
//	bash bench/run.sh --workload paper-medium --seed 1 --seconds 20 --trace 0
//
// --trace 1 also runs one traced child, which records spans around the
// calls into each layer, runs the per-layer probes, writes the spans to
// -spans, and prints the per-layer metrics instead of the end-to-end
// ones. The last line of standard output is always the JSON result;
// README.md describes the workloads and every metric.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"snic/internal/sim"
)

// metricDef names one metric and its unit; the lists below must match
// BENCHMARK.json (the package test checks).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"items_per_s", "1/s"},
	{"tail_ms", "ms"},
}

var perLayer = []metricDef{
	{"engine.jobs", "count"},
	{"engine.busy_s", "s"},
	{"engine.parallelism", "ratio"},
	{"engine.idle_s", "s"},
	{"engine.slowest_job_s", "s"},
	{"engine.overhead_us_per_job", "us"},
	{"nf.new_stream_ms", "ms"},
	{"nf.stream_ns_per_op", "ns"},
	{"nf.monitor_ns_per_pkt", "ns"},
	{"trace.template_build_ms", "ms"},
	{"trace.caida_ns_per_pkt", "ns"},
	{"cpu.ns_per_instr", "ns"},
	{"cpu.self_ns_per_instr", "ns"},
	{"cpu.instr", "count"},
	{"cache.l1_ns_per_access", "ns"},
	{"cache.l2_ns_per_access", "ns"},
	{"cache.l1_hit_ratio", "ratio"},
	{"cache.l2_hit_ratio", "ratio"},
	{"bus.ns_per_request", "ns"},
	{"bus.wait_cycles_per_grant", "cycles"},
	{"snic.launch_ms.cold.p50", "ms"},
	{"snic.launch_ms.cold.p99", "ms"},
	{"snic.attest_ms.cold.p50", "ms"},
	{"snic.attest_ms.cold.p99", "ms"},
	{"snic.teardown_ms.cold.p50", "ms"},
	{"snic.teardown_ms.cold.p99", "ms"},
	{"snic.launch_ms.fast.p50", "ms"},
	{"snic.launch_ms.fast.p99", "ms"},
	{"snic.teardown_ms.fast.p50", "ms"},
	{"snic.teardown_ms.fast.p99", "ms"},
	{"snic.pool_hit_ratio", "ratio"},
	{"attest.quote_ms", "ms"},
	{"attest.batch16_ms", "ms"},
	{"attest.vendor_setup_ms", "ms"},
	{"fleet.place_ms", "ms"},
	{"fleet.remove_ms", "ms"},
	{"fleet.burst_ms", "ms"},
	{"fleet.churn_ms", "ms"},
	{"fleet.drain_ms", "ms"},
	{"fleet.oper_ms", "ms"},
	{"api.place_ms", "ms"},
	{"api.burst_ms", "ms"},
	{"api.churn_ms", "ms"},
	{"api.read_oper_ms", "ms"},
	{"api.read_prom_ms", "ms"},
	{"api.overhead_ms", "ms"},
	{"api.read_bytes", "bytes"},
	{"obs.prom_text_ms", "ms"},
	{"obs.dump_ms", "ms"},
	{"obs.series", "count"},
	{"obs.spans", "count"},
	{"exp.fig5b_4nf_median_pct", "%"},
	{"exp.fig5b_4nf_p99_pct", "%"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.alloc_mb", "MB"},
	{"bench.trace_overhead_pct", "%"},
}

const (
	minReps = 3  // repetitions a run makes whatever the budget
	maxReps = 20 // repetitions a run never exceeds
	// setupsPerRep set-up-only children run before each repetition. A
	// set-up takes milliseconds and single samples vary by a third, so
	// setup_s takes the median of many.
	setupsPerRep  = 10
	childTimeout  = 150 * time.Second
	tracedTimeout = 160 * time.Second
)

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "workload seed (1 for development, 2 held out)")
	seconds := flag.Float64("seconds", 20, "time budget for the timed repetitions, which number at least 3")
	traceMode := flag.Int("trace", 0, "1: also run one traced child and print the per-layer metrics")
	snicdBin := flag.String("snicd", "", "snicd binary the fleet workload starts (bench/run.sh builds it)")
	workdir := flag.String("workdir", ".bench_build", "scratch directory for generated files")
	spans := flag.String("spans", "", "span file of the traced child (default <workdir>/spans/<workload>-seed<N>.json)")
	child := flag.String("child", "", "run one repetition of this workload in this process (used by the parent)")
	setupOnly := flag.Bool("setup-only", false, "child: exit once set up")
	traced := flag.Bool("traced", false, "child: record spans and run the per-layer probes")
	flag.Parse()

	if *child != "" {
		if !validWorkload(*child) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *child)
			os.Exit(2)
		}
		err := runChild(*child, *seed, childOpts{
			snicd: *snicdBin, workdir: *workdir, spans: *spans,
			setupOnly: *setupOnly, traced: *traced,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: child:", err)
			os.Exit(1)
		}
		return
	}
	if !validWorkload(*workload) || (*traceMode != 0 && *traceMode != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: want --workload one of %s and --trace 0 or 1\n", strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	if *workload == "fleet" && *snicdBin == "" {
		fmt.Fprintln(os.Stderr, "bench: the fleet workload needs -snicd (bench/run.sh passes it)")
		os.Exit(2)
	}
	if err := checkDeclared("BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *spans == "" {
		*spans = filepath.Join(*workdir, "spans", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
	}
	p := parent{workload: *workload, seed: *seed, snicd: *snicdBin, workdir: *workdir, spans: *spans}
	res, err := p.run(time.Duration(*seconds*float64(time.Second)), *traceMode == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// checkDeclared returns an error unless the workloads and the metric
// names and units equal those the BENCHMARK.json at path declares. Every
// run checks, so the file and the printed metrics cannot drift apart.
func checkDeclared(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var diffs []string
	metrics := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		for i := 0; i < max(len(got), len(want)); i++ {
			var g, w string
			if i < len(got) {
				g = got[i].name + " (" + got[i].unit + ")"
			}
			if i < len(want) {
				w = want[i].Name + " (" + want[i].Unit + ")"
			}
			if g != w {
				diffs = append(diffs, fmt.Sprintf("%s[%d]: bench prints %q, %s lists %q", kind, i, g, path, w))
			}
		}
	}
	metrics("end_to_end", endToEnd, doc.EndToEnd)
	metrics("per_layer", perLayer, doc.PerLayer)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		diffs = append(diffs, fmt.Sprintf("workloads: bench runs %v, %s lists %v", workloadNames, path, names))
	}
	if len(diffs) > 0 {
		return errors.New(strings.Join(diffs, "\n"))
	}
	return nil
}

func validWorkload(w string) bool {
	for _, n := range workloadNames {
		if n == w {
			return true
		}
	}
	return false
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// parent runs the children of one benchmark run and folds their results.
type parent struct {
	workload, snicd, workdir, spans string
	seed                            uint64
}

// spawn starts a child, times it from exec to its "ready" line, and
// returns its result line (nil for a set-up-only child).
func (p parent) spawn(timeout time.Duration, extra ...string) (float64, *childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	args := append([]string{"-child", p.workload, "-seed", fmt.Sprint(p.seed),
		"-snicd", p.snicd, "-workdir", p.workdir, "-spans", p.spans}, extra...)
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the parent
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, err
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(nil, 64<<20)
	var setup float64
	var last string
	for sc.Scan() {
		if sc.Text() == "ready" && setup == 0 {
			setup = time.Since(start).Seconds()
			continue
		}
		last = sc.Text()
	}
	if err := cmd.Wait(); err != nil {
		return setup, nil, fmt.Errorf("child %s: %w", strings.Join(extra, " "), err)
	}
	if setup == 0 {
		return 0, nil, errors.New("child never reported ready")
	}
	if last == "" {
		return setup, nil, nil
	}
	var res childResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return setup, nil, fmt.Errorf("child result: %w", err)
	}
	return setup, &res, nil
}

// run makes the set-up samples and the timed repetitions, checks the
// outputs, runs the traced child if asked, and builds the result.
func (p parent) run(budget time.Duration, traced bool) (*result, error) {
	res := &result{Metrics: map[string]value{}}
	var reps []*childResult
	digests := map[string]int{}
	fold := func(r *childResult) {
		res.Attempted += r.Outcome.Attempted
		res.Failed += r.Outcome.Failed
		if r.Err != "" {
			res.Failed++
			fmt.Fprintln(os.Stderr, "bench: workload failed:", r.Err)
		}
		digests[r.Outcome.Digest]++
	}
	// Set-up samples are spread over the run, a few before each
	// repetition, so their median sees the same machine as the timings.
	var setups []float64
	start := time.Now()
	var last time.Duration
	for len(reps) < maxReps && (len(reps) < minReps || time.Since(start)+last <= budget) {
		t := time.Now()
		for i := 0; i < setupsPerRep; i++ {
			s, _, err := p.spawn(childTimeout, "-setup-only")
			if err != nil {
				return nil, err
			}
			setups = append(setups, s)
		}
		_, r, err := p.spawn(childTimeout)
		if err != nil {
			return nil, err
		}
		if r == nil {
			return nil, errors.New("child printed no result")
		}
		last = time.Since(t)
		reps = append(reps, r)
		fold(r)
	}

	if p.workload == "fleet" {
		checked, bad, err := checkScenarios(p.snicd)
		if err != nil {
			return nil, err
		}
		res.Attempted += checked
		res.Failed += bad
	}

	var tr *childResult
	if traced {
		var err error
		if _, tr, err = p.spawn(tracedTimeout, "-traced"); err != nil {
			return nil, err
		}
		if tr == nil {
			return nil, errors.New("traced child printed no result")
		}
		fold(tr)
	}
	// Observation must not perturb the simulation: every repetition and
	// the traced run produce one digest.
	res.Attempted++
	if len(digests) != 1 || digests[""] > 0 {
		res.Failed++
		fmt.Fprintf(os.Stderr, "bench: simulated output digests differ across runs: %v\n", digests)
	}

	e2e := e2eSamples(reps, setups)
	report(os.Stderr, p.workload, len(reps), e2e)
	if !traced {
		for _, m := range endToEnd {
			res.put(m, sim.Median(e2e[m.name]))
		}
	} else {
		if tr.Engine != nil {
			fmt.Fprintf(os.Stderr, "bench: slowest engine job of the traced run: %s %.3fs\n", tr.Engine.Slowest, tr.Engine.SlowestS)
		}
		layers := layerMetrics(p.workload, reps, tr)
		for _, m := range perLayer {
			v, ok := layers[m.name]
			if !ok {
				res.Failed++
				fmt.Fprintf(os.Stderr, "bench: the traced run did not measure %s\n", m.name)
			}
			res.put(m, v)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// e2eSamples returns every end-to-end metric's samples: one per
// repetition, and one per set-up-only child for set-up time.
func e2eSamples(reps []*childResult, setups []float64) map[string][]float64 {
	return map[string][]float64{
		"setup_s":     setups,
		"wall_s":      collect(reps, func(r *childResult) float64 { return r.WallS }),
		"cpu_s":       collect(reps, func(r *childResult) float64 { return r.CPUS }),
		"peak_rss_mb": collect(reps, func(r *childResult) float64 { return r.RSSMB }),
		"items_per_s": collect(reps, func(r *childResult) float64 { return r.Outcome.Items / r.WallS }),
		"tail_ms":     tailSamples(reps),
	}
}

// tailSamples returns the tail latency of the run's units, engine jobs
// or HTTP requests. When three repetitions hold at least 100 units, it is
// one figure over the units of every repetition, at the highest of p99,
// p95 and p90 that leaves ten of three repetitions' units beyond it. The
// level depends only on the units per repetition, not on how many
// repetitions the budget allowed. With fewer units, they are the parallel
// parts of one sweep, and the samples are each repetition's slowest unit,
// the sweep's critical path.
func tailSamples(reps []*childResult) []float64 {
	var all []float64
	perRep := math.MaxInt
	for _, r := range reps {
		all = append(all, r.Outcome.UnitMS...)
		perRep = min(perRep, len(r.Outcome.UnitMS))
	}
	if q := tailQuantile(minReps * perRep); q < 1 {
		return []float64{sim.Percentile(all, q)}
	}
	return collect(reps, func(r *childResult) float64 { return sim.Percentile(r.Outcome.UnitMS, 1) })
}

// layerMetrics merges the traced child's probe metrics with the figures
// the timed repetitions measured: the engine's (except for fleet, whose
// sweeps run inside snicd and come from the engine probe), the Go
// runtime's, and the tracing overhead.
func layerMetrics(workload string, reps []*childResult, tr *childResult) map[string]float64 {
	layers := map[string]float64{}
	for k, v := range tr.Layers {
		layers[k] = v
	}
	median := func(f func(*childResult) float64) float64 { return sim.Median(collect(reps, f)) }
	if workload != "fleet" {
		layers["engine.jobs"] = median(func(r *childResult) float64 { return float64(r.Engine.Jobs) })
		layers["engine.busy_s"] = median(func(r *childResult) float64 { return r.Engine.BusyS })
		layers["engine.parallelism"] = median(func(r *childResult) float64 { return r.Engine.parallelism() })
		layers["engine.idle_s"] = median(func(r *childResult) float64 { return r.Engine.idleS() })
		layers["engine.slowest_job_s"] = median(func(r *childResult) float64 { return r.Engine.SlowestS })
	}
	layers["go.gc_cpu_frac"] = median(func(r *childResult) float64 { return r.GCFrac })
	layers["go.alloc_mb"] = median(func(r *childResult) float64 { return r.AllocMB })
	layers["bench.trace_overhead_pct"] = (tr.WallS/median(func(r *childResult) float64 { return r.WallS }) - 1) * 100
	return layers
}

// put records one metric; a value that is not a finite number counts as
// a failure.
func (r *result) put(m metricDef, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.Failed++
		fmt.Fprintf(os.Stderr, "bench: %s is not a number\n", m.name)
		v = 0
	}
	r.Metrics[m.name] = value{v, m.unit}
}

func collect(reps []*childResult, f func(*childResult) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// tailQuantile is the highest of p99, p95 and p90 that leaves at least
// ten of n samples beyond it; with fewer than 100 samples, 1: the
// slowest sample.
func tailQuantile(n int) float64 {
	for _, pct := range []int{99, 95, 90} {
		if n*(100-pct) >= 10*100 {
			return float64(pct) / 100
		}
	}
	return 1
}

// report prints each end-to-end metric's median, min and max over the
// run's samples, the figures bench/results records.
func report(w io.Writer, workload string, reps int, e2e map[string][]float64) {
	fmt.Fprintf(w, "bench: %s, %d repetitions in fresh processes\n", workload, reps)
	fmt.Fprintf(w, "  %-12s %14s %14s %14s %6s  %s\n", "metric", "median", "min", "max", "n", "unit")
	for _, m := range endToEnd {
		xs := e2e[m.name]
		fmt.Fprintf(w, "  %-12s %14.6g %14.6g %14.6g %6d  %s\n", m.name,
			sim.Median(xs), sim.Percentile(xs, 0), sim.Percentile(xs, 1), len(xs), m.unit)
	}
}
