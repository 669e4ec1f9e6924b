// Command snicbench regenerates every table and figure from the paper's
// evaluation. Usage:
//
//	snicbench -experiment all            # everything (minutes at -scale full)
//	snicbench -experiment table2         # one table
//	snicbench -experiment fig5a -scale small
//	snicbench -experiment fig5b -workers 8 -v
//
// Run with -list for the experiment names (the §3.3 cross-device attack
// outcome matrix is the "attacks" experiment).
//
// Sweeps run on the internal/engine worker pool. Output is bit-identical
// for every -workers value (each configuration point draws from an RNG
// derived from its stable job key, never from scheduling order), so
// -workers trades wall-clock only. -v reports per-sweep engine metrics
// on stderr: job counts, wall time vs summed job time, and the slowest
// configuration point. -cpuprofile FILE writes a CPU profile of the run
// for go tool pprof; like -v, it never changes stdout.
//
// Observability (internal/obs) rides along on demand: -trace FILE
// writes a Chrome-trace-event JSON file of cycle-stamped spans
// (chrome://tracing, Perfetto), and -metrics prints the simulated-time
// metric dump on stderr (diff two dumps with cmd/snicstat;
// -metrics-format prom emits Prometheus exposition instead). Both are
// deterministic — byte-identical for every -workers value — and
// attaching them never changes experiment output. -trace-cap N bounds
// tracing to a flight recorder (keep-last-N spans per track, constant
// memory at any scale); a truncated track dumps a dropped_spans
// counter, and below capacity the exports are byte-identical to the
// unbounded form. -progress D is the one wall-clock surface: a periodic
// stderr line (jobs done, packets drawn, throughput, ETA, checkpoint
// lag) fed by the engine's quarantined wall collector.
//
// The "replay" experiment streams a CAIDA-shaped window (full scale:
// the paper's 26.7 M flows x 50 packets each) through per-shard
// Monitor models in O(1) memory. -checkpoint FILE makes it resumable:
// an interrupted run (or one cut short by -stop-after N, the
// deterministic "kill" TestReplayResumesByteIdentically drives) saves
// its cursors there and exits 3;
// rerunning with the same flags resumes and the final output is
// byte-identical to an uninterrupted run.
//
// Exit status: 0 on success, 1 when an experiment fails, 2 for usage
// errors (unknown experiment or scale, bad -format, bad flags), 3 when
// a replay was interrupted with its checkpoint saved.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"snic/internal/engine"
	"snic/internal/exp"
	"snic/internal/nf"
	"snic/internal/obs"
)

// bench carries everything an experiment needs: the engine-backed
// runner, the scale configuration, the output emitter and its writer,
// and the NF profiles memoized across the experiments that share them.
type bench struct {
	runner     *exp.Runner
	cfgs       configs
	outFmt     exp.Format
	out        io.Writer
	profiles   []exp.NFProfile
	checkpoint string
	stopAfter  uint64
}

func (b *bench) emit(t exp.Table) error {
	s, err := t.Render(b.outFmt)
	if err != nil {
		return err
	}
	fmt.Fprintln(b.out, s)
	return nil
}

// profile memoizes the shared NF profiling sweep (table6 and table8
// both consume it, whichever runs first).
func (b *bench) profile() error {
	if b.profiles != nil {
		return nil
	}
	var err error
	b.profiles, err = b.runner.ProfileNFs(b.cfgs.suite, b.cfgs.flows, b.cfgs.packets)
	return err
}

// registry maps every experiment name to its runner. Iteration over the
// map never determines output: -list and -experiment all go through
// experimentNames(), which sorts, so ordering is a property of the
// names themselves rather than of map or declaration order.
var registry = map[string]func(*bench) error{
	"table2": func(b *bench) error { return b.emit(exp.Table2()) },
	"table3": func(b *bench) error { return b.emit(exp.Table3()) },
	"table4": func(b *bench) error { return b.emit(exp.Table4()) },
	"table5": func(b *bench) error {
		t, err := b.runner.Table5()
		if err != nil {
			return err
		}
		return b.emit(t)
	},
	"table6": func(b *bench) error {
		if err := b.profile(); err != nil {
			return err
		}
		return b.emit(exp.Table6(b.profiles))
	},
	"table7": func(b *bench) error {
		t, err := b.runner.Table7(0)
		if err != nil {
			return err
		}
		return b.emit(t)
	},
	"table8": func(b *bench) error {
		if err := b.profile(); err != nil {
			return err
		}
		return b.emit(exp.Table8(b.profiles))
	},
	"tco":      func(b *bench) error { return b.emit(exp.TCO()) },
	"headline": func(b *bench) error { return b.emit(exp.Headline()) },
	"fig5a": func(b *bench) error {
		rows, err := b.runner.Figure5a(b.cfgs.fig5, b.cfgs.l2Sizes)
		if err != nil {
			return err
		}
		if err := b.emit(exp.RenderFig5("Figure 5a: IPC degradation vs L2 size (2 NFs)", rows)); err != nil {
			return err
		}
		med, p99 := exp.MedianAcrossNFs(rows, "4MB")
		fmt.Fprintf(b.out, "  2 NFs @ 4MB: mean-of-medians %.2f%%, p99 %.2f%% (paper: 0.24%% median)\n\n", med, p99)
		return nil
	},
	"fig5b": func(b *bench) error {
		rows, err := b.runner.Figure5b(b.cfgs.fig5, b.cfgs.counts)
		if err != nil {
			return err
		}
		if err := b.emit(exp.RenderFig5("Figure 5b: IPC degradation vs co-tenancy (4MB L2)", rows)); err != nil {
			return err
		}
		for _, n := range b.cfgs.counts {
			med, p99 := exp.MedianAcrossNFs(rows, fmt.Sprintf("%d NFs", n))
			fmt.Fprintf(b.out, "  %2d NFs @ 4MB: mean-of-medians %.2f%%, p99 %.2f%%\n", n, med, p99)
		}
		fmt.Fprintln(b.out, "  (paper: 4 NFs 0.93%/1.66%, 8 NFs 3.41%/5.12%, 16 NFs 9.44%/13.71%)")
		fmt.Fprintln(b.out)
		return nil
	},
	"fig5dev": func(b *bench) error {
		rows, err := b.runner.Figure5Devices(b.cfgs.fig5)
		if err != nil {
			return err
		}
		return b.emit(exp.RenderFig5Dev(rows))
	},
	"fig6": func(b *bench) error {
		rows, err := b.runner.Figure6()
		if err != nil {
			return err
		}
		return b.emit(exp.RenderFig6(rows))
	},
	"fig7": func(b *bench) error {
		series, err := b.runner.Figure7(b.cfgs.fig7Seconds, b.cfgs.fig7Rate, 150)
		if err != nil {
			return err
		}
		return b.emit(exp.RenderFig7(series))
	},
	"fig8": func(b *bench) error {
		rows, err := b.runner.Figure8(b.cfgs.fig8Requests)
		if err != nil {
			return err
		}
		return b.emit(exp.RenderFig8(rows))
	},
	"fleet": func(b *bench) error {
		rows, err := b.runner.FleetChurn(b.cfgs.fleetDevices, b.cfgs.fleetEvents)
		if err != nil {
			return err
		}
		return b.emit(exp.RenderFleet(rows))
	},
	"churn": func(b *bench) error {
		rows, err := b.runner.ChurnNF(b.cfgs.churn)
		if err != nil {
			return err
		}
		return b.emit(exp.RenderChurn(rows))
	},
	"replay": func(b *bench) error {
		cfg := b.cfgs.replay
		cfg.CheckpointPath = b.checkpoint
		cfg.StopAfter = b.stopAfter
		res, err := b.runner.ReplayCAIDA(cfg)
		if err != nil {
			return err
		}
		return b.emit(exp.RenderReplay(res))
	},
	"attacks": func(b *bench) error {
		cols, err := b.runner.AttackMatrix()
		if err != nil {
			return err
		}
		return b.emit(exp.RenderAttackMatrix(cols))
	},
}

// experimentNames returns the registry's keys sorted, the only order
// the tool ever exposes.
func experimentNames() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("snicbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	experiment := fs.String("experiment", "all", "which experiment to run (see -list)")
	scale := fs.String("scale", "medium", "fidelity: small | medium | full")
	format := fs.String("format", "text", "output format: text | csv | json")
	workers := fs.Int("workers", 0, "engine worker goroutines (0 = GOMAXPROCS)")
	verbose := fs.Bool("v", false, "report engine metrics per sweep on stderr")
	tracePath := fs.String("trace", "", "write a Chrome-trace-event JSON file of cycle-stamped spans")
	traceCap := fs.Int("trace-cap", 0, "flight recorder: retain at most N spans per track (0 = unbounded)")
	metrics := fs.Bool("metrics", false, "print the simulated-time metric dump on stderr")
	metricsFormat := fs.String("metrics-format", "text", "-metrics format: text (# snic-metrics v1) | prom (Prometheus exposition)")
	progressEvery := fs.Duration("progress", 0, "print a live progress line on stderr every interval (e.g. 2s; wall-clock telemetry, never in results)")
	checkpoint := fs.String("checkpoint", "", "replay: persist/resume shard cursors at FILE")
	stopAfter := fs.Uint64("stop-after", 0, "replay: interrupt each shard after N packets this run (exit 3)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to FILE (go tool pprof)")
	list := fs.Bool("list", false, "list experiment names and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, e := range experimentNames() {
			fmt.Fprintln(stdout, e)
		}
		return 0
	}
	if *experiment != "all" && registry[*experiment] == nil {
		fmt.Fprintf(stderr, "snicbench: unknown experiment %q (valid: %s, all)\n",
			*experiment, strings.Join(experimentNames(), ", "))
		return 2
	}
	cfgs, ok := scaleConfigs(*scale)
	if !ok {
		fmt.Fprintf(stderr, "snicbench: unknown -scale %q (valid: small, medium, full)\n", *scale)
		return 2
	}

	outFmt, err := exp.ParseFormat(*format)
	if err != nil {
		fmt.Fprintln(stderr, "snicbench:", err)
		return 2
	}
	if *metricsFormat != "text" && *metricsFormat != "prom" {
		fmt.Fprintf(stderr, "snicbench: unknown -metrics-format %q (want text or prom)\n", *metricsFormat)
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "snicbench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, "snicbench: cpuprofile:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "snicbench: cpuprofile:", err)
				if code == 0 {
					code = 1
				}
			}
		}()
	}

	b := &bench{
		runner:     &exp.Runner{Workers: *workers},
		cfgs:       cfgs,
		outFmt:     outFmt,
		out:        stdout,
		checkpoint: *checkpoint,
		stopAfter:  *stopAfter,
	}
	if *verbose {
		b.runner.Observe = func(m engine.Metrics) { fmt.Fprintln(stderr, m.String()) }
		b.runner.OnJob = func(s engine.JobStat) {
			fmt.Fprintf(stderr, "engine: %s/%s done in %v (worker %d)\n",
				s.Experiment, s.Key, s.Duration, s.Worker)
		}
	}
	var reg *obs.Registry
	if *tracePath != "" || *metrics {
		reg = obs.NewRegistry()
		reg.SetTraceCapacity(*traceCap)
		b.runner.Obs = reg
	}
	var prog *obs.Progress
	stopProgress := func() {}
	if *progressEvery > 0 {
		// Live telemetry rides on the engine's sanctioned wall clock and
		// never touches results or the deterministic exports above.
		prog = obs.NewProgress(engine.DefaultWall())
		b.runner.Progress = prog
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			t := time.NewTicker(*progressEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					fmt.Fprintln(stderr, prog.Snapshot().String())
				case <-stop:
					return
				}
			}
		}()
		stopProgress = func() { close(stop); <-done }
	}

	for _, name := range experimentNames() {
		if *experiment != "all" && *experiment != name {
			continue
		}
		if err := registry[name](b); err != nil {
			stopProgress()
			if errors.Is(err, engine.ErrInterrupted) {
				fmt.Fprintf(stderr, "snicbench: %s: interrupted, checkpoint saved; rerun to resume\n", name)
				return 3
			}
			fmt.Fprintf(stderr, "snicbench: %s: %v\n", name, err)
			return 1
		}
	}

	stopProgress()
	if prog != nil {
		fmt.Fprintln(stderr, prog.Snapshot().String())
	}
	if *metrics {
		if *metricsFormat == "prom" {
			fmt.Fprint(stderr, reg.PromText())
		} else {
			fmt.Fprint(stderr, reg.DumpMetrics())
		}
	}
	if *tracePath != "" {
		data, err := reg.ChromeTrace()
		if err != nil {
			fmt.Fprintln(stderr, "snicbench: trace export:", err)
			return 1
		}
		if err := os.WriteFile(*tracePath, data, 0o644); err != nil {
			fmt.Fprintln(stderr, "snicbench:", err)
			return 1
		}
	}
	return 0
}

type configs struct {
	suite        nf.SuiteConfig
	flows        int
	packets      int
	fig5         exp.Fig5Config
	l2Sizes      []uint64
	counts       []int
	fig7Seconds  float64
	fig7Rate     float64
	fig8Requests int
	fleetDevices int
	fleetEvents  int
	churn        exp.ChurnConfig
	replay       exp.ReplayConfig
}

// scaleConfigs returns the configuration for a -scale name, and false
// for an unknown one.
func scaleConfigs(scale string) (configs, bool) {
	switch scale {
	case "small":
		return configs{
			suite: nf.TestScale(1), flows: 2000, packets: 5000,
			fig5: exp.Fig5Config{PoolFlows: 5000, WarmupInstr: 20000,
				MeasureInstr: 60000, Colocations: 3, Seed: 1},
			l2Sizes:     []uint64{64 << 10, 1 << 20, 4 << 20},
			counts:      []int{2, 4, 8},
			fig7Seconds: 30, fig7Rate: 4000, fig8Requests: 2000,
			fleetDevices: 3, fleetEvents: 30,
			churn:  exp.ChurnConfig{Events: 60, Target: 6, Batch: 4, MemMB: 1},
			replay: exp.ReplayConfig{Flows: 20000, PerFlow: 3, Shards: 4, Seed: 0xCA1DA},
		}, true
	case "full":
		return configs{
			suite: nf.SuiteConfig{Seed: 1}, flows: 100000, packets: 2000000,
			fig5: exp.Fig5Config{PoolFlows: 100000, WarmupInstr: 500000,
				MeasureInstr: 2000000, Colocations: 8, Seed: 1},
			l2Sizes:     nil, // all twelve paper sizes
			counts:      []int{2, 3, 4, 8, 16},
			fig7Seconds: 150, fig7Rate: 0, fig8Requests: 20000,
			fleetDevices: 8, fleetEvents: 200,
			// ~1k S-NIC launches per mode: enough churn cycles that the
			// warm pool reaches steady state and the real-crypto attest
			// cost (the fast paths' target) dominates the cold run.
			churn: exp.ChurnConfig{Events: 2000, Target: 10, Batch: 16, MemMB: 1},
			// The paper's full CAIDA window: 26.7 M flows, ~50:1
			// packet:flow ratio (1.34 G packets). Streams in O(1) memory,
			// in about 17 s on 2 CPUs; -checkpoint makes it resumable.
			replay: exp.ReplayConfig{Flows: 26_700_000, PerFlow: 50, Shards: 64, Seed: 0xCA1DA},
		}, true
	case "medium":
		return configs{
			suite: nf.SuiteConfig{FirewallRules: 643, DPIPatterns: 8000,
				Routes: 16000, Backends: 64, Seed: 1},
			flows: 50000, packets: 300000,
			fig5: exp.Fig5Config{PoolFlows: 50000, WarmupInstr: 100000,
				MeasureInstr: 400000, Colocations: 4, Seed: 1},
			l2Sizes:     []uint64{8 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20},
			counts:      []int{2, 3, 4, 8, 16},
			fig7Seconds: 60, fig7Rate: 7417, fig8Requests: 8000,
			fleetDevices: 5, fleetEvents: 80,
			churn: exp.ChurnConfig{Events: 400, Target: 8, Batch: 8, MemMB: 1},
			// Matches the golden suite's replay shape.
			replay: exp.ReplayConfig{Flows: 50000, PerFlow: 3, Shards: 4, Seed: 0xCA1DA},
		}, true
	}
	return configs{}, false
}
