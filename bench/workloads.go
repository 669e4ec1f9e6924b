package main

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"
	"time"

	"snic/internal/engine"
	"snic/internal/exp"
	"snic/internal/nf"
	"snic/internal/sim"
)

// workers is the engine pool size every workload runs with: the load is
// sized for a 2-CPU host.
const workers = 2

// workloadNames lists the workloads in the order the README gives them.
var workloadNames = []string{"paper-medium", "churn", "replay", "fleet"}

// scale sizes every workload and probe. full is what the benchmark
// measures; tiny keeps the package test under a few seconds.
type scale struct {
	suite        nf.SuiteConfig
	flows        int
	packets      int
	fig5         exp.Fig5Config
	l2Sizes      []uint64
	counts       []int
	fig7Seconds  float64
	fig7Rate     float64
	fig8Requests int
	churn        exp.ChurnConfig
	replay       exp.ReplayConfig
	fleetOps     int
	probe        probeScale
}

// fullScale is `snicbench -scale medium` for the paper experiments (the
// configs are copied from cmd/snicbench, with the seed replaced), the
// full-scale churn config, and a 150 M packet replay window.
func fullScale(seed uint64) scale {
	return scale{
		suite: nf.SuiteConfig{FirewallRules: 643, DPIPatterns: 8000,
			Routes: 16000, Backends: 64, Seed: seed},
		flows: 50000, packets: 300000,
		fig5: exp.Fig5Config{PoolFlows: 50000, WarmupInstr: 100000,
			MeasureInstr: 400000, Colocations: 4, Seed: seed},
		l2Sizes:     []uint64{8 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20},
		counts:      []int{2, 3, 4, 8, 16},
		fig7Seconds: 60, fig7Rate: 7417, fig8Requests: 8000,
		churn: exp.ChurnConfig{Events: 2000, Target: 10, Batch: 16, MemMB: 1},
		replay: exp.ReplayConfig{Flows: 3_000_000, PerFlow: 50, Shards: 4,
			Seed: sim.DeriveSeed(seed, "bench", "replay")},
		fleetOps: 4000,
		probe:    fullProbe,
	}
}

// tinyScale runs every code path of fullScale at a size the package test
// can afford.
func tinyScale(seed uint64) scale {
	return scale{
		suite: nf.SuiteConfig{FirewallRules: 32, DPIPatterns: 100,
			Routes: 200, Backends: 8, Seed: seed},
		flows: 500, packets: 1000,
		fig5: exp.Fig5Config{PoolFlows: 500, WarmupInstr: 2000,
			MeasureInstr: 5000, Colocations: 2, Seed: seed},
		l2Sizes:     []uint64{64 << 10},
		counts:      []int{4},
		fig7Seconds: 5, fig7Rate: 500, fig8Requests: 200,
		churn: exp.ChurnConfig{Events: 30, Target: 4, Batch: 4, MemMB: 1},
		replay: exp.ReplayConfig{Flows: 2000, PerFlow: 5, Shards: 4,
			Seed: sim.DeriveSeed(seed, "bench", "replay")},
		fleetOps: 120,
		probe:    tinyProbe,
	}
}

// engineStats is what Runner.OnJob and Runner.Observe report about one
// workload's sweeps.
type engineStats struct {
	Jobs      int       `json:"jobs"`
	Failed    int       `json:"failed"`
	BusyS     float64   `json:"busy_s"`  // summed job time
	SweepS    float64   `json:"sweep_s"` // summed sweep wall time
	SlowestS  float64   `json:"slowest_s"`
	Slowest   string    `json:"slowest"`
	JobS      []float64 `json:"-"`
	Workers   int       `json:"workers"`
	mu        sync.Mutex
	sweepSpan int // open span jobs are parented to
}

// runner returns an exp.Runner whose hooks fill st and, when tr is not
// nil, record one span per finished job.
func (st *engineStats) runner(tr *tracer) *exp.Runner {
	st.Workers = workers
	return &exp.Runner{
		Workers: workers,
		OnJob: func(s engine.JobStat) {
			end := time.Now()
			st.mu.Lock()
			defer st.mu.Unlock()
			st.Jobs++
			if s.Err != nil {
				st.Failed++
			}
			d := s.Duration.Seconds()
			st.BusyS += d
			st.JobS = append(st.JobS, d)
			if d > st.SlowestS {
				st.SlowestS, st.Slowest = d, s.Experiment+"/"+s.Key
			}
			tr.record("engine.job "+s.Experiment, st.sweepSpan, end.Add(-s.Duration), end, 0, 0)
		},
		Observe: func(m engine.Metrics) {
			st.mu.Lock()
			st.SweepS += m.Wall.Seconds()
			st.mu.Unlock()
		},
	}
}

// parallelism is busy time over sweep wall time; idle is the worker time
// the sweeps left unused.
func (st *engineStats) parallelism() float64 { return st.BusyS / st.SweepS }
func (st *engineStats) idleS() float64       { return float64(st.Workers)*st.SweepS - st.BusyS }

// outcome is what one run of a workload produced: the amount of work,
// its per-unit latencies (engine jobs or HTTP requests),
// and a digest of the simulated output that must not depend on the run.
type outcome struct {
	Items     float64   `json:"items"`
	UnitMS    []float64 `json:"unit_ms"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Digest    string    `json:"digest"`
}

func digestOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return fmt.Sprintf("%x", sum[:12])
}

// countJobs adds the engine's jobs to the outcome's attempts and
// failures, and their durations to the per-unit latencies.
func (o *outcome) countJobs(st *engineStats) {
	for _, s := range st.JobS {
		o.UnitMS = append(o.UnitMS, s*1e3)
	}
	o.Attempted += st.Jobs
	o.Failed += st.Failed
}

// paperExperiments are the experiments of `snicbench -scale medium`
// that reproduce the paper, in snicbench's (sorted) order: every one
// except churn, fleet and replay, which the other workloads cover.
var paperExperiments = []string{
	"attacks", "fig5a", "fig5b", "fig5dev", "fig6", "fig7", "fig8", "headline",
	"table2", "table3", "table4", "table5", "table6", "table7", "table8", "tco",
}

// runPaperMedium renders every paper experiment as snicbench prints it.
// The digest covers the rendered text. Its units are the engine jobs:
// with about 130 of them, p90 has ten samples beyond it, while the
// slowest of the 16 experiments also varies with how the sweep's uneven
// jobs happen to be scheduled.
func runPaperMedium(sc scale, tr *tracer, parent int) (outcome, *engineStats, error) {
	st := &engineStats{}
	r := st.runner(tr)
	var out strings.Builder
	emit := func(t exp.Table) { out.WriteString(t.String() + "\n") }
	var profiles []exp.NFProfile
	profile := func() error {
		if profiles != nil {
			return nil
		}
		var err error
		profiles, err = r.ProfileNFs(sc.suite, sc.flows, sc.packets)
		return err
	}
	run := map[string]func() error{
		"attacks": func() error {
			cols, err := r.AttackMatrix()
			emit(exp.RenderAttackMatrix(cols))
			return err
		},
		"fig5a": func() error {
			rows, err := r.Figure5a(sc.fig5, sc.l2Sizes)
			emit(exp.RenderFig5("Figure 5a: IPC degradation vs L2 size (2 NFs)", rows))
			med, p99 := exp.MedianAcrossNFs(rows, "4MB")
			fmt.Fprintf(&out, "  2 NFs @ 4MB: mean-of-medians %.2f%%, p99 %.2f%% (paper: 0.24%% median)\n\n", med, p99)
			return err
		},
		"fig5b": func() error {
			rows, err := r.Figure5b(sc.fig5, sc.counts)
			emit(exp.RenderFig5("Figure 5b: IPC degradation vs co-tenancy (4MB L2)", rows))
			for _, n := range sc.counts {
				med, p99 := exp.MedianAcrossNFs(rows, fmt.Sprintf("%d NFs", n))
				fmt.Fprintf(&out, "  %2d NFs @ 4MB: mean-of-medians %.2f%%, p99 %.2f%%\n", n, med, p99)
			}
			out.WriteString("  (paper: 4 NFs 0.93%/1.66%, 8 NFs 3.41%/5.12%, 16 NFs 9.44%/13.71%)\n\n")
			return err
		},
		"fig5dev": func() error {
			rows, err := r.Figure5Devices(sc.fig5)
			emit(exp.RenderFig5Dev(rows))
			return err
		},
		"fig6": func() error {
			rows, err := r.Figure6()
			emit(exp.RenderFig6(rows))
			return err
		},
		"fig7": func() error {
			series, err := r.Figure7(sc.fig7Seconds, sc.fig7Rate, 150)
			emit(exp.RenderFig7(series))
			return err
		},
		"fig8": func() error {
			rows, err := r.Figure8(sc.fig8Requests)
			emit(exp.RenderFig8(rows))
			return err
		},
		"headline": func() error { emit(exp.Headline()); return nil },
		"table2":   func() error { emit(exp.Table2()); return nil },
		"table3":   func() error { emit(exp.Table3()); return nil },
		"table4":   func() error { emit(exp.Table4()); return nil },
		"table5": func() error {
			t, err := r.Table5()
			emit(t)
			return err
		},
		"table6": func() error {
			if err := profile(); err != nil {
				return err
			}
			emit(exp.Table6(profiles))
			return nil
		},
		"table7": func() error {
			t, err := r.Table7(0)
			emit(t)
			return err
		},
		"table8": func() error {
			if err := profile(); err != nil {
				return err
			}
			emit(exp.Table8(profiles))
			return nil
		},
		"tco": func() error { emit(exp.TCO()); return nil },
	}
	var o outcome
	for _, name := range paperExperiments {
		id := tr.open("exp."+name, parent)
		st.sweepSpan = id
		err := run[name]()
		tr.close(id)
		o.Attempted++
		if err != nil {
			o.Failed++
			return o, st, fmt.Errorf("%s: %w", name, err)
		}
	}
	o.countJobs(st)
	o.Items = float64(st.Jobs)
	o.Digest = digestOf(out.String())
	return o, st, nil
}

// runChurn sweeps every device model cold and fast through exp.ChurnNF.
// ChurnNF seeds its jobs from a fixed internal base, so the seed does
// not change this workload.
func runChurn(sc scale, tr *tracer, parent int) (outcome, *engineStats, error) {
	st := &engineStats{}
	r := st.runner(tr)
	st.sweepSpan = tr.open("exp.churn", parent)
	rows, err := r.ChurnNF(sc.churn)
	tr.close(st.sweepSpan)
	var o outcome
	o.countJobs(st)
	if err != nil {
		return o, st, err
	}
	for _, row := range rows {
		o.Items += float64(row.Launches)
	}
	o.Digest = digestOf(exp.RenderChurn(rows).String())
	return o, st, nil
}

// runReplay streams the CAIDA-shaped window through per-shard Monitor
// models. Every packet of the window must come out.
func runReplay(sc scale, tr *tracer, parent int) (outcome, *engineStats, error) {
	st := &engineStats{}
	r := st.runner(tr)
	st.sweepSpan = tr.open("exp.replay", parent)
	res, err := r.ReplayCAIDA(sc.replay)
	tr.close(st.sweepSpan)
	var o outcome
	o.countJobs(st)
	if err != nil {
		return o, st, err
	}
	if want := sc.replay.Flows * uint64(sc.replay.PerFlow); res.Packets != want {
		o.Failed++
		return o, st, fmt.Errorf("replay drew %d packets, want %d", res.Packets, want)
	}
	o.Items = float64(res.Packets)
	o.Digest = fmt.Sprintf("%016x", res.Digest)
	return o, st, nil
}
