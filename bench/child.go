package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// childResult is the one JSON line a child prints after its "ready"
// line.
type childResult struct {
	WallS   float64      `json:"wall_s"` // the workload alone, set-up excluded
	CPUS    float64      `json:"cpu_s"`  // user+sys of the simulating process
	RSSMB   float64      `json:"peak_rss_mb"`
	GCFrac  float64      `json:"gc_cpu_frac"`
	AllocMB float64      `json:"alloc_mb"`
	Outcome outcome      `json:"outcome"`
	Engine  *engineStats `json:"engine,omitempty"`
	// Layers holds the per-layer metrics of a traced child.
	Layers map[string]float64 `json:"layers,omitempty"`
	Err    string             `json:"err,omitempty"`
}

// childOpts carries what a child needs besides workload and seed.
type childOpts struct {
	snicd     string // snicd binary (fleet)
	workdir   string // scratch space for the fleet bootstrap file
	spans     string // where a traced child writes its spans
	setupOnly bool
	traced    bool
}

// cpuSeconds and maxRSSMB read a getrusage record: user+sys seconds and
// the peak resident set (Linux reports ru_maxrss in KiB).
func cpuSeconds(ru *syscall.Rusage) float64 {
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func maxRSSMB(ru *syscall.Rusage) float64 { return float64(ru.Maxrss) / 1024 }

func selfRusage() *syscall.Rusage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return &ru
}

// rusageOf returns an exited process's CPU seconds and peak RSS in MB.
func rusageOf(ps *os.ProcessState) (cpuS, rssMB float64) {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0
	}
	return cpuSeconds(ru), maxRSSMB(ru)
}

// runChild is one fresh process: it sets the workload up, prints
// "ready", runs the workload once, and prints its childResult. A fresh
// process per repetition is what a real snicbench user gets: the
// process-wide memo caches start cold.
func runChild(workload string, seed uint64, opts childOpts) error {
	sc := fullScale(seed)
	var d *snicd
	var ops []fleetOp
	var wantLive int
	if workload == "fleet" {
		var err error
		if d, err = startSnicd(opts.snicd, opts.workdir, seed); err != nil {
			return err
		}
		ops, wantLive = fleetOps(seed, sc.fleetOps)
	}
	fmt.Println("ready")
	if opts.setupOnly {
		if d != nil {
			d.stop()
		}
		return nil
	}

	var tr *tracer
	if opts.traced {
		tr = newTracer()
	}
	root := tr.open("workload."+workload, 0)
	ru0, t0 := selfRusage(), time.Now()
	var res childResult
	var err error
	switch workload {
	case "paper-medium":
		res.Outcome, res.Engine, err = runPaperMedium(sc, tr, root)
	case "churn":
		res.Outcome, res.Engine, err = runChurn(sc, tr, root)
	case "replay":
		res.Outcome, res.Engine, err = runReplay(sc, tr, root)
	case "fleet":
		var run *fleetRun
		run, err = driveFleet(d.url, ops, tr, root)
		if run != nil {
			res.Outcome = fleetOutcome(run, ops, wantLive)
		}
	}
	res.WallS = time.Since(t0).Seconds()
	ru1 := selfRusage()
	tr.close(root)
	if d != nil {
		res.CPUS, res.RSSMB = d.stop()
	} else {
		res.CPUS, res.RSSMB = cpuSeconds(ru1)-cpuSeconds(ru0), maxRSSMB(ru1)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.GCFrac, res.AllocMB = ms.GCCPUFraction, float64(ms.TotalAlloc)/(1<<20)
	if err != nil {
		res.Err = err.Error()
	}

	if opts.traced {
		p, perr := runProbes(sc, seed, tr)
		res.Layers = p.metrics
		res.Outcome.Failed += p.failed
		if workload == "fleet" {
			setSweep(res.Layers, p)
		}
		if perr != nil && res.Err == "" {
			res.Err = perr.Error()
		}
		if err := tr.writeSpans(opts.spans, workload, seed); err != nil {
			fmt.Fprintln(os.Stderr, "bench: spans:", err)
		} else {
			fmt.Fprintf(os.Stderr, "bench: wrote %d spans to %s\n", len(tr.spans), filepath.Clean(opts.spans))
		}
		tr.printSelfTimes(os.Stderr, 30)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setSweep fills the engine.* layer metrics from the engine probe's
// uneven sweep.
func setSweep(layers map[string]float64, p *probeResult) {
	m := p.sweep
	busy, wall := m.TotalJobTime().Seconds(), m.Wall.Seconds()
	slow, _ := m.Slowest()
	layers["engine.jobs"] = float64(m.Finished)
	layers["engine.busy_s"] = busy
	layers["engine.parallelism"] = busy / wall
	layers["engine.idle_s"] = float64(m.Workers)*wall - busy
	layers["engine.slowest_job_s"] = slow.Duration.Seconds()
}
