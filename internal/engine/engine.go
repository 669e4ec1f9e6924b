// Package engine executes experiment jobs on a bounded worker pool with
// deterministic seeding and deterministic result order.
//
// Every table and figure in the paper's evaluation decomposes into
// independent configuration points (one per NF, per cache size, per
// tenant count, ...). The engine runs those points concurrently while
// guaranteeing the merged output is bit-identical to a serial run:
//
//   - each job draws randomness only from a sim.Rand seeded by
//     sim.DeriveSeed(seed, job.Experiment, job.Key) — a pure function of
//     the job's identity, never of scheduling order, and
//   - results are merged back in job-index order, regardless of which
//     worker finished first.
//
// The engine also records per-job timing so `snicbench -v` can report
// progress and the slowest configuration points of a sweep. Wall-clock
// time appears only in these observability metrics, never in results —
// the simulation kernel itself stays clock-free. All timing flows
// through an obs.Wall collector: defaultWall below is the module's
// single sanctioned wall-clock site, and tests inject fakes via
// Config.Wall.
package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"snic/internal/obs"
	"snic/internal/sim"
)

// defaultWall is the simulation path's only wall-clock source. Every
// JobStat.Duration and Metrics.Wall reading comes from here (or a
// test-injected Config.Wall); none of it ever reaches experiment
// results, metric dumps, or trace files.
//
//lint:allow transitive-determinism the single sanctioned wall-clock site; readings feed only -v observability, never results
var defaultWall = obs.NewWall(time.Now)

// DefaultWall exposes the sanctioned wall-clock collector so tools can
// build live-telemetry collectors (obs.NewProgress) without opening a
// second time.Now site. The readings stay quarantined: progress
// consumers are outside the simulation path by the same lint rule that
// guards defaultWall itself.
func DefaultWall() *obs.Wall { return defaultWall }

// Job is one independent unit of an experiment sweep. Run must be
// self-contained: it may share read-only calibration data with other
// jobs, but every piece of mutable state (NF instances, packet pools,
// devices, arenas) must be created inside Run. The rng passed to Run is
// derived from (Experiment, Key) and owned exclusively by this job.
type Job[T any] struct {
	Experiment string // sweep name, e.g. "fig5a"
	Key        string // stable point identity, e.g. "4MB/FW"
	Run        func(rng *sim.Rand) (T, error)
}

// Config controls one engine run.
type Config struct {
	// Workers bounds the worker pool; <= 0 selects GOMAXPROCS. The pool
	// never exceeds the job count.
	Workers int
	// Seed is the base seed mixed into every job's derived stream.
	Seed uint64
	// OnJob, if set, is called after each job completes. Calls are
	// serialized by the engine but arrive in completion order, not job
	// order.
	OnJob func(JobStat)
	// Wall, if set, replaces the default wall-clock collector that times
	// jobs and the sweep (tests inject deterministic fakes).
	Wall *obs.Wall
	// Progress, if set, receives live run telemetry: Begin at sweep
	// start, JobDone per job, and — for sharded sweeps — per-shard
	// stream positions and checkpoint saves. Publishing is write-only
	// from here; nothing the engine computes reads it back.
	Progress *obs.Progress
	// ProgressTarget is the expected total item count (packets for a
	// replay) handed to Progress.Begin so watchers get percentages and
	// an ETA. Zero means unknown.
	ProgressTarget uint64
}

// JobStat records one job's execution for progress and metrics.
type JobStat struct {
	Experiment string
	Key        string
	Index      int // position in the submitted job slice
	Worker     int // worker goroutine that ran the job
	Duration   time.Duration
	Err        error
}

// Metrics summarizes an engine run.
type Metrics struct {
	Experiment string // Experiment of the first job
	Workers    int    // actual pool size used
	Finished   int
	Failed     int
	Wall       time.Duration
	Jobs       []JobStat // in job-index order
}

// Slowest returns the longest-running job's stat. ok is false for an
// empty run.
func (m Metrics) Slowest() (stat JobStat, ok bool) {
	for _, s := range m.Jobs {
		if !ok || s.Duration > stat.Duration {
			stat, ok = s, true
		}
	}
	return stat, ok
}

// TotalJobTime sums the per-job durations — the serial-equivalent cost,
// so TotalJobTime/Wall estimates the achieved speedup.
func (m Metrics) TotalJobTime() time.Duration {
	var t time.Duration
	for _, s := range m.Jobs {
		t += s.Duration
	}
	return t
}

// String renders a one-experiment report for snicbench -v.
func (m Metrics) String() string {
	speedup := 1.0
	if m.Wall > 0 {
		speedup = float64(m.TotalJobTime()) / float64(m.Wall)
	}
	s := fmt.Sprintf("engine: %-8s %3d jobs on %2d workers: wall %v, jobs-total %v (%.2fx)",
		m.Experiment, m.Finished, m.Workers, m.Wall.Round(time.Microsecond),
		m.TotalJobTime().Round(time.Microsecond), speedup)
	if slow, ok := m.Slowest(); ok {
		s += fmt.Sprintf(", slowest %s/%s %v", slow.Experiment, slow.Key,
			slow.Duration.Round(time.Microsecond))
	}
	if m.Failed > 0 {
		s += fmt.Sprintf(", FAILED %d", m.Failed)
	}
	return s
}

// Run executes jobs on the pool and returns their results in job-index
// order. On job failure the first error by job index is returned (a
// deterministic choice even under concurrency); the result slice still
// carries every job that succeeded. A panicking job is converted to an
// error rather than tearing down the whole sweep.
func Run[T any](cfg Config, jobs []Job[T]) ([]T, Metrics, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}

	m := Metrics{Workers: workers, Jobs: make([]JobStat, len(jobs))}
	if len(jobs) > 0 {
		m.Experiment = jobs[0].Experiment
	}
	results := make([]T, len(jobs))

	wall := cfg.Wall
	if wall == nil {
		wall = defaultWall
	}

	var finished atomic.Int64
	var cbMu sync.Mutex
	var wg sync.WaitGroup
	idx := make(chan int)
	t0 := wall.Start()
	cfg.Progress.Begin(m.Experiment, len(jobs), cfg.ProgressTarget)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range idx {
				job := jobs[i]
				rng := sim.DeriveRand(cfg.Seed, job.Experiment, job.Key)
				jt := wall.Start()
				v, err := runOne(job, rng)
				stat := JobStat{
					Experiment: job.Experiment, Key: job.Key,
					Index: i, Worker: worker,
					Duration: wall.Since(jt), Err: err,
				}
				results[i] = v
				m.Jobs[i] = stat
				finished.Add(1)
				cfg.Progress.JobDone(err != nil)
				if cfg.OnJob != nil {
					cbMu.Lock()
					cfg.OnJob(stat)
					cbMu.Unlock()
				}
			}
		}(w)
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	m.Wall = wall.Since(t0)
	m.Finished = int(finished.Load())
	var firstErr error
	for _, s := range m.Jobs {
		if s.Err != nil {
			m.Failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("engine: job %s/%s: %w", s.Experiment, s.Key, s.Err)
			}
		}
	}
	return results, m, firstErr
}

func runOne[T any](job Job[T], rng *sim.Rand) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return job.Run(rng)
}
