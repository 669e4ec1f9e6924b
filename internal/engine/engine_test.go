package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"snic/internal/obs"
	"snic/internal/sim"
)

// drawJobs returns jobs whose result is their first RNG draw, so tests
// can observe exactly which stream each job was handed.
func drawJobs(n int) []Job[uint64] {
	jobs := make([]Job[uint64], n)
	for i := range jobs {
		jobs[i] = Job[uint64]{
			Experiment: "draw",
			Key:        fmt.Sprintf("job%d", i),
			Run:        func(rng *sim.Rand) (uint64, error) { return rng.Uint64(), nil },
		}
	}
	return jobs
}

func TestResultsIndependentOfWorkerCount(t *testing.T) {
	base, _, err := Run(Config{Workers: 1, Seed: 7}, drawJobs(40))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 16, 0} {
		got, _, err := Run(Config{Workers: w, Seed: 7}, drawJobs(40))
		if err != nil {
			t.Fatal(err)
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: job %d drew %x, serial drew %x", w, i, got[i], base[i])
			}
		}
	}
}

func TestJobStreamsAreDistinctAndKeyed(t *testing.T) {
	vals, _, err := Run(Config{Seed: 7}, drawJobs(40))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]int{}
	for i, v := range vals {
		if j, dup := seen[v]; dup {
			t.Fatalf("jobs %d and %d drew the same stream", j, i)
		}
		seen[v] = i
	}
	// A different base seed must move every stream.
	other, _, err := Run(Config{Seed: 8}, drawJobs(40))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if vals[i] == other[i] {
			t.Fatalf("job %d ignored the base seed", i)
		}
	}
}

func TestErrorSelectionIsDeterministic(t *testing.T) {
	jobs := make([]Job[int], 8)
	for i := range jobs {
		jobs[i] = Job[int]{
			Experiment: "err", Key: fmt.Sprint(i),
			Run: func(*sim.Rand) (int, error) { return i * 10, nil },
		}
	}
	jobs[3].Run = func(*sim.Rand) (int, error) { return 0, fmt.Errorf("boom3") }
	jobs[6].Run = func(*sim.Rand) (int, error) { return 0, fmt.Errorf("boom6") }
	for _, w := range []int{1, 4, 8} {
		res, m, err := Run(Config{Workers: w}, jobs)
		if err == nil || !strings.Contains(err.Error(), "boom3") {
			t.Fatalf("workers=%d: err = %v, want lowest-index boom3", w, err)
		}
		if m.Failed != 2 {
			t.Fatalf("failed = %d", m.Failed)
		}
		if res[0] != 0 || res[7] != 70 {
			t.Fatalf("successful results not preserved: %v", res)
		}
	}
}

func TestPanicBecomesError(t *testing.T) {
	jobs := []Job[int]{{
		Experiment: "p", Key: "k",
		Run: func(*sim.Rand) (int, error) { panic("kaboom") },
	}}
	_, m, err := Run(Config{}, jobs)
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v", err)
	}
	if m.Failed != 1 {
		t.Fatalf("failed = %d", m.Failed)
	}
}

func TestMetricsAndProgress(t *testing.T) {
	var calls int
	cfg := Config{Workers: 3, OnJob: func(JobStat) { calls++ }}
	_, m, err := Run(cfg, drawJobs(10))
	if err != nil {
		t.Fatal(err)
	}
	if m.Finished != 10 || m.Failed != 0 {
		t.Fatalf("counts: %+v", m)
	}
	if m.Workers != 3 {
		t.Fatalf("workers = %d", m.Workers)
	}
	if calls != 10 {
		t.Fatalf("OnJob calls = %d", calls)
	}
	if slow, ok := m.Slowest(); !ok || slow.Experiment != "draw" {
		t.Fatalf("slowest = %+v ok=%v", slow, ok)
	}
	if m.TotalJobTime() < 0 {
		t.Fatal("negative job time")
	}
	if s := m.String(); !strings.Contains(s, "draw") || !strings.Contains(s, "10 jobs") {
		t.Fatalf("report %q", s)
	}
	for i, s := range m.Jobs {
		if s.Index != i || s.Key != fmt.Sprintf("job%d", i) {
			t.Fatalf("stat %d out of order: %+v", i, s)
		}
	}
}

func TestWorkerClamping(t *testing.T) {
	_, m, err := Run(Config{Workers: 64}, drawJobs(3))
	if err != nil {
		t.Fatal(err)
	}
	if m.Workers != 3 {
		t.Fatalf("pool size %d for 3 jobs", m.Workers)
	}
	res, m2, err := Run(Config{Workers: 2}, []Job[uint64]{})
	if err != nil || len(res) != 0 {
		t.Fatalf("empty run: %v %v", res, err)
	}
	if _, ok := m2.Slowest(); ok {
		t.Fatal("slowest of empty run")
	}
}

// TestInjectedWall: Config.Wall replaces the sanctioned wall-clock
// collector, making engine timing fully deterministic for tests. A fake
// stepping 1ms per reading makes every per-job duration exactly 1ms
// (two readings per job) and the sweep wall (1+2n)ms.
func TestInjectedWall(t *testing.T) {
	tick := time.Unix(0, 0)
	wall := obs.NewWall(func() time.Time {
		tick = tick.Add(time.Millisecond)
		return tick
	})
	_, m, err := Run(Config{Workers: 1, Wall: wall}, drawJobs(3))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range m.Jobs {
		if s.Duration != time.Millisecond {
			t.Errorf("job %d duration = %v, want 1ms from the fake wall", i, s.Duration)
		}
	}
	if m.Wall != 7*time.Millisecond {
		t.Errorf("sweep wall = %v, want 7ms (1 start + 2 readings per job)", m.Wall)
	}
	if m.TotalJobTime() != 3*time.Millisecond {
		t.Errorf("jobs total = %v, want 3ms", m.TotalJobTime())
	}
}
