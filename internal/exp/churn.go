package exp

import (
	"fmt"

	"snic/internal/device"
	"snic/internal/engine"
	"snic/internal/obs"
	"snic/internal/sim"
)

// ChurnConfig parameterizes the serverless-churn sweep (λ-NIC-style
// workloads: a continuous stream of short-lived functions per NIC).
type ChurnConfig struct {
	Events int    // lifecycle events per device model
	Target int    // steady-state live-NF target per device
	Batch  int    // attestation batch size on the fast path
	MemMB  uint64 // per-NF DRAM reservation
}

func (c *ChurnConfig) defaults() {
	if c.Events == 0 {
		c.Events = 60
	}
	if c.Target == 0 {
		c.Target = 6
	}
	if c.Batch == 0 {
		c.Batch = 4
	}
	if c.MemMB == 0 {
		c.MemMB = 1
	}
}

// ChurnRow is one (model, mode) cell of the churn sweep. Latency
// columns are reconstructed from power-of-two bucket histograms — the
// same bucket layout obs collects, accumulated job-locally so the
// percentiles are a pure function of the instruction stream — and are
// zero for models with no trusted-instruction latency model (the
// commodity baselines launch without a control-path cost model, which
// is itself the comparison: the paper's isolation work is what costs).
type ChurnRow struct {
	Model      string
	Mode       string // "cold" (paper-exact) or "fast" (three fast paths on)
	Launches   uint64
	Fails      uint64 // launches the model refused (bump-only allocators exhaust under churn)
	Attests    uint64
	Teardowns  uint64
	PoolHits   uint64
	PoolMisses uint64
	LiveAvg    float64 // steady-state live-NF occupancy
	SimMS      float64 // simulated control-path milliseconds
	PerSec     float64 // launches per simulated second
	LaunchP50  float64 // per-phase percentiles, ms
	LaunchP99  float64
	AttestP50  float64
	AttestP99  float64
	TearP50    float64
	TearP99    float64
}

// ChurnNF runs the churn sweep on the default runner.
func ChurnNF(cfg ChurnConfig) ([]ChurnRow, error) { return defaultRunner.ChurnNF(cfg) }

// ChurnNF continuously launches, attests, and tears down short-lived
// NFs against every registered device model — one engine job per
// (model, mode) cell, so the sweep parallelizes like every other
// experiment and its rows are byte-identical at any worker count. The
// S-NIC runs twice: cold (the paper-exact trusted instructions) and
// fast (batched attestation + warm scrubbed-arena pool + parallel
// teardown scrub), which is the before/after the BENCH_10 trajectory
// records.
func (r *Runner) ChurnNF(cfg ChurnConfig) ([]ChurnRow, error) {
	cfg.defaults()
	type cell struct{ model, mode string }
	var cells []cell
	for _, m := range device.Models() {
		cells = append(cells, cell{m, "cold"})
		if m == "snic" {
			cells = append(cells, cell{m, "fast"})
		}
	}
	jobs := make([]engine.Job[ChurnRow], len(cells))
	for i, c := range cells {
		c := c
		jobs[i] = engine.Job[ChurnRow]{
			Experiment: "churn",
			Key:        c.model + "/" + c.mode,
			Run: func(rng *sim.Rand) (ChurnRow, error) {
				return churnOne(r.obsReg(), c.model, c.mode, cfg, rng)
			},
		}
	}
	return runJobs(r, 0xC842, jobs)
}

// churnPhase accumulates one phase's simulated latencies into the same
// power-of-two cycle buckets obs histograms use, plus an attached obs
// histogram when a collector is present (write-only: the row
// percentiles come from the job-local buckets).
type churnPhase struct {
	local obs.HistBuckets
	hist  *obs.Histogram
	sumMS float64
}

func (p *churnPhase) observe(ms float64) {
	cyc := obs.MSToCycles(ms)
	p.local.Observe(cyc)
	p.hist.Observe(cyc) // nil-safe no-op when detached
	p.sumMS += ms
}

func (p *churnPhase) quantileMS(q float64) float64 {
	return p.local.Quantile(q) / obs.CyclesPerMS
}

// churnOne drives one device model through cfg.Events lifecycle events
// of device.RunChurn (attesting individually when cold, in Merkle
// batches when fast). All randomness comes from the job's derived rng,
// so the row is a pure function of (model, mode, cfg).
func churnOne(reg *obs.Registry, model, mode string, cfg ChurnConfig, rng *sim.Rand) (ChurnRow, error) {
	scope := "churn/" + model + "/" + mode
	n, err := device.New(device.Spec{
		Model: model, Cores: 12, MemBytes: 64 << 20, FrameSize: 128 << 10,
		Serial: scope,
	})
	if err != nil {
		return ChurnRow{}, err
	}
	var phases [3]churnPhase // indexed by device.ChurnPhase
	if reg != nil {
		for p, name := range []string{"launch_cycles", "attest_cycles", "teardown_cycles"} {
			phases[p].hist = reg.Histogram(obs.Label{Device: scope, Owner: "-", Component: "churn", Name: name})
		}
	}
	if sn, ok := n.(*device.SNIC); ok {
		sn.Underlying().Observe(reg, scope)
	}

	c, err := device.RunChurn(n, device.Churn{
		Events: cfg.Events, Target: cfg.Target, Batch: cfg.Batch, Fast: mode == "fast",
		Func: func(seq int) device.FuncSpec {
			return device.FuncSpec{
				Name:     fmt.Sprintf("fn-%05d", seq),
				Image:    []byte(fmt.Sprintf("%s fn %05d pad %0*d", scope, seq, 64+rng.Intn(192), 0)),
				MemBytes: cfg.MemMB << 20,
			}
		},
		// A batched quote's latency splits evenly across its members.
		Observe: func(p device.ChurnPhase, ms float64, n int) {
			per := ms / float64(n)
			for range n {
				phases[p].observe(per)
			}
		},
	}, rng)
	if err != nil {
		return ChurnRow{}, err
	}
	// The S-NIC reclaims everything at teardown, so a refused launch is
	// a harness bug, not a model finding.
	if model == "snic" && c.Fails > 0 {
		return ChurnRow{}, fmt.Errorf("churn: %s refused %d launches", scope, c.Fails)
	}

	launch, attestPh, tear := &phases[device.ChurnLaunch], &phases[device.ChurnAttest], &phases[device.ChurnTeardown]
	row := ChurnRow{
		Model: model, Mode: mode,
		Launches: c.Launches, Fails: c.Fails, Attests: c.Attests, Teardowns: c.Teardowns,
		PoolHits: c.PoolHits, PoolMisses: c.PoolMisses,
		LiveAvg:   float64(c.LiveSum) / float64(cfg.Events),
		SimMS:     launch.sumMS + attestPh.sumMS + tear.sumMS,
		LaunchP50: launch.quantileMS(0.50),
		LaunchP99: launch.quantileMS(0.99),
		AttestP50: attestPh.quantileMS(0.50),
		AttestP99: attestPh.quantileMS(0.99),
		TearP50:   tear.quantileMS(0.50),
		TearP99:   tear.quantileMS(0.99),
	}
	if row.SimMS > 0 {
		row.PerSec = float64(row.Launches) / (row.SimMS / 1e3)
	}
	return row, nil
}

// RenderChurn formats the churn sweep.
func RenderChurn(rows []ChurnRow) Table {
	t := Table{
		Title: "Control-plane throughput: serverless NF churn per device model",
		Header: []string{"model", "mode", "launches", "fails", "attests", "teardowns",
			"pool hit/miss", "live avg", "sim ms", "launch/s",
			"launch p50/p99", "attest p50/p99", "teardown p50/p99"},
		Notes: []string{
			"cold = paper-exact trusted instructions; fast = batched attestation + warm pool + parallel scrub (S-NIC only)",
			"commodity baselines have no control-path latency model: their cost columns read 0.00 — isolation is what costs",
			"fails counts launches the model refused: bump-only secure allocators exhaust under sustained churn",
			"percentiles reconstructed from power-of-two latency histograms (obs bucket layout), in simulated ms",
		},
	}
	pair := func(a, b float64) string { return f3(a) + "/" + f3(b) }
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Model, r.Mode,
			fmt.Sprintf("%d", r.Launches),
			fmt.Sprintf("%d", r.Fails),
			fmt.Sprintf("%d", r.Attests),
			fmt.Sprintf("%d", r.Teardowns),
			fmt.Sprintf("%d/%d", r.PoolHits, r.PoolMisses),
			f2(r.LiveAvg),
			f2(r.SimMS),
			f2(r.PerSec),
			pair(r.LaunchP50, r.LaunchP99),
			pair(r.AttestP50, r.AttestP99),
			pair(r.TearP50, r.TearP99),
		})
	}
	return t
}
