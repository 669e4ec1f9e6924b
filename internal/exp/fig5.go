package exp

import (
	"fmt"

	"snic/internal/bus"
	"snic/internal/cache"
	"snic/internal/cpu"
	"snic/internal/device"
	"snic/internal/engine"
	"snic/internal/mem"
	"snic/internal/nf"
	"snic/internal/obs"
	"snic/internal/sim"
)

// Fig5Config sizes the §5.3 co-tenancy simulation. Zero values pick
// defaults scaled for the bench harness; tests shrink them further.
type Fig5Config struct {
	Suite        nf.SuiteConfig
	PoolFlows    int    // ICTF-like pool size (paper: 100,000)
	WarmupInstr  uint64 // per-core warmup (paper: 1 G total)
	MeasureInstr uint64 // per-core measurement (paper: 100 M total)
	Colocations  int    // sampled colocations per target NF
	Seed         uint64
}

func (c *Fig5Config) defaults() {
	if c.PoolFlows == 0 {
		c.PoolFlows = 100000
	}
	if c.WarmupInstr == 0 {
		c.WarmupInstr = 150000
	}
	if c.MeasureInstr == 0 {
		c.MeasureInstr = 400000
	}
	if c.Colocations == 0 {
		c.Colocations = 6
	}
	if c.Seed == 0 {
		c.Seed = 0xF16
	}
	if c.Suite.Seed == 0 {
		c.Suite = nf.TestScale(c.Seed)
		// Figure 5's cache pressure comes from working-set size, so keep
		// rule/route counts near paper scale where cheap.
		c.Suite.FirewallRules = 643
		c.Suite.Routes = 4000
		c.Suite.DPIPatterns = 4000
	}
}

// Fig5Row is one (NF, x-axis point) result.
type Fig5Row struct {
	NF     string
	X      string // cache size or co-tenancy label
	Median float64
	P1     float64
	P99    float64
}

// colocation simulates one group of NFs co-located on one NIC and
// returns each NF's IPC on commodity hardware (shared L2, FIFO bus) and
// on dev's own L2 policy and bus arbiter, with the same cache size and
// co-tenancy — exactly the §5.3 comparison when dev is S-NIC. With a
// collector attached, the L2 and the bus tracker report per-domain
// counters under "<scope>/base" and "<scope>/dev"; the sides are not
// named after their policies because a commodity dev is itself
// "shared".
func colocation(cfg Fig5Config, reg *obs.Registry, scope string, names []string, l2Size uint64, dev device.NIC) (base, devIPC []float64, err error) {
	base, err = runGroup(cfg, reg, scope+"/base", names, l2Size,
		cache.Shared, func(int) bus.Arbiter { return bus.NewFIFO() })
	if err != nil {
		return nil, nil, err
	}
	devIPC, err = runGroup(cfg, reg, scope+"/dev", names, l2Size,
		dev.CachePolicy(), dev.NewBusArbiter)
	if err != nil {
		return nil, nil, err
	}
	return base, devIPC, nil
}

// CoTenancyIPC runs one co-located NF mix on dev's L2 policy and bus
// arbiter and returns each NF's measured IPC. cfg is used exactly as
// given — no defaults are filled in — so Suite, PoolFlows and Seed must
// be set, and zero windows measure nothing (every IPC reads 0).
func CoTenancyIPC(cfg Fig5Config, names []string, l2Size uint64, dev device.NIC) ([]float64, error) {
	return runGroup(cfg, nil, "", names, l2Size, dev.CachePolicy(), dev.NewBusArbiter)
}

// runGroup is the one co-tenancy simulator: it runs one co-located NF
// group under one cache policy and bus arbiter, returning each NF's
// measured IPC. scope labels the metrics when a collector is attached.
// NF models and the workload pool come from the process-wide memo
// caches (see memo.go); every run still gets private L1s, a private L2,
// fresh per-stream RNGs, and a fresh pool instantiation, so runs never
// share mutable state.
func runGroup(cfg Fig5Config, reg *obs.Registry, scope string, names []string, l2Size uint64,
	policy cache.Policy, arb func(int) bus.Arbiter) ([]float64, error) {
	n := len(names)
	l2cfg := cache.Config{
		Name: "L2", Size: l2Size, LineSize: 64, Ways: 16,
		Policy: policy, Domains: n,
	}
	if policy == cache.Static && l2cfg.Ways < n {
		l2cfg.Ways = n // keep at least one way per domain at high co-tenancy
	}
	l2, err := cache.New(l2cfg)
	if err != nil {
		return nil, err
	}
	tr := bus.NewTracker(arb(n), n)
	if reg != nil {
		l2.Observe(reg, scope)
		tr.Observe(reg, scope)
	}
	lat := cpu.DefaultLatencies()
	pool := ictfPool(cfg.Seed, cfg.PoolFlows)
	cores := make([]*cpu.Core, n)
	streams := make([]cpu.Stream, n)
	for i, name := range names {
		f, err := suiteNF(name, cfg.Suite)
		if err != nil {
			return nil, err
		}
		l1, err := cache.New(cache.Config{
			Name: "L1", Size: 32 << 10, LineSize: 64, Ways: 4,
			Policy: cache.Shared, Domains: 1,
		})
		if err != nil {
			return nil, err
		}
		cores[i] = &cpu.Core{Domain: i, L1: l1, L2: l2, Bus: tr, Lat: lat}
		streams[i] = f.NewStream(sim.NewRand(cfg.Seed+uint64(i)+1), pool, mem.Addr(i+1)<<32)
	}
	r := &cpu.Runner{Cores: cores, Streams: streams}
	r.RunInstr(cfg.WarmupInstr)
	for _, c := range cores {
		c.ResetCounters()
	}
	r.RunInstr(cfg.MeasureInstr)
	ipcs := make([]float64, n)
	for i, c := range cores {
		ipcs[i] = c.IPC()
	}
	return ipcs, nil
}

// Degradation converts an IPC pair to percent slowdown. It is clamped
// at 0 (the paper reports degradation), and a non-positive baseline —
// nothing measured — reads 0.
func Degradation(base, devIPC float64) float64 {
	if base <= 0 {
		return 0
	}
	d := (base - devIPC) / base * 100
	if d < 0 {
		return 0
	}
	return d
}

// partnersFor samples deterministic colocation groups of the given size
// containing the target NF.
func partnersFor(cfg Fig5Config, target string, groupSize, count int) [][]string {
	rng := sim.NewRand(cfg.Seed ^ 0xC0C0)
	var groups [][]string
	if groupSize == 2 {
		// Exhaustive pairings, as the paper does for 2 NFs.
		for _, other := range nf.Names {
			groups = append(groups, []string{target, other})
		}
		return groups
	}
	for g := 0; g < count; g++ {
		group := []string{target}
		for len(group) < groupSize {
			group = append(group, nf.Names[rng.Intn(len(nf.Names))])
		}
		groups = append(groups, group)
	}
	return groups
}

// Figure5a sweeps L2 size with 2 co-located NFs.
func Figure5a(cfg Fig5Config, l2Sizes []uint64) ([]Fig5Row, error) {
	return defaultRunner.Figure5a(cfg, l2Sizes)
}

// Figure5a decomposes the cache sweep into one engine job per
// (L2 size, target NF) point. The colocation simulator derives all of
// its randomness from cfg.Seed, so every point is already a pure
// function of (cfg, size, target) and safe to run on any worker.
func (r *Runner) Figure5a(cfg Fig5Config, l2Sizes []uint64) ([]Fig5Row, error) {
	cfg.defaults()
	if len(l2Sizes) == 0 {
		l2Sizes = []uint64{
			8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10,
			512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20,
		}
	}
	var jobs []engine.Job[Fig5Row]
	for _, size := range l2Sizes {
		for _, target := range nf.Names {
			key := sizeLabel(size) + "/" + target
			jobs = append(jobs, engine.Job[Fig5Row]{
				Experiment: "fig5a",
				Key:        key,
				Run: func(*sim.Rand) (Fig5Row, error) {
					return cachePoint(cfg, r.obsReg(), "fig5a/"+key, "snic", target, 2, 0, size)
				},
			})
		}
	}
	return runJobs(r, cfg.Seed, jobs)
}

// Figure5b sweeps co-tenancy at a fixed 4 MB L2.
func Figure5b(cfg Fig5Config, counts []int) ([]Fig5Row, error) {
	return defaultRunner.Figure5b(cfg, counts)
}

// Figure5b decomposes the co-tenancy sweep into one engine job per
// (tenant count, target NF) point.
func (r *Runner) Figure5b(cfg Fig5Config, counts []int) ([]Fig5Row, error) {
	cfg.defaults()
	if len(counts) == 0 {
		counts = []int{2, 3, 4, 8, 16}
	}
	var jobs []engine.Job[Fig5Row]
	for _, n := range counts {
		for _, target := range nf.Names {
			key := fmt.Sprintf("%dNFs/%s", n, target)
			jobs = append(jobs, engine.Job[Fig5Row]{
				Experiment: "fig5b",
				Key:        key,
				Run: func(*sim.Rand) (Fig5Row, error) {
					row, err := cachePoint(cfg, r.obsReg(), "fig5b/"+key, "snic", target, n, cfg.Colocations, 4<<20)
					if err != nil {
						return Fig5Row{}, err
					}
					row.X = fmt.Sprintf("%d NFs", n)
					return row, nil
				},
			})
		}
	}
	return runJobs(r, cfg.Seed, jobs)
}

// cachePoint measures one Figure 5 point: the target NF's degradation
// distribution over its sampled colocation groups at one L2 size, with
// the isolated side run on a fresh device of the named model. scope
// prefixes the metric device labels (one sub-scope per sampled group).
func cachePoint(cfg Fig5Config, reg *obs.Registry, scope, model, target string, groupSize, count int, l2Size uint64) (Fig5Row, error) {
	dev, err := device.New(device.Spec{Model: model})
	if err != nil {
		return Fig5Row{}, err
	}
	var degs []float64
	for gi, group := range partnersFor(cfg, target, groupSize, count) {
		base, devIPC, err := colocation(cfg, reg, fmt.Sprintf("%s/g%d", scope, gi), group, l2Size, dev)
		if err != nil {
			return Fig5Row{}, err
		}
		degs = append(degs, Degradation(base[0], devIPC[0]))
	}
	s := sim.Summarize(degs)
	return Fig5Row{
		NF: target, X: sizeLabel(l2Size),
		Median: s.Median, P1: s.P1, P99: s.P99,
	}, nil
}

// RenderFig5 formats rows as a table.
func RenderFig5(title string, rows []Fig5Row) Table {
	t := Table{
		Title:  title,
		Header: []string{"x", "NF", "median %", "p1 %", "p99 %"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.X, r.NF, f2(r.Median), f2(r.P1), f2(r.P99)})
	}
	return t
}

func sizeLabel(b uint64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dMB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dKB", b>>10)
	}
	return fmt.Sprintf("%dB", b)
}

// MedianAcrossNFs summarizes rows for a given x label (the "average
// (median) IPC degradation" numbers quoted in §5.3).
func MedianAcrossNFs(rows []Fig5Row, x string) (mean float64, p99 float64) {
	var meds, p99s []float64
	for _, r := range rows {
		if r.X == x {
			meds = append(meds, r.Median)
			p99s = append(p99s, r.P99)
		}
	}
	if len(meds) == 0 {
		return 0, 0
	}
	s := sim.Summarize(meds)
	return s.Mean, sim.Percentile(p99s, 0.99)
}

// ThroughputHeadline computes the paper's §1 claim — "our isolation
// mechanisms decrease function throughput by less than 1.7%" — which §5.3
// grounds as the 99th-percentile IPC degradation with 4 co-located NFs
// and a 4 MB L2. It returns (median, p99) in percent.
func ThroughputHeadline(cfg Fig5Config) (float64, float64, error) {
	return defaultRunner.ThroughputHeadline(cfg)
}

// ThroughputHeadline computes the §1 claim on r's worker pool.
func (r *Runner) ThroughputHeadline(cfg Fig5Config) (float64, float64, error) {
	rows, err := r.Figure5b(cfg, []int{4})
	if err != nil {
		return 0, 0, err
	}
	med, p99 := MedianAcrossNFs(rows, "4 NFs")
	return med, p99, nil
}
