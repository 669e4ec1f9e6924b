package exp

import (
	"fmt"
	"strconv"
	"strings"

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
// returns the NFs' IPCs on commodity hardware (shared L2, FIFO bus) and
// on dev's own L2 policy and bus arbiter, with the same cache size and
// co-tenancy — exactly the §5.3 comparison when dev is S-NIC. Both
// slices lead with names[0], the target; devIPC may hold the target
// alone. With a collector attached, the L2 and the bus tracker report
// per-domain counters under "<scope>/base" and "<scope>/dev"; the sides
// are not named after their policies because a commodity dev is itself
// "shared".
func (r *Runner) colocation(cfg Fig5Config, scope string, names []string, l2Size uint64, dev device.NIC) (base, devIPC []float64, err error) {
	base, err = r.runGroup(cfg, scope+"/base", names, len(names), l2Size, cache.Shared, bus.NewFIFO())
	if err != nil {
		return nil, nil, err
	}
	// On a device whose L2 ways and bus epochs are private per domain
	// (§4.5), the target's timing is a function of its own history, so
	// only the target core is simulated, unless a collector wants every
	// domain's series.
	run := names
	if r.obsReg() == nil && dev.Caps().Has(device.PartitionedCache|device.ArbitratedBus) {
		run = names[:1]
	}
	devIPC, err = r.runGroup(cfg, scope+"/dev", run, len(names), l2Size,
		dev.CachePolicy(), dev.NewBusArbiter(len(names)))
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
	return simulateGroup(cfg, nil, "", names, len(names), l2Size, dev.CachePolicy(), dev.NewBusArbiter(len(names)))
}

// groupKey identifies one co-tenancy group run. simulateGroup's result
// is a pure function of these inputs: the simulated prefix's order
// matters (domain i runs names[i] on its own traffic), domains sizes the
// L2 partition and the arbiter, and arb is the fresh arbiter's Config,
// so disciplines that differ in any parameter never share an entry.
type groupKey struct {
	cfg     Fig5Config
	names   string // the simulated prefix, comma-joined
	domains int
	l2Size  uint64
	policy  cache.Policy
	arb     string
}

type groupResult struct {
	ipcs []float64 // shared by every hit: read-only
	err  error
}

// runGroup returns the measured IPC of each NF in names, the leading
// domains of a group of the given size, simulating each distinct run
// once per Runner: fig5b's 2-NF column and fig5dev reuse fig5a's 4MB
// groups, a commodity model's dev side (Shared L2, FIFO bus) reuses its
// baseline side, and every S-NIC group of one (target, size, L2 size)
// shares one solo run. With a collector attached every call simulates,
// so each scope still emits its series. arb must be freshly built; it is
// consumed by the simulation.
func (r *Runner) runGroup(cfg Fig5Config, scope string, names []string, domains int, l2Size uint64,
	policy cache.Policy, arb bus.Arbiter) ([]float64, error) {
	if r == nil || r.Obs != nil {
		return simulateGroup(cfg, r.obsReg(), scope, names, domains, l2Size, policy, arb)
	}
	key := groupKey{cfg: cfg, names: strings.Join(names, ","), domains: domains,
		l2Size: l2Size, policy: policy, arb: arb.Config()}
	res := r.groups.Get(key, func() groupResult {
		ipcs, err := simulateGroup(cfg, nil, "", names, domains, l2Size, policy, arb)
		return groupResult{ipcs: ipcs, err: err}
	})
	return res.ipcs, res.err
}

// simulateGroup is the one co-tenancy simulator: it builds one NIC's L2
// and bus for the given number of domains under one cache policy and
// bus arbiter, runs the NFs in names on the leading domains' cores, and
// returns each one's measured IPC. scope labels the metrics when a
// collector is attached. NF models and the workload template come from
// the process-wide memo caches (see memo.go); every run still gets
// private L1s, a private L2, fresh per-stream RNGs, and one fresh pool
// per domain, so runs never share mutable state.
func simulateGroup(cfg Fig5Config, reg *obs.Registry, scope string, names []string, domains int, l2Size uint64,
	policy cache.Policy, arb bus.Arbiter) ([]float64, error) {
	l2cfg := cache.Config{
		Name: "L2", Size: l2Size, LineSize: 64, Ways: 16,
		Policy: policy, Domains: domains,
	}
	if policy == cache.Static && l2cfg.Ways < domains {
		l2cfg.Ways = domains // keep at least one way per domain at high co-tenancy
	}
	l2, err := cache.New(l2cfg)
	if err != nil {
		return nil, err
	}
	tr := bus.NewTracker(arb, domains)
	if reg != nil {
		l2.Observe(reg, scope)
		tr.Observe(reg, scope)
	}
	lat := cpu.DefaultLatencies()
	tpl := ictfTemplate(sim.NewRand(cfg.Seed).ForkSeed(), cfg.PoolFlows)
	cores := make([]*cpu.Core, len(names))
	streams := make([]cpu.Stream, len(names))
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
		// Each domain draws its own traffic over the shared flow set, so
		// what domain i sees never depends on when its partners draw.
		d := strconv.Itoa(i)
		pool := tpl.SeededPool(sim.DeriveSeed(cfg.Seed, "fig5", d, "zipf"), sim.DeriveSeed(cfg.Seed, "fig5", d, "payload"))
		streams[i] = f.NewStream(sim.NewRand(cfg.Seed+uint64(i)+1), pool, mem.Addr(i+1)<<32)
	}
	r := &cpu.Runner{Cores: cores, Streams: streams}
	r.RunInstr(cfg.WarmupInstr)
	for _, c := range cores {
		c.ResetCounters()
	}
	// The cores' clocks restart at 0, so the bus must too: an arbiter
	// still holding the warm-up's end time would stall the first
	// measured request for the whole warm-up.
	tr.Reset()
	r.RunInstr(cfg.MeasureInstr)
	ipcs := make([]float64, len(cores))
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
//
// It decomposes the cache sweep into one engine job per
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
					return r.cachePoint(cfg, "fig5a/"+key, "snic", target, 2, 0, size)
				},
			})
		}
	}
	return runJobs(r, cfg.Seed, jobs)
}

// Figure5b sweeps co-tenancy at a fixed 4 MB L2.
//
// It decomposes the co-tenancy sweep into one engine job per
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
					row, err := r.cachePoint(cfg, "fig5b/"+key, "snic", target, n, cfg.Colocations, 4<<20)
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
func (r *Runner) cachePoint(cfg Fig5Config, scope, model, target string, groupSize, count int, l2Size uint64) (Fig5Row, error) {
	dev, err := device.New(device.Spec{Model: model})
	if err != nil {
		return Fig5Row{}, err
	}
	var degs []float64
	for gi, group := range partnersFor(cfg, target, groupSize, count) {
		base, devIPC, err := r.colocation(cfg, fmt.Sprintf("%s/g%d", scope, gi), group, l2Size, dev)
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
func (r *Runner) ThroughputHeadline(cfg Fig5Config) (float64, float64, error) {
	rows, err := r.Figure5b(cfg, []int{4})
	if err != nil {
		return 0, 0, err
	}
	med, p99 := MedianAcrossNFs(rows, "4 NFs")
	return med, p99, nil
}
