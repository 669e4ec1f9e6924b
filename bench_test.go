// Package bench hosts the repository-level benchmark harness: one
// testing.B benchmark per table and figure in the paper's evaluation,
// plus ablation benches for the design choices DESIGN.md calls out
// (bus arbiter discipline, cache policy, page-size setting).
//
// Run everything with:
//
//	go test -bench=. -benchmem .
//
// Key reproduced values are attached to each benchmark via ReportMetric,
// so `go test -bench` output doubles as the paper-vs-measured record.
package bench

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"snic/internal/accel"
	"snic/internal/attacks"
	"snic/internal/attest"
	"snic/internal/bus"
	"snic/internal/cache"
	"snic/internal/exp"
	"snic/internal/hwmodel"
	"snic/internal/lint"
	"snic/internal/mem"
	"snic/internal/nf"
	"snic/internal/obs"
	"snic/internal/pkt"
	"snic/internal/pktio"
	"snic/internal/sim"
	"snic/internal/snic"
	"snic/internal/tco"
	"snic/internal/tlb"
	"snic/internal/trace"
)

func BenchmarkTable2CoreTLBCosts(b *testing.B) {
	var m hwmodel.Metric
	for i := 0; i < b.N; i++ {
		m = hwmodel.CoreTLBCost(48, 183)
	}
	b.ReportMetric(m.AreaMM2, "mm2@48x183")
	b.ReportMetric(m.PowerW, "W@48x183")
}

func BenchmarkTable3AccelTLBCosts(b *testing.B) {
	var m hwmodel.Metric
	for i := 0; i < b.N; i++ {
		m = hwmodel.AccelTLBCost(hwmodel.DPITLB, 54, 16)
	}
	b.ReportMetric(m.AreaMM2, "mm2@dpi16")
}

func BenchmarkTable4PipeTLBCosts(b *testing.B) {
	var m hwmodel.Metric
	for i := 0; i < b.N; i++ {
		m = hwmodel.PipeTLBCost(3, 12)
	}
	b.ReportMetric(m.AreaMM2, "mm2@12vpp")
}

func BenchmarkTable5PageSizeSettings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := new(exp.Runner).Table5(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchProfiles runs the Table 6/8 profiling workload once per iteration
// at a reduced-but-structurally-complete scale.
func BenchmarkTable6And8NFProfiles(b *testing.B) {
	var profiles []exp.NFProfile
	for i := 0; i < b.N; i++ {
		var err error
		profiles, err = new(exp.Runner).ProfileNFs(nf.SuiteConfig{
			FirewallRules: 643, DPIPatterns: 2000, Routes: 16000, Backends: 64, Seed: 1,
		}, 20000, 60000)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range profiles {
		if p.Name == "LPM" {
			b.ReportMetric(float64(p.Measured.Total())/(1<<20), "LPM-MB")
			b.ReportMetric(float64(p.Equal), "LPM-TLB-entries")
		}
	}
}

// BenchmarkNFBuild builds each NF at the snicbench -scale medium suite
// config: the model construction behind every Table 6/8 profiling job and
// each Figure 5 NF model, one sub-benchmark per NF.
func BenchmarkNFBuild(b *testing.B) {
	cfg := nf.SuiteConfig{
		FirewallRules: 643, DPIPatterns: 8000, Routes: 16000, Backends: 64, Seed: 1,
	}
	for _, name := range nf.Names {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := nf.New(name, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable7AcceleratorProfiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := new(exp.Runner).Table7(0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCO(b *testing.B) {
	var r tco.Report
	for i := 0; i < b.N; i++ {
		r = tco.Compute(tco.PaperParams())
	}
	b.ReportMetric(r.SNICPerCore, "$peSNICcore")
	b.ReportMetric(r.AdvantageKept*100, "pct-advantage-kept")
}

func BenchmarkHeadlineHardwareCost(b *testing.B) {
	var areaPct, powerPct float64
	for i := 0; i < b.N; i++ {
		_, _, areaPct, powerPct = hwmodel.Headline()
	}
	b.ReportMetric(areaPct, "area-pct")
	b.ReportMetric(powerPct, "power-pct")
}

func fig5Bench() exp.Fig5Config {
	return exp.Fig5Config{
		PoolFlows:    20000,
		WarmupInstr:  40000,
		MeasureInstr: 120000,
		Colocations:  3,
		Seed:         1,
	}
}

func BenchmarkFigure5aCacheSweep(b *testing.B) {
	var med float64
	for i := 0; i < b.N; i++ {
		rows, err := new(exp.Runner).Figure5a(fig5Bench(), []uint64{64 << 10, 4 << 20})
		if err != nil {
			b.Fatal(err)
		}
		med, _ = exp.MedianAcrossNFs(rows, "4MB")
	}
	b.ReportMetric(med, "pct-degr-2NF-4MB")
}

func BenchmarkFigure5bCotenancySweep(b *testing.B) {
	var m4, m8 float64
	for i := 0; i < b.N; i++ {
		rows, err := new(exp.Runner).Figure5b(fig5Bench(), []int{4, 8})
		if err != nil {
			b.Fatal(err)
		}
		m4, _ = exp.MedianAcrossNFs(rows, "4 NFs")
		m8, _ = exp.MedianAcrossNFs(rows, "8 NFs")
	}
	b.ReportMetric(m4, "pct-degr-4NF")
	b.ReportMetric(m8, "pct-degr-8NF")
}

// BenchmarkFigure5Suite runs fig5a, fig5b and fig5dev on one Runner, as
// snicbench does, so fig5b's 2-NF column and fig5dev reuse fig5a's 4MB
// groups. Each iteration starts a fresh Runner and so times one whole
// suite, not the previous iteration's results.
func BenchmarkFigure5Suite(b *testing.B) {
	cfg := fig5Bench()
	for i := 0; i < b.N; i++ {
		r := &exp.Runner{}
		if _, err := r.Figure5a(cfg, []uint64{64 << 10, 4 << 20}); err != nil {
			b.Fatal(err)
		}
		if _, err := r.Figure5b(cfg, []int{2, 4}); err != nil {
			b.Fatal(err)
		}
		if _, err := r.Figure5Devices(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6InstructionLatency(b *testing.B) {
	var rows []exp.Fig6Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = new(exp.Runner).Figure6()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.NF == "Mon" {
			b.ReportMetric(r.LaunchSHAMS, "Mon-launch-SHA-ms")
			b.ReportMetric(r.DestroyScrub, "Mon-scrub-ms")
		}
	}
}

func BenchmarkFigure7MonitorTimeSeries(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		series, err := new(exp.Runner).Figure7(20, 4000, 50)
		if err != nil {
			b.Fatal(err)
		}
		last = series[len(series)-1].LiveMB
	}
	b.ReportMetric(last, "final-MB")
}

func BenchmarkFigure8DPIThroughput(b *testing.B) {
	var rows []exp.Fig8Row
	for i := 0; i < b.N; i++ {
		var err error
		if rows, err = new(exp.Runner).Figure8(3000); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Threads == 48 && r.FrameBytes == 64 {
			b.ReportMetric(r.Mpps, "Mpps-48thr-64B")
		}
		if r.Threads == 16 && r.FrameBytes == 9216 {
			b.ReportMetric(r.Mpps, "Mpps-16thr-9KB")
		}
	}
}

// --- Engine parallel-vs-serial speedup -----------------------------------

// The experiment engine must turn worker count into wall-clock speedup
// while emitting byte-identical rows (exp's TestWorkerCountInvariance
// pins the latter). Compare ns/op across the worker sub-benchmarks: on a
// machine with >= 4 cores, the 4-worker runs of these sweeps (6 jobs for
// ProfileNFs, 18 for Figure5b) are expected to be at least ~2x faster
// than 1-worker runs. On fewer cores the jobs timeslice and the ratio
// collapses toward 1x — each sub-benchmark reports its GOMAXPROCS so the
// ratio can be interpreted.

func BenchmarkEngineProfileNFs(b *testing.B) {
	cfg := nf.SuiteConfig{
		FirewallRules: 643, DPIPatterns: 2000, Routes: 16000, Backends: 64, Seed: 1,
	}
	for _, w := range []int{1, 2, 4} {
		b.Run(workerName(w), func(b *testing.B) {
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
			r := &exp.Runner{Workers: w}
			for i := 0; i < b.N; i++ {
				if _, err := r.ProfileNFs(cfg, 20000, 60000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEngineFigure5b(b *testing.B) {
	cfg := exp.Fig5Config{
		PoolFlows:    5000,
		WarmupInstr:  20000,
		MeasureInstr: 60000,
		Colocations:  2,
		Seed:         1,
	}
	for _, w := range []int{1, 2, 4} {
		b.Run(workerName(w), func(b *testing.B) {
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
			for i := 0; i < b.N; i++ {
				// A fresh Runner per iteration: a Runner keeps the groups
				// it simulated, so reusing one would time memo hits.
				r := &exp.Runner{Workers: w}
				if _, err := r.Figure5b(cfg, []int{2, 4, 8}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func workerName(w int) string {
	return map[int]string{1: "1worker", 2: "2workers", 4: "4workers"}[w]
}

// --- Ablations -----------------------------------------------------------

// BenchmarkBusArbiters measures a victim's bus wait under a saturating
// attacker for each arbitration discipline (the §4.5 design choice).
func BenchmarkBusArbiters(b *testing.B) {
	disciplines := []struct {
		name string
		mk   func() bus.Arbiter
	}{
		{"FIFO", func() bus.Arbiter { return bus.NewFIFO() }},
		{"RoundRobin", func() bus.Arbiter { return bus.NewRoundRobin(2, 1024) }},
		{"Temporal", func() bus.Arbiter { return bus.NewTemporal(2, 60, 10) }},
	}
	for _, d := range disciplines {
		b.Run(d.name, func(b *testing.B) {
			var waited uint64
			for i := 0; i < b.N; i++ {
				arb := bus.NewTracker(d.mk(), 2)
				// Attacker floods...
				now := uint64(0)
				for j := 0; j < 2000; j++ {
					now = arb.Request(0, now, 8) + 8
				}
				// ...victim issues 100 spaced ops.
				vnow := uint64(0)
				for j := 0; j < 100; j++ {
					start := arb.Request(1, vnow, 8)
					vnow = start + 50
				}
				waited = arb.Stats(1).WaitCycles
			}
			b.ReportMetric(float64(waited)/100, "victim-wait-cycles/op")
		})
	}
}

// BenchmarkCachePolicies measures prime+probe leakage per policy (the
// §4.2 design choice).
func BenchmarkCachePolicies(b *testing.B) {
	for _, p := range []cache.Policy{cache.Shared, cache.Static} {
		b.Run(p.String(), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				var err error
				acc, err = attacks.PrimeProbe(p, 128, uint64(i+1))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(acc*100, "probe-accuracy-pct")
		})
	}
}

// BenchmarkL2Access measures the cache layer alone: one op is one
// Access on a Figure 5-shaped L2 (4 MB, 16 ways, 16 domains) under each
// policy. The seeded trace is built, and replayed once to warm the cache,
// outside the timer. Each domain draws Zipf-distributed lines from its own
// 512 KB region; the 16 regions together are twice the cache, and the
// trace touches more distinct lines than the cache holds, so about one
// access in seven misses and evicts.
func BenchmarkL2Access(b *testing.B) {
	const (
		domains     = 16
		regionLines = 512 << 10 / 64
		traceLen    = 1 << 18
	)
	rng := sim.DeriveRand(0xCACE, "bench-l2-access")
	lines := sim.NewZipf(rng, regionLines, 0.9)
	type ref struct {
		pa     mem.Addr
		domain int
	}
	refs := make([]ref, traceLen)
	for i := range refs {
		d := rng.Intn(domains)
		refs[i] = ref{pa: mem.Addr(d*regionLines+lines.Next()) * 64, domain: d}
	}
	for _, p := range []cache.Policy{cache.Shared, cache.Static} {
		b.Run(p.String(), func(b *testing.B) {
			l2, err := cache.New(cache.Config{Name: "L2", Size: 4 << 20, LineSize: 64,
				Ways: 16, Policy: p, Domains: domains})
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range refs {
				l2.Access(r.pa, r.domain, false)
			}
			hits := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := refs[i%traceLen]
				if l2.Access(r.pa, r.domain, false) {
					hits++
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
			b.ReportMetric(float64(hits)/float64(b.N), "hit-ratio")
		})
	}
}

// BenchmarkDPIClusterGranularity extends Figure 8 with the small-cluster
// configurations the paper's hardware cannot test (its parts cluster at a
// 16-thread granularity).
func BenchmarkDPIClusterGranularity(b *testing.B) {
	p := accel.DefaultDPIPerf()
	for _, threads := range []int{4, 8, 16, 32, 48} {
		b.Run(benchName(threads), func(b *testing.B) {
			var mpps float64
			for i := 0; i < b.N; i++ {
				mpps = accel.Mpps(accel.SimulateThroughput(p, threads, 1536, 3000))
			}
			b.ReportMetric(mpps, "Mpps-1.5KB")
		})
	}
}

func benchName(threads int) string {
	return map[int]string{4: "4thr", 8: "8thr", 16: "16thr", 32: "32thr", 48: "48thr"}[threads]
}

// --- Microbenchmarks of the trusted instructions --------------------------

func deviceForBench(b *testing.B) *snic.Device {
	b.Helper()
	v, err := attest.NewVendor("V", nil)
	if err != nil {
		b.Fatal(err)
	}
	d, err := snic.New(snic.Config{Cores: 8, MemBytes: 256 << 20}, v)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func BenchmarkNFLaunchTeardown(b *testing.B) {
	d := deviceForBench(b)
	spec := snic.LaunchSpec{
		CoreMask: 0b01, Image: make([]byte, 64<<10), MemBytes: 8 << 20,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := d.Launch(spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Teardown(rep.ID); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNFAttest(b *testing.B) {
	d := deviceForBench(b)
	rep, err := d.Launch(snic.LaunchSpec{
		CoreMask: 0b01, Image: []byte("nf"), MemBytes: 1 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	nonce := []byte("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := d.AttestNF(rep.ID, nonce); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSendLocalChainHop(b *testing.B) {
	d := deviceForBench(b)
	a, err := d.Launch(snic.LaunchSpec{CoreMask: 0b01, Image: []byte("a"), MemBytes: 2 << 20})
	if err != nil {
		b.Fatal(err)
	}
	c, err := d.Launch(snic.LaunchSpec{CoreMask: 0b10, Image: []byte("b"), MemBytes: 2 << 20})
	if err != nil {
		b.Fatal(err)
	}
	frame := make([]byte, 1500)
	if err := d.NFWrite(a.ID, tlb.VAddr(512<<10), frame); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.SendLocal(a.ID, c.ID, tlb.VAddr(512<<10), len(frame)); err != nil {
			b.Fatal(err)
		}
		d.NF(c.ID).VPP.Pop() // drain so the ring never tail-drops
	}
}

func BenchmarkPacketSwitchDeliver(b *testing.B) {
	d := deviceForBench(b)
	_, err := d.Launch(snic.LaunchSpec{
		CoreMask: 0b01, Image: []byte("nf"), MemBytes: 2 << 20,
		Rules: []pktio.MatchSpec{{Proto: pkt.ProtoTCP}},
	})
	if err != nil {
		b.Fatal(err)
	}
	frame := (&pkt.Packet{
		Tuple:   pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 80, Proto: pkt.ProtoTCP},
		Payload: make([]byte, 512),
	}).Marshal()
	id := snic.ID(3)
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Switch().Deliver(frame); err != nil {
			b.Fatal(err)
		}
		d.NF(id).VPP.Pop()
	}
}

// --- Serverless churn ------------------------------------------------------

// BenchmarkChurnNF is the BENCH_10 trajectory benchmark: one full churn
// round — launch toward a steady-state live target, attest the
// newcomers, tear down pseudo-random victims, then drain — against a
// fresh S-NIC each iteration. A fresh device per round keeps NF ids far
// from the edge of the uint16 namespace and makes every iteration
// identical work. CHURN_FASTPATH=0 pins the paper-exact cold control
// path (record that run as the BENCH_10 "baseline" section); the
// default run enables batched attestation, the warm scrubbed-arena
// pool, and parallel teardown scrub ("post"). sim-launches-per-sec is
// the headline metric: post must hold at >= 3x baseline.
func BenchmarkChurnNF(b *testing.B) {
	fast := os.Getenv("CHURN_FASTPATH") != "0"
	const (
		events = 60
		target = 6
		batch  = 4
	)
	v, err := attest.NewVendor("V", nil)
	if err != nil {
		b.Fatal(err)
	}
	nonce := []byte("bench-churn")
	var simMS float64
	var launches uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := snic.New(snic.Config{Cores: 8, MemBytes: 256 << 20}, v)
		if err != nil {
			b.Fatal(err)
		}
		if fast {
			d.SetFastPaths(snic.FastPaths{WarmPool: true, ParallelScrub: true})
		}
		rng := sim.NewRand(0x10C)
		free := []uint{0, 1, 2, 3, 4, 5, 6, 7}
		coreOf := map[snic.ID]uint{}
		var live, pending []snic.ID
		flush := func() {
			if len(pending) == 0 {
				return
			}
			if fast {
				_, _, _, ms, err := d.AttestNFBatch(pending, nonce)
				if err != nil {
					b.Fatal(err)
				}
				simMS += ms
			} else {
				for _, id := range pending {
					_, _, ms, err := d.AttestNF(id, nonce)
					if err != nil {
						b.Fatal(err)
					}
					simMS += ms
				}
			}
			pending = pending[:0]
		}
		down := func(k int) {
			id := live[k]
			live = append(live[:k], live[k+1:]...)
			for j, p := range pending {
				if p == id {
					pending = append(pending[:j], pending[j+1:]...)
					break
				}
			}
			rep, err := d.Teardown(id)
			if err != nil {
				b.Fatal(err)
			}
			simMS += rep.TotalMS()
			free = append(free, coreOf[id])
			delete(coreOf, id)
		}
		for ev, seq := 0, 0; ev < events; ev++ {
			if len(live) < target {
				core := free[0]
				free = free[1:]
				rep, err := d.Launch(snic.LaunchSpec{
					CoreMask:   1 << core,
					Image:      []byte(fmt.Sprintf("churn fn %05d", seq)),
					MemBytes:   1 << 20,
					RXBufBytes: 32 << 10,
					TXBufBytes: 32 << 10,
				})
				if err != nil {
					b.Fatal(err)
				}
				seq++
				coreOf[rep.ID] = core
				live = append(live, rep.ID)
				pending = append(pending, rep.ID)
				launches++
				simMS += rep.TotalMS()
				if len(pending) >= batch {
					flush()
				}
			} else {
				down(rng.Intn(len(live)))
			}
		}
		flush()
		for len(live) > 0 {
			down(len(live) - 1)
		}
	}
	if simMS > 0 {
		b.ReportMetric(float64(launches)/(simMS/1e3), "sim-launches-per-sec")
	}
	b.ReportMetric(simMS/float64(b.N), "sim-ms-per-round")
}

// --- Streaming replay ------------------------------------------------------

// BenchmarkReplayCAIDA is the trajectory benchmark for the full-scale
// replay path: scaled-down CAIDA-shaped windows streamed through sharded
// Monitor models. The cases vary packets per flow, the one property the
// replay's per-flow key encoding depends on: perflow=1 encodes a key
// for every packet, perflow=3 is the golden shape, and perflow=50 is
// the paper's ratio, which `snicbench -scale full -experiment replay`
// streams 1.34 G packets of.
func BenchmarkReplayCAIDA(b *testing.B) {
	for _, cfg := range []exp.ReplayConfig{
		{Flows: 150000, PerFlow: 1, Shards: 4, Seed: 0xCA1DA},
		{Flows: 50000, PerFlow: 3, Shards: 4, Seed: 0xCA1DA},
		{Flows: 20000, PerFlow: 50, Shards: 4, Seed: 0xCA1DA},
	} {
		b.Run(fmt.Sprintf("perflow=%d", cfg.PerFlow), func(b *testing.B) {
			var res exp.ReplayResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = new(exp.Runner).ReplayCAIDA(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.PeakMB, "peak-MB")
			b.ReportMetric(float64(res.Packets)/float64(b.Elapsed().Nanoseconds())*float64(b.N)*1e3, "Mpps")
		})
	}
}

// BenchmarkCAIDAStreamDraw measures the per-packet cost of the CAIDA
// flow-arrival iterator.
func BenchmarkCAIDAStreamDraw(b *testing.B) {
	st := trace.NewCAIDABudget(sim.NewRand(2), uint64(b.N)+1, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, ok := st.Next(); !ok {
			b.Fatal("caida stream ended")
		}
	}
}

// --- Flight recorder -------------------------------------------------------

// BenchmarkObsRecorder measures the per-span cost of the trace collector
// in both shapes: the unbounded append every traced run pays today, and
// the bounded flight recorder (cap 1024) that replaces the append with a
// ring overwrite once warm. The two must stay within noise of each
// other — if the ring ever costs measurably more per span than the
// slice it bounds, -trace-cap stops being a free memory cap.
func BenchmarkObsRecorder(b *testing.B) {
	for _, tc := range []struct {
		name string
		cap  int
	}{{"unbounded", 0}, {"cap1024", 1024}} {
		b.Run(tc.name, func(b *testing.B) {
			reg := obs.NewRegistry()
			reg.SetTraceCapacity(tc.cap)
			tr := reg.Tracer("bench")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr.Span("rec", "span", uint64(i), 1)
			}
		})
	}
}

// --- Lint self-analysis ----------------------------------------------------

// BenchmarkSniclintSelf measures the full sniclint gate end to end:
// discover, parse, and type-check every package in the module, then run
// the complete check registry (including waiver validation). This is
// what `make lint` and lint's TestModuleIsClean pay on every run, so a
// regression here slows every CI round and local verify; snicperf gates
// it like the simulator benchmarks. A fresh Loader per iteration is
// deliberate — load+typecheck dominates real invocations.
func BenchmarkSniclintSelf(b *testing.B) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	var findings int
	for i := 0; i < b.N; i++ {
		loader := lint.NewLoader("snic", root)
		pkgs, err := loader.LoadPatterns(nil)
		if err != nil {
			b.Fatal(err)
		}
		findings = len(lint.Run(loader.Fset, pkgs, lint.Registry()))
	}
	b.ReportMetric(float64(findings), "findings")
}

// TestSteadyStateDrawAllocations pins the satellite claim behind the
// streaming refactor: after warm-up, drawing a packet from either
// generator performs zero heap allocations. AllocsPerRun's
// warm-up run absorbs the one-time buffer growth; any per-packet slice
// regression fails here before it shows up as full-scale GC churn.
func TestSteadyStateDrawAllocations(t *testing.T) {
	pool := trace.NewICTF(sim.NewRand(3), 5000)
	if avg := testing.AllocsPerRun(200, func() {
		pool.NextPacketBuf(512)
	}); avg != 0 {
		t.Errorf("Pool.NextPacketBuf: %.1f allocs/packet, want 0", avg)
	}
	cs := trace.NewCAIDABudget(sim.NewRand(5), 1<<40, 3)
	if avg := testing.AllocsPerRun(200, func() {
		cs.Next()
	}); avg != 0 {
		t.Errorf("CAIDAStream.Next: %.1f allocs/packet, want 0", avg)
	}
}
