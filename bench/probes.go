package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"snic/internal/attest"
	"snic/internal/bus"
	"snic/internal/cache"
	"snic/internal/cpu"
	"snic/internal/device"
	"snic/internal/engine"
	"snic/internal/exp"
	"snic/internal/fleet"
	"snic/internal/mem"
	"snic/internal/nf"
	"snic/internal/obs"
	"snic/internal/sim"
	"snic/internal/snic"
	"snic/internal/trace"
)

// probeScale sizes the per-layer probes of the traced run. Every probe
// calls a layer's public functions from benchmark code on fixed inputs
// derived from the seed, so each layer's cost is measured the same way
// whichever workload is traced.
type probeScale struct {
	engineJobs    int    // empty jobs timed for per-job overhead
	templateFlows int    // ICTF flow set size (Figure 5's pool)
	templateReps  int    // template builds timed
	streamReps    int    // NewStream calls per NF
	drainCalls    int    // NextBatch calls per NF stream
	coreInstr     uint64 // instructions captured per simulated core
	caidaPackets  int    // CAIDA shard packets drained
	snicCycles    int    // launch/attest/teardown cycles per mode
	attestQuotes  int
	attestBatches int
	vendorSetups  int
	fleetOps      int // requests replayed in-process and over HTTP
	exportReps    int // timed metric exports
}

var fullProbe = probeScale{
	engineJobs: 4096, templateFlows: 50000, templateReps: 3, streamReps: 4,
	drainCalls: 64 * batchCalls, coreInstr: 500000, caidaPackets: 4 << 20,
	snicCycles: 100, attestQuotes: 20, attestBatches: 10, vendorSetups: 5,
	fleetOps: 500, exportReps: 5,
}

var tinyProbe = probeScale{
	engineJobs: 256, templateFlows: 2000, templateReps: 1, streamReps: 1,
	drainCalls: batchCalls, coreInstr: 4000, caidaPackets: 2 * batchCalls,
	snicCycles: 10, attestQuotes: 2, attestBatches: 1, vendorSetups: 1,
	fleetOps: 60, exportReps: 1,
}

// probeResult collects per-layer metrics plus the failures the probes'
// own checks found.
type probeResult struct {
	metrics map[string]float64
	failed  int
	// sweep is the engine probe's uneven sweep. The fleet workload's
	// sweeps run inside snicd, out of the benchmark's reach, so its
	// engine.* metrics come from here.
	sweep engine.Metrics
	// The NF suite and ICTF template probeNF builds, reused by probeCores.
	nfs  map[string]nf.NF
	tmpl *trace.PoolTemplate
}

func (p *probeResult) set(name string, v float64) { p.metrics[name] = v }

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// runProbes runs every layer probe once, each under its own span.
func runProbes(sc scale, seed uint64, tr *tracer) (*probeResult, error) {
	p := &probeResult{metrics: map[string]float64{}}
	probes := []struct {
		name string
		run  func(*probeResult, scale, uint64, *tracer, int) error
	}{
		{"engine", probeEngine},
		{"nf", probeNF},
		{"cpu", probeCores},
		{"exp", probeHeadline},
		{"trace", probeCAIDA},
		{"snic", probeSNIC},
		{"attest", probeAttest},
		{"fleet", probeFleet},
	}
	for _, pr := range probes {
		id := tr.open("probe."+pr.name, 0)
		err := pr.run(p, sc, seed, tr, id)
		tr.close(id)
		if err != nil {
			return p, fmt.Errorf("probe %s: %w", pr.name, err)
		}
	}
	return p, nil
}

// probeEngine times the engine's per-job overhead on empty jobs, and
// runs an uneven sweep of CPU-bound jobs for the scheduling metrics.
func probeEngine(p *probeResult, sc scale, seed uint64, tr *tracer, parent int) error {
	ps := sc.probe
	empty := make([]engine.Job[int], ps.engineJobs)
	for i := range empty {
		empty[i] = engine.Job[int]{Experiment: "probe", Key: fmt.Sprint(i),
			Run: func(*sim.Rand) (int, error) { return 0, nil }}
	}
	var per []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		if _, _, err := engine.Run(engine.Config{Workers: workers, Seed: seed}, empty); err != nil {
			return err
		}
		tr.record("engine.Run empty", parent, t, time.Now(), len(empty), 0)
		per = append(per, float64(time.Since(t))/1e3/float64(len(empty)))
	}
	p.set("engine.overhead_us_per_job", sim.Median(per))

	// Job k draws 2^(k%5) units of work, so a few long jobs decide the
	// sweep's wall time, as the fig5b 16-NF cells and profile/DPI do.
	uneven := make([]engine.Job[uint64], 24)
	for k := range uneven {
		draws := (ps.engineJobs * 64) << (k % 5)
		uneven[k] = engine.Job[uint64]{Experiment: "probe", Key: fmt.Sprintf("uneven/%02d", k),
			Run: func(rng *sim.Rand) (uint64, error) {
				var x uint64
				for i := 0; i < draws; i++ {
					x ^= rng.Uint64()
				}
				return x, nil
			}}
	}
	t := time.Now()
	_, m, err := engine.Run(engine.Config{Workers: workers, Seed: seed}, uneven)
	tr.record("engine.Run uneven", parent, t, time.Now(), len(uneven), 0)
	p.sweep = m
	return err
}

// fig5Suite is the NF suite Figure 5 builds (exp.Fig5Config's defaults).
func fig5Suite(sc scale) nf.SuiteConfig {
	s := sc.suite
	s.DPIPatterns = min(s.DPIPatterns, 4000)
	s.Routes = min(s.Routes, 4000)
	s.Backends = 8
	return s
}

// probeNF times the ICTF template build, each NF's NewStream, and
// draining the streams with NextBatch.
func probeNF(p *probeResult, sc scale, seed uint64, tr *tracer, parent int) error {
	ps := sc.probe
	var builds []float64
	for i := 0; i < ps.templateReps; i++ {
		t := time.Now()
		p.tmpl = trace.NewICTFTemplate(sim.DeriveRand(seed, "bench", "probe", "ictf"), ps.templateFlows)
		tr.record("trace.NewICTFTemplate", parent, t, time.Now(), 0, 0)
		builds = append(builds, msSince(t))
	}
	p.set("trace.template_build_ms", sim.Median(builds))

	var err error
	if p.nfs, err = nf.Suite(fig5Suite(sc)); err != nil {
		return err
	}
	var newMS, drainNS float64
	var streams int
	var ops int
	buf := make([]cpu.Op, 64)
	for i, name := range nf.Names {
		f := p.nfs[name]
		var s cpu.Stream
		for r := 0; r < ps.streamReps; r++ {
			pool := p.tmpl.Pool()
			rng := sim.DeriveRand(seed, "bench", "probe", "stream", name, fmt.Sprint(r))
			t := time.Now()
			s = f.NewStream(rng, pool, mem.Addr(i+1)<<32)
			tr.record("nf.NewStream", parent, t, time.Now(), 0, 0)
			newMS += msSince(t)
			streams++
		}
		bs, ok := s.(cpu.BatchStream)
		if !ok {
			return fmt.Errorf("%s stream has no NextBatch", name)
		}
		for done := 0; done < ps.drainCalls; done += batchCalls {
			t := time.Now()
			for c := 0; c < batchCalls; c++ {
				ops += bs.NextBatch(buf)
			}
			end := time.Now()
			tr.record("nf.NextBatch", parent, t, end, batchCalls, 0)
			drainNS += float64(end.Sub(t))
		}
	}
	// The mean, not the median: most NFs build a stream in microseconds,
	// and DPI's per-stream Zipf CDF is the cost this metric tracks.
	p.set("nf.new_stream_ms", newMS/float64(streams))
	p.set("nf.stream_ns_per_op", drainNS/float64(ops))
	return nil
}

// captureGroup drains each NF's stream until it holds instr
// instructions and returns the ops each core of the co-location runs.
// Like Figure 5's runGroup, the group's streams share one ICTF pool.
func captureGroup(nfs map[string]nf.NF, tmpl *trace.PoolTemplate, names []string, seed uint64, instr uint64) [][]cpu.Op {
	ops := make([][]cpu.Op, len(names))
	pool := tmpl.Pool()
	buf := make([]cpu.Op, 64)
	for i, name := range names {
		s := nfs[name].NewStream(sim.DeriveRand(seed, "bench", "probe", "core", fmt.Sprint(len(names)), fmt.Sprint(i)),
			pool, mem.Addr(i+1)<<32).(cpu.BatchStream)
		var got uint64
		for got < instr {
			n := s.NextBatch(buf)
			for _, op := range buf[:n] {
				if op.Kind == cpu.Compute {
					got += uint64(max(op.N, 1))
				} else {
					got++
				}
			}
			ops[i] = append(ops[i], buf[:n]...)
		}
	}
	return ops
}

// access is one cache reference replayed outside the core.
type access struct {
	addr   mem.Addr
	domain int
	store  bool
}

// coreTimes accumulates the cpu/cache/bus probe over every group and
// policy.
type coreTimes struct {
	cpuNS, l1NS, l2NS, busNS  float64
	instr, l1Acc, l2Acc, reqs float64
	l1Hits, l2Hits, l2Total   float64
	waits, grants             float64
}

// timedLoop runs body(i) for i in [0, n), timing batches of at least
// batchCalls calls (the last batch absorbs the remainder) under one span
// each, and returns the total nanoseconds.
func timedLoop(tr *tracer, name string, parent, n int, body func(int)) float64 {
	var ns float64
	for lo, hi := 0, 0; lo < n; lo = hi {
		if hi = lo + batchCalls; n-hi < batchCalls {
			hi = n
		}
		t := time.Now()
		for i := lo; i < hi; i++ {
			body(i)
		}
		end := time.Now()
		tr.record(name, parent, t, end, hi-lo, 0)
		ns += float64(end.Sub(t))
	}
	return ns
}

// runCores simulates one captured group under one cache policy and bus
// arbiter exactly as Figure 5 builds it, then replays the same accesses
// into fresh caches and a fresh bus to time those layers alone. The
// private L1 sees each core's accesses in the core's own order, so the
// replay's L1 hits and misses must equal each Core's own statistics.
func runCores(ct *coreTimes, ops [][]cpu.Op, policy cache.Policy, arb func(int) bus.Arbiter, tr *tracer, parent int) error {
	n := len(ops)
	l2cfg := cache.Config{Name: "L2", Size: 4 << 20, LineSize: 64, Ways: 16, Policy: policy, Domains: n}
	if policy == cache.Static && l2cfg.Ways < n {
		l2cfg.Ways = n
	}
	l1cfg := cache.Config{Name: "L1", Size: 32 << 10, LineSize: 64, Ways: 4, Policy: cache.Shared, Domains: 1}
	l2, err := cache.New(l2cfg)
	if err != nil {
		return err
	}
	track := bus.NewTracker(arb(n), n)
	lat := cpu.DefaultLatencies()
	cores := make([]*cpu.Core, n)
	streams := make([]cpu.Stream, n)
	for i := range cores {
		l1, err := cache.New(l1cfg)
		if err != nil {
			return err
		}
		cores[i] = &cpu.Core{Domain: i, L1: l1, L2: l2, Bus: track, Lat: lat}
		streams[i] = &cpu.SliceStream{Ops: ops[i]}
	}
	r := &cpu.Runner{Cores: cores, Streams: streams}
	t := time.Now()
	r.RunInstr(1 << 62) // every stream runs dry
	end := time.Now()
	var instr uint64
	for i, c := range cores {
		instr += c.Instret()
		ct.l1Hits += float64(c.L1.Stats(0).Hits)
		st := l2.Stats(i)
		ct.l2Hits += float64(st.Hits)
		ct.l2Total += float64(st.Accesses())
		bs := track.Stats(i)
		ct.waits += float64(bs.WaitCycles)
		ct.grants += float64(bs.Transactions)
	}
	tr.record("cpu.Runner.RunInstr", parent, t, end, int(instr), 0)
	ct.cpuNS += float64(end.Sub(t))
	ct.instr += float64(instr)

	// L1: per core, in the core's order.
	misses := make([][]access, n)
	for i, c := range cores {
		var refs []access
		for _, op := range ops[i] {
			if op.Kind != cpu.Compute {
				refs = append(refs, access{addr: op.Addr, domain: i, store: op.Kind == cpu.Store})
			}
		}
		l1, err := cache.New(l1cfg)
		if err != nil {
			return err
		}
		misses[i] = make([]access, 0, len(refs))
		ct.l1NS += timedLoop(tr, "cache.L1.Access", parent, len(refs), func(k int) {
			if !l1.Access(refs[k].addr, 0, refs[k].store) {
				misses[i] = append(misses[i], refs[k])
			}
		})
		ct.l1Acc += float64(len(refs))
		if got, want := l1.Stats(0), c.L1.Stats(0); got != want {
			return fmt.Errorf("L1 replay of core %d: %+v, the core saw %+v", i, got, want)
		}
	}
	// L2: the cores' miss streams interleaved round-robin (the shared
	// L2's real interleaving depends on the cycle quanta, so its hit
	// ratio is read from the simulated L2 above).
	var l2refs []access
	for k := 0; ; k++ {
		more := false
		for i := range misses {
			if k < len(misses[i]) {
				l2refs = append(l2refs, misses[i][k])
				more = true
			}
		}
		if !more {
			break
		}
	}
	l2r, err := cache.New(l2cfg)
	if err != nil {
		return err
	}
	dram := make([]int, 0, len(l2refs))
	ct.l2NS += timedLoop(tr, "cache.L2.Access", parent, len(l2refs), func(k int) {
		a := l2refs[k]
		if !l2r.Access(a.addr, a.domain, a.store) {
			dram = append(dram, a.domain)
		}
	})
	ct.l2Acc += float64(len(l2refs))
	// Bus: one grant per L2 miss, each domain asking again 100 cycles
	// after its previous request.
	bt := bus.NewTracker(arb(n), n)
	now := make([]uint64, n)
	ct.busNS += timedLoop(tr, "bus.Tracker.Request", parent, len(dram), func(k int) {
		d := dram[k]
		now[d] = bt.Request(d, now[d]+100, lat.BusXfer)
	})
	ct.reqs += float64(len(dram))
	return nil
}

// probeCores captures the 4-NF and 16-NF groups at 4 MB and runs each
// under Shared+FIFO and Static+Temporal, Figure 5's two configurations.
// It reuses the NFs and ICTF template probeNF built.
func probeCores(p *probeResult, sc scale, seed uint64, tr *tracer, parent int) error {
	var ct coreTimes
	for _, size := range []int{4, 16} {
		rng := sim.DeriveRand(seed, "bench", "probe", "group", fmt.Sprint(size))
		names := make([]string, size)
		for i := range names {
			names[i] = nf.Names[rng.Intn(len(nf.Names))]
		}
		ops := captureGroup(p.nfs, p.tmpl, names, seed, sc.probe.coreInstr)
		if err := runCores(&ct, ops, cache.Shared, func(int) bus.Arbiter { return bus.NewFIFO() }, tr, parent); err != nil {
			return err
		}
		if err := runCores(&ct, ops, cache.Static, func(n int) bus.Arbiter { return bus.NewTemporal(n, 60, 10) }, tr, parent); err != nil {
			return err
		}
	}
	p.set("cpu.ns_per_instr", ct.cpuNS/ct.instr)
	p.set("cpu.self_ns_per_instr", (ct.cpuNS-ct.l1NS-ct.l2NS-ct.busNS)/ct.instr)
	p.set("cpu.instr", ct.instr)
	p.set("cache.l1_ns_per_access", ct.l1NS/ct.l1Acc)
	p.set("cache.l2_ns_per_access", ct.l2NS/ct.l2Acc)
	p.set("cache.l1_hit_ratio", ct.l1Hits/ct.l1Acc)
	p.set("cache.l2_hit_ratio", ct.l2Hits/ct.l2Total)
	p.set("bus.ns_per_request", ct.busNS/ct.reqs)
	p.set("bus.wait_cycles_per_grant", ct.waits/ct.grants)
	return nil
}

// probeHeadline computes the paper's headline point (4 NFs, 4 MB L2),
// to report the model's error against the paper's 0.93% / 1.66%.
func probeHeadline(p *probeResult, sc scale, seed uint64, tr *tracer, parent int) error {
	t := time.Now()
	med, p99, err := (&exp.Runner{Workers: workers}).ThroughputHeadline(sc.fig5)
	tr.record("exp.ThroughputHeadline", parent, t, time.Now(), 0, 0)
	p.set("exp.fig5b_4nf_median_pct", med)
	p.set("exp.fig5b_4nf_p99_pct", p99)
	return err
}

// probeCAIDA drains one CAIDA shard alone, then feeds the same packet
// count through a Monitor model.
func probeCAIDA(p *probeResult, sc scale, seed uint64, tr *tracer, parent int) error {
	const perFlow = 50
	flows := sc.probe.caidaPackets / perFlow // this shard's share of four
	n := flows * perFlow
	st := trace.CAIDAShard(sim.DeriveSeed(seed, "bench", "probe", "caida"), "probe", 0, 4, uint64(4*flows), perFlow)
	drawn := 0
	ns := timedLoop(tr, "trace.CAIDAStream.Next", parent, n, func(int) {
		if _, _, ok := st.Next(); ok {
			drawn++
		}
	})
	if drawn != n {
		p.failed++
		return fmt.Errorf("CAIDA shard yielded %d of %d packets", drawn, n)
	}
	p.set("trace.caida_ns_per_pkt", ns/float64(n))
	model := nf.NewMonitorModel()
	ns = timedLoop(tr, "nf.MonitorModel.Observe", parent, n, func(i int) {
		model.Observe(i%perFlow == 0)
	})
	p.set("nf.monitor_ns_per_pkt", ns/float64(n))
	return nil
}

// probeSNIC drives a factory-built S-NIC through launch, attest and
// teardown cycles, cold and with the churn fast paths, holding up to 8
// functions live. Only cold cycles attest: device.SNIC attests one
// function per call in either mode, and the batched attestation of the
// fast path is timed by probeAttest's attest.batch16_ms.
func probeSNIC(p *probeResult, sc scale, seed uint64, tr *tracer, parent int) error {
	rng := sim.DeriveRand(seed, "bench", "probe", "snic")
	nonce := []byte("bench-nonce")
	for _, mode := range []string{"cold", "fast"} {
		n, err := device.New(device.Spec{Model: "snic", Cores: 12, MemBytes: 64 << 20,
			FrameSize: 128 << 10, Serial: "bench-probe-" + mode})
		if err != nil {
			return err
		}
		sn, ok := n.(*device.SNIC)
		if !ok {
			return errors.New("device.New(snic) did not build an S-NIC")
		}
		if mode == "fast" {
			sn.EnableFastPaths(snic.FastPaths{WarmPool: true, ParallelScrub: true})
		}
		var launch, att, tear []float64
		var hits int
		teardown := func(id device.FuncID) error {
			t := time.Now()
			_, err := sn.TeardownTimed(id)
			tr.record("snic.TeardownTimed", parent, t, time.Now(), 0, 0)
			tear = append(tear, msSince(t))
			return err
		}
		var live []device.FuncID
		for i := 0; i < sc.probe.snicCycles; i++ {
			if len(live) == 8 {
				if err := teardown(live[0]); err != nil {
					return err
				}
				live = live[1:]
			}
			img := []byte(fmt.Sprintf("fn %05d pad %0*d", i, 64+rng.Intn(192), 0))
			t := time.Now()
			id, rep, err := sn.LaunchTimed(device.FuncSpec{Name: fmt.Sprintf("fn-%05d", i), Image: img, MemBytes: 1 << 20})
			tr.record("snic.LaunchTimed", parent, t, time.Now(), 0, 0)
			launch = append(launch, msSince(t))
			if err != nil {
				return err
			}
			if rep.PoolHit {
				hits++
			}
			live = append(live, id)
			if mode == "cold" {
				t = time.Now()
				_, err = n.Attest(id, nonce)
				tr.record("snic.Attest", parent, t, time.Now(), 0, 0)
				att = append(att, msSince(t))
				if err != nil {
					return err
				}
			}
		}
		for _, id := range live {
			if err := teardown(id); err != nil {
				return err
			}
		}
		phase := func(name string, ms []float64) {
			p.set("snic."+name+"_ms."+mode+".p50", sim.Percentile(ms, 0.50))
			p.set("snic."+name+"_ms."+mode+".p99", sim.Percentile(ms, 0.99))
		}
		phase("launch", launch)
		phase("teardown", tear)
		if mode == "cold" {
			phase("attest", att)
		}
		if mode == "fast" {
			p.set("snic.pool_hit_ratio", float64(hits)/float64(len(launch)))
		}
	}
	return nil
}

// probeAttest times the attestation layer directly: vendor and device
// key generation, single quotes, and 16-member Merkle batches.
func probeAttest(p *probeResult, sc scale, seed uint64, tr *tracer, parent int) error {
	ps := sc.probe
	var setup []float64
	var dev *attest.Device
	for i := 0; i < ps.vendorSetups; i++ {
		t := time.Now()
		v, err := attest.NewVendor("bench vendor", nil)
		if err != nil {
			return err
		}
		if dev, err = attest.NewDevice(v, "bench-attest"); err != nil {
			return err
		}
		tr.record("attest.NewVendor+NewDevice", parent, t, time.Now(), 0, 0)
		setup = append(setup, msSince(t))
	}
	p.set("attest.vendor_setup_ms", sim.Median(setup))

	rng := sim.DeriveRand(seed, "bench", "probe", "attest")
	hashes := make([][32]byte, 16)
	for i := range hashes {
		rng.Bytes(hashes[i][:])
	}
	nonce := []byte("bench-nonce")
	var quote, batch []float64
	for i := 0; i < ps.attestQuotes; i++ {
		t := time.Now()
		if _, _, err := dev.Attest(hashes[i%16], nonce); err != nil {
			return err
		}
		tr.record("attest.Device.Attest", parent, t, time.Now(), 0, 0)
		quote = append(quote, msSince(t))
	}
	for i := 0; i < ps.attestBatches; i++ {
		t := time.Now()
		if _, _, _, err := dev.AttestBatch(hashes, nonce); err != nil {
			return err
		}
		tr.record("attest.Device.AttestBatch", parent, t, time.Now(), 16, 0)
		batch = append(batch, msSince(t))
	}
	p.set("attest.quote_ms", sim.Median(quote))
	p.set("attest.batch16_ms", sim.Median(batch))
	return nil
}

// probeFleet replays the fleet writer's sequence against an in-process
// Manager configured like snicd (fleet.* and obs.*), then over HTTP
// against fleet.NewAPI on a loopback listener with a concurrent reader
// (api.*).
func probeFleet(p *probeResult, sc scale, seed uint64, tr *tracer, parent int) error {
	ops, live := fleetOps(seed, sc.probe.fleetOps)
	reg := obs.NewRegistry()
	m, err := newManager(seed, fleet.Config{Obs: reg})
	if err != nil {
		return err
	}
	byKind := map[string][]float64{}
	timeOp := func(kind string, f func() error) {
		t := time.Now()
		err := f()
		tr.record("fleet."+kind, parent, t, time.Now(), 0, 0)
		byKind[kind] = append(byKind[kind], msSince(t))
		if err != nil {
			p.failed++
			fmt.Fprintf(os.Stderr, "bench: fleet probe: %s: %v\n", kind, err)
		}
	}
	for i, op := range ops {
		timeOp(op.Kind, func() error { return op.apply(m) })
		if i%8 == 7 {
			timeOp("oper", func() error { m.Oper(); return nil })
		}
	}
	placed := 0
	for _, t := range m.Oper().Tenants {
		placed += len(t.NFs)
	}
	if placed != live {
		p.failed++
		fmt.Fprintf(os.Stderr, "bench: fleet probe: %d placements, the writer's model %d\n", placed, live)
	}
	for _, k := range []string{"place", "remove", "burst", "churn", "drain", "oper"} {
		p.set("fleet."+k+"_ms", sim.Median(byKind[k]))
	}

	var prom, dump []float64
	var text string
	for i := 0; i < sc.probe.exportReps; i++ {
		t := time.Now()
		reg.PromText()
		tr.record("obs.PromText", parent, t, time.Now(), 0, 0)
		prom = append(prom, msSince(t))
		t = time.Now()
		text = reg.DumpMetrics()
		tr.record("obs.DumpMetrics", parent, t, time.Now(), 0, 0)
		dump = append(dump, msSince(t))
	}
	series, err := obs.ParseDump(strings.NewReader(text))
	if err != nil {
		return err
	}
	p.set("obs.prom_text_ms", sim.Median(prom))
	p.set("obs.dump_ms", sim.Median(dump))
	p.set("obs.series", float64(len(series)))
	p.set("obs.spans", float64(strings.Count(reg.TraceText(), "\n  ")))

	m2, err := newManager(seed, fleet.Config{Obs: obs.NewRegistry()})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: fleet.NewAPI(m2)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	run, err := driveFleet("http://"+ln.Addr().String(), ops, tr, parent)
	srv.Close()
	<-served
	if err != nil {
		return err
	}
	p.failed += fleetOutcome(run, ops, live).Failed
	for _, c := range [][2]string{{"place", "place"}, {"burst", "burst"}, {"churn", "churn"},
		{"read_oper", "read /v1/oper"}, {"read_prom", "read /v1/metrics?format=prom"}} {
		p.set("api."+c[0]+"_ms", sim.Median(run.byClass[c[1]]))
	}
	p.set("api.overhead_ms", p.metrics["api.place_ms"]-p.metrics["fleet.place_ms"])
	p.set("api.read_bytes", sim.Median(run.readBytes))
	return nil
}
