package cpu

import (
	"testing"

	"snic/internal/bus"
	"snic/internal/cache"
	"snic/internal/mem"
	"snic/internal/sim"
)

func newL2(t *testing.T, policy cache.Policy, domains int, size uint64) *cache.Cache {
	t.Helper()
	c, err := cache.New(cache.Config{
		Name: "L2", Size: size, LineSize: 64, Ways: 16,
		Policy: policy, Domains: domains,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newL1(t *testing.T) *cache.Cache {
	t.Helper()
	c, err := cache.New(cache.Config{
		Name: "L1", Size: 32 << 10, LineSize: 64, Ways: 4, Policy: cache.Shared, Domains: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// solo returns a one-core Runner executing s on c.
func solo(c *Core, s Stream) *Runner {
	return &Runner{Cores: []*Core{c}, Streams: []Stream{s}}
}

func TestComputeIPCIsOne(t *testing.T) {
	c := &Core{Lat: DefaultLatencies()}
	c.Step(Op{Kind: Compute, N: 1000})
	if c.IPC() != 1.0 {
		t.Fatalf("compute IPC = %v", c.IPC())
	}
}

func TestComputeZeroNCountsOne(t *testing.T) {
	c := &Core{Lat: DefaultLatencies()}
	c.Step(Op{Kind: Compute, N: 0})
	if c.Instret() != 1 || c.Cycle() != 1 {
		t.Fatalf("instret=%d cycle=%d", c.Instret(), c.Cycle())
	}
}

func TestL1HitFast(t *testing.T) {
	c := &Core{L1: newL1(t), Lat: DefaultLatencies()}
	c.Step(Op{Kind: Load, Addr: 0x1000})
	warmCycles := c.Cycle()
	c.Step(Op{Kind: Load, Addr: 0x1000})
	if c.Cycle()-warmCycles != 1 {
		t.Fatalf("L1 hit cost %d cycles", c.Cycle()-warmCycles)
	}
}

func TestMissCostsMoreThanHit(t *testing.T) {
	lat := DefaultLatencies()
	c := &Core{L1: newL1(t), L2: newL2(t, cache.Shared, 1, 1<<20), Lat: lat}
	c.Step(Op{Kind: Load, Addr: 0x4000}) // cold: L1+L2 miss -> DRAM
	cold := c.Cycle()
	c.ResetCounters()
	c.Step(Op{Kind: Load, Addr: 0x4000}) // L1 hit
	hit := c.Cycle()
	if cold <= hit {
		t.Fatalf("cold %d <= hit %d", cold, hit)
	}
}

func TestBusStallCharged(t *testing.T) {
	lat := DefaultLatencies()
	// Two cores, FIFO bus: core B's DRAM access behind core A's waits.
	tr := bus.NewTracker(bus.NewFIFO(), 2)
	mk := func(domain int) *Core {
		return &Core{Domain: domain, Bus: tr, Lat: lat}
	}
	a, b := mk(0), mk(1)
	a.Step(Op{Kind: Load, Addr: 0})
	b.Step(Op{Kind: Load, Addr: 1 << 20})
	if tr.Stats(1).WaitCycles == 0 {
		t.Fatal("no bus wait recorded for the second requester")
	}
}

func TestMLPReducesStalls(t *testing.T) {
	mkCore := func(mlp uint64) *Core {
		lat := DefaultLatencies()
		lat.MLP = mlp
		return &Core{Lat: lat}
	}
	slow := mkCore(1)
	fast := mkCore(4)
	for i := 0; i < 100; i++ {
		slow.Step(Op{Kind: Load, Addr: mem.Addr(i * 64)})
		fast.Step(Op{Kind: Load, Addr: mem.Addr(i * 64)})
	}
	if fast.Cycle() >= slow.Cycle() {
		t.Fatalf("MLP=4 (%d cycles) not faster than MLP=1 (%d)", fast.Cycle(), slow.Cycle())
	}
}

func TestRunStopsAtMaxInstr(t *testing.T) {
	ops := make([]Op, 100)
	for i := range ops {
		ops[i] = Op{Kind: Compute, N: 1}
	}
	c := &Core{Lat: DefaultLatencies()}
	solo(c, &SliceStream{Ops: ops}).RunInstr(40)
	if c.Instret() != 40 {
		t.Fatalf("ran %d instructions", c.Instret())
	}
}

func TestRunStopsAtStreamEnd(t *testing.T) {
	c := &Core{Lat: DefaultLatencies()}
	solo(c, &SliceStream{Ops: []Op{{Kind: Compute, N: 5}}}).RunInstr(1000)
	if c.Instret() != 5 {
		t.Fatalf("ran %d instructions", c.Instret())
	}
}

func TestResetCountersKeepsCacheState(t *testing.T) {
	c := &Core{L1: newL1(t), Lat: DefaultLatencies()}
	c.Step(Op{Kind: Load, Addr: 0x40})
	c.ResetCounters()
	if c.Cycle() != 0 || c.Instret() != 0 {
		t.Fatal("counters not reset")
	}
	c.Step(Op{Kind: Load, Addr: 0x40})
	if c.Cycle() != 1 {
		t.Fatal("warm line lost across ResetCounters")
	}
}

// randStream generates a Zipf-distributed pointer-chase over a working set.
type randStream struct {
	rng  *sim.Rand
	zipf *sim.Zipf
	base mem.Addr
}

func (r *randStream) Next() (Op, bool) {
	if r.rng.Intn(4) == 0 {
		return Op{Kind: Load, Addr: r.base + mem.Addr(r.zipf.Next()*64)}, true
	}
	return Op{Kind: Compute, N: 8}, true
}

func TestRunnerInterleavesFairly(t *testing.T) {
	l2 := newL2(t, cache.Shared, 2, 1<<20)
	tr := bus.NewTracker(bus.NewFIFO(), 2)
	lat := DefaultLatencies()
	rng := sim.NewRand(1)
	mk := func(d int) (*Core, Stream) {
		c := &Core{Domain: d, L1: newL1(t), L2: l2, Bus: tr, Lat: lat}
		s := &randStream{rng: rng.Fork(), zipf: sim.NewZipf(rng.Fork(), 4096, 1.1),
			base: mem.Addr(d) << 30}
		return c, s
	}
	c0, s0 := mk(0)
	c1, s1 := mk(1)
	r := &Runner{Cores: []*Core{c0, c1}, Streams: []Stream{s0, s1}}
	r.RunInstr(50000)
	if c0.Instret() < 50000 || c1.Instret() < 50000 {
		t.Fatalf("instret: %d, %d", c0.Instret(), c1.Instret())
	}
	// Both cores ran through comparable time: neither raced ahead by more
	// than ~the cycle cost of its own final quantum.
	d := int64(c0.Cycle()) - int64(c1.Cycle())
	if d < 0 {
		d = -d
	}
	if uint64(d) > c0.Cycle()/2+1000 {
		t.Fatalf("cores diverged: %d vs %d cycles", c0.Cycle(), c1.Cycle())
	}
}

// The effect Figure 5 measures: under a tiny shared L2, partitioning costs
// IPC; under a big L2, the cost shrinks. Here we check the directional
// claim that a cache-hungry stream's IPC drops when its partition halves.
func TestPartitioningCostsIPCWhenCacheTight(t *testing.T) {
	run := func(policy cache.Policy) float64 {
		l2 := newL2(t, policy, 2, 128<<10) // small L2
		lat := DefaultLatencies()
		rng := sim.NewRand(42)
		mk := func(d int, lines int) (*Core, Stream) {
			c := &Core{Domain: d, L2: l2, Lat: lat}
			s := &randStream{rng: rng.Fork(), zipf: sim.NewZipf(rng.Fork(), lines, 0.2),
				base: mem.Addr(d) << 30}
			return c, s
		}
		// Domain 0 needs ~96 KB (fits the shared 128 KB, not a 64 KB
		// half); domain 1 is nearly idle, so under sharing domain 0
		// borrows its space — the borrowing a hard partition forbids.
		c0, s0 := mk(0, 1536)
		c1, s1 := mk(1, 16)
		r := &Runner{Cores: []*Core{c0, c1}, Streams: []Stream{s0, s1}}
		r.RunInstr(20000) // warmup
		c0.ResetCounters()
		c1.ResetCounters()
		r.RunInstr(100000)
		return c0.IPC()
	}
	shared := run(cache.Shared)
	static := run(cache.Static)
	if static >= shared {
		t.Fatalf("static IPC %v >= shared IPC %v under cache pressure", static, shared)
	}
}

func TestRunnerMismatchedLengthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	(&Runner{Cores: []*Core{{}}, Streams: nil}).RunInstr(1)
}

func TestRunnerHandlesExhaustedStreams(t *testing.T) {
	// One stream ends early; the other must still reach its target.
	short := &SliceStream{Ops: []Op{{Kind: Compute, N: 10}}}
	long := &SliceStream{Ops: make([]Op, 1000)}
	for i := range long.Ops {
		long.Ops[i] = Op{Kind: Compute, N: 1}
	}
	a := &Core{Lat: DefaultLatencies()}
	b := &Core{Lat: DefaultLatencies()}
	r := &Runner{Cores: []*Core{a, b}, Streams: []Stream{short, long}}
	r.RunInstr(500)
	if a.Instret() != 10 {
		t.Fatalf("short stream ran %d", a.Instret())
	}
	if b.Instret() < 500 {
		t.Fatalf("long stream ran %d", b.Instret())
	}
}

// nextOnly hides a stream's NextBatch so a Core is forced down the
// unbatched path, for batched-vs-unbatched equivalence tests.
type nextOnly struct{ s Stream }

func (n nextOnly) Next() (Op, bool) { return n.s.Next() }

// mixedOps builds a deterministic op sequence touching loads, stores,
// and computes over a working set big enough to miss in L1.
func mixedOps(n int) []Op {
	rng := sim.DeriveRand(0xBA7C, "cpu-batch-equiv")
	ops := make([]Op, n)
	for i := range ops {
		switch rng.Intn(4) {
		case 0:
			ops[i] = Op{Kind: Compute, N: uint32(1 + rng.Intn(8))}
		case 1:
			ops[i] = Op{Kind: Store, Addr: mem.Addr(rng.Uint64() % (256 << 10))}
		default:
			ops[i] = Op{Kind: Load, Addr: mem.Addr(rng.Uint64() % (256 << 10))}
		}
	}
	return ops
}

// TestNextBatchMatchesNext pins the BatchStream contract on SliceStream:
// batched delivery (at any buffer size) is the exact Next sequence.
func TestNextBatchMatchesNext(t *testing.T) {
	ops := mixedOps(500)
	for _, bufSize := range []int{1, 3, 64, 1000} {
		ref := &SliceStream{Ops: ops}
		bat := &SliceStream{Ops: ops}
		buf := make([]Op, bufSize)
		var got []Op
		for {
			n := bat.NextBatch(buf)
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		for i := 0; ; i++ {
			op, ok := ref.Next()
			if !ok {
				if i != len(got) {
					t.Fatalf("buf %d: batch delivered %d ops, Next delivered %d", bufSize, len(got), i)
				}
				break
			}
			if i >= len(got) || got[i] != op {
				t.Fatalf("buf %d: op %d diverges", bufSize, i)
			}
		}
	}
}

// TestRunBatchedMatchesUnbatched runs the identical stream through a
// batching Core and a Core whose stream hides NextBatch, each alone on a
// Runner, across multiple RunInstr calls (so the prefetch stash must
// survive a warmup/measure split), asserting identical
// retired-instruction and cycle counts.
func TestRunBatchedMatchesUnbatched(t *testing.T) {
	ops := mixedOps(4000)
	mk := func() *Core {
		return &Core{L1: newL1(t), L2: newL2(t, cache.Static, 2, 256<<10), Lat: DefaultLatencies()}
	}
	batched, plain := mk(), mk()
	bs, ps := &SliceStream{Ops: ops}, nextOnly{&SliceStream{Ops: ops}}
	rb, rp := solo(batched, bs), solo(plain, ps)
	// Split the run at an instruction count that lands mid-batch.
	for _, chunk := range []uint64{37, 963, 100000} {
		rb.RunInstr(chunk)
		rp.RunInstr(chunk)
		if batched.Instret() != plain.Instret() || batched.Cycle() != plain.Cycle() {
			t.Fatalf("after chunk %d: batched (instret %d, cycle %d) != plain (instret %d, cycle %d)",
				chunk, batched.Instret(), batched.Cycle(), plain.Instret(), plain.Cycle())
		}
	}
	if bs.i != len(ops) {
		t.Fatalf("consumed %d of %d ops", bs.i, len(ops))
	}
}

// TestRunnerBatchedMatchesUnbatched repeats the equivalence under the
// Runner's quantum-horizon interleaving with a shared L2 and bus, where
// any lookahead-induced reordering across cores would shift cycle
// counts.
func TestRunnerBatchedMatchesUnbatched(t *testing.T) {
	opsA, opsB := mixedOps(3000), mixedOps(3000)
	run := func(batch bool) (uint64, uint64, uint64, uint64) {
		l2 := newL2(t, cache.Shared, 2, 128<<10)
		tr := bus.NewTracker(bus.NewFIFO(), 2)
		lat := DefaultLatencies()
		a := &Core{Domain: 0, L1: newL1(t), L2: l2, Bus: tr, Lat: lat}
		b := &Core{Domain: 1, L1: newL1(t), L2: l2, Bus: tr, Lat: lat}
		var sa, sb Stream = &SliceStream{Ops: opsA}, &SliceStream{Ops: opsB}
		if !batch {
			sa, sb = nextOnly{sa}, nextOnly{sb}
		}
		r := &Runner{Cores: []*Core{a, b}, Streams: []Stream{sa, sb}}
		r.RunInstr(1000) // warmup
		a.ResetCounters()
		b.ResetCounters()
		r.RunInstr(1500)
		return a.Instret(), a.Cycle(), b.Instret(), b.Cycle()
	}
	ai, ac, bi, bc := run(true)
	pai, pac, pbi, pbc := run(false)
	if ai != pai || ac != pac || bi != pbi || bc != pbc {
		t.Fatalf("batched (%d,%d,%d,%d) != unbatched (%d,%d,%d,%d)",
			ai, ac, bi, bc, pai, pac, pbi, pbc)
	}
}

// TestStepDoesNotAllocate pins the steady-state Step path (L1+L2+bus
// attached) at zero allocations per instruction.
func TestStepDoesNotAllocate(t *testing.T) {
	c := &Core{
		L1: newL1(t), L2: newL2(t, cache.Static, 2, 128<<10),
		Bus: bus.NewTracker(bus.NewFIFO(), 2), Lat: DefaultLatencies(),
	}
	ops := mixedOps(256)
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		c.Step(ops[i%len(ops)])
		i++
	}); avg != 0 {
		t.Errorf("Step allocates %.1f times per call, want 0", avg)
	}
}

// TestRunDoesNotAllocate pins the batched RunInstr path at zero
// per-instruction allocations: the prefetch buffer is allocated once on
// first use and reused afterwards, so a long call allocates no more than
// a short one (the Runner's per-call bookkeeping).
func TestRunDoesNotAllocate(t *testing.T) {
	c := &Core{L1: newL1(t), L2: newL2(t, cache.Static, 2, 128<<10), Lat: DefaultLatencies()}
	s := &SliceStream{Ops: mixedOps(4096)}
	r := solo(c, s)
	r.RunInstr(64) // warm the stash buffer
	allocs := func(n uint64) float64 {
		return testing.AllocsPerRun(100, func() {
			s.i = 0
			r.RunInstr(n)
		})
	}
	if short, long := allocs(32), allocs(2048); long != short {
		t.Errorf("RunInstr allocates %.1f times for 2048 instructions, %.1f for 32", long, short)
	}
}

func TestIPCZeroBeforeRun(t *testing.T) {
	c := &Core{Lat: DefaultLatencies()}
	if c.IPC() != 0 {
		t.Fatal("IPC nonzero before any work")
	}
}

func TestUnknownOpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown op accepted")
		}
	}()
	(&Core{Lat: DefaultLatencies()}).Step(Op{Kind: 99})
}
