// Package cpu is the programmable-core timing model — the gem5 stand-in.
//
// A Core consumes an abstract instruction stream (compute bursts and
// memory operations) and advances a cycle counter through a two-level
// cache hierarchy and an arbitrated bus to DRAM. The model is deliberately
// simple but captures exactly the effects §5.3 measures:
//
//   - cache partitioning changes the L2 hit rate of a co-located NF
//     (smaller private slice vs. interference-prone shared cache), and
//   - bus arbitration changes the effective DRAM latency (temporal
//     partitioning adds epoch-wait and dead-time stalls).
//
// Out-of-order execution is approximated with a bounded memory-level-
// parallelism (MLP) divisor applied to stall cycles, the standard
// analytic shortcut for OoO cores that always have independent work
// available (true for packet-at-a-time NFs).
//
// Multi-core co-tenancy runs cores in small cycle quanta (Runner), so
// cross-core cache and bus contention interleave in approximately real
// time order.
package cpu

import (
	"fmt"

	"snic/internal/bus"
	"snic/internal/cache"
	"snic/internal/mem"
)

// OpKind distinguishes instruction classes.
type OpKind uint8

// Instruction classes.
const (
	Compute OpKind = iota // N back-to-back ALU instructions
	Load                  // one load from Addr
	Store                 // one store to Addr
)

// Op is one unit of simulated work.
type Op struct {
	Kind OpKind
	Addr mem.Addr // physical address for Load/Store
	N    uint32   // instruction count for Compute (>=1)
}

// Stream produces the ops a core executes. Implementations must be
// deterministic; the NF models generate streams from seeded traces.
type Stream interface {
	Next() (Op, bool)
}

// BatchStream is the optional bulk fast path: NextBatch fills buf with
// the next ops and returns how many were written (0 means exhausted).
// The ops delivered must be exactly the sequence Next would have
// produced — Runner.RunInstr uses batches to amortize the
// per-instruction interface call, and the goldens rely on the two paths
// being indistinguishable.
type BatchStream interface {
	Stream
	NextBatch(buf []Op) int
}

// SliceStream replays a fixed []Op (used by tests and microbenches).
type SliceStream struct {
	Ops []Op
	i   int
}

// Next implements Stream.
func (s *SliceStream) Next() (Op, bool) {
	if s.i >= len(s.Ops) {
		return Op{}, false
	}
	op := s.Ops[s.i]
	s.i++
	return op, true
}

// NextBatch implements BatchStream.
func (s *SliceStream) NextBatch(buf []Op) int {
	n := copy(buf, s.Ops[s.i:])
	s.i += n
	return n
}

// Latencies holds the memory-hierarchy timing parameters in core cycles.
// Defaults (DefaultLatencies) follow the Marvell LiquidIO-class part the
// paper models on gem5: 1.2 GHz cores, L1 hit folded into the pipeline,
// ~12-cycle L2, ~70 ns DRAM plus bus occupancy per 64 B line.
type Latencies struct {
	L1Hit   uint64 // cycles per L1 hit (usually pipelined: 1)
	L2Hit   uint64 // additional cycles for an L1-miss/L2-hit
	DRAM    uint64 // DRAM access latency after bus grant
	BusXfer uint64 // bus occupancy per cache-line transfer
	MLP     uint64 // stall divisor approximating out-of-order overlap
}

// DefaultLatencies returns the configuration used by the Figure 5
// experiments.
func DefaultLatencies() Latencies {
	return Latencies{L1Hit: 1, L2Hit: 12, DRAM: 84, BusXfer: 8, MLP: 4}
}

// batchSize is the prefetch depth for BatchStream sources: large enough
// to amortize the interface call, small enough that a core stopping at a
// quantum horizon never holds more than a packet or two of lookahead.
const batchSize = 64

// Core executes a Stream against the hierarchy.
type Core struct {
	// Domain is the security domain (NF index) for cache and bus
	// accounting.
	Domain int
	L1     *cache.Cache // private; may be nil (no L1)
	L2     *cache.Cache // shared or partitioned; may be nil
	Bus    *bus.Tracker // arbitrated path to DRAM; may be nil (fixed DRAM)
	Lat    Latencies

	cycle   uint64
	instret uint64

	// Latency fields hoisted out of the per-access path by prepare()
	// (zero-value defaults are re-derived lazily, so direct Step callers
	// see the same behaviour as RunInstr).
	l1Lat uint64
	mlp   uint64

	// Prefetch stash for BatchStream sources. Unconsumed ops survive
	// across RunInstr calls (warmup then measurement reuse them), so
	// a Core is tied to one stream: handing it a different stream
	// discards any stashed lookahead from the previous one.
	batch []Op
	bi    int
	bn    int
	bsrc  Stream      // stream the stash was filled from
	bs    BatchStream // non-nil when bsrc supports batching
}

// Cycle returns the core's local cycle counter.
func (c *Core) Cycle() uint64 { return c.cycle }

// Instret returns retired instructions.
func (c *Core) Instret() uint64 { return c.instret }

// IPC returns instructions per cycle since the last ResetCounters.
func (c *Core) IPC() float64 {
	if c.cycle == 0 {
		return 0
	}
	return float64(c.instret) / float64(c.cycle)
}

// ResetCounters zeroes instret/cycle (after warmup) without disturbing
// microarchitectural state.
func (c *Core) ResetCounters() {
	c.cycle = 0
	c.instret = 0
}

// Step executes a single op, advancing the cycle counter.
func (c *Core) Step(op Op) {
	switch op.Kind {
	case Compute:
		n := uint64(op.N)
		if n == 0 {
			n = 1
		}
		c.cycle += n
		c.instret += n
	case Load, Store:
		c.instret++
		c.cycle += c.access(op.Addr, op.Kind == Store)
	default:
		panic(fmt.Sprintf("cpu: unknown op kind %d", op.Kind))
	}
}

// prepare caches the clamped latency parameters so the per-access path
// stops re-reading (and re-clamping) Lat per instruction. RunInstr
// calls it on entry; access self-heals for direct Step callers.
// Callers that mutate Lat between Steps get the refresh on the next
// RunInstr entry.
func (c *Core) prepare() {
	c.l1Lat = c.Lat.L1Hit
	if c.l1Lat == 0 {
		c.l1Lat = 1
	}
	c.mlp = c.Lat.MLP
	if c.mlp == 0 {
		c.mlp = 1
	}
}

// access returns the cycles charged for one memory operation.
func (c *Core) access(pa mem.Addr, write bool) uint64 {
	if c.mlp == 0 {
		c.prepare()
	}
	lat := c.l1Lat
	// The L1 is core-private (never shared across domains), so it is
	// always indexed as domain 0 regardless of which NF owns the core.
	if c.L1 != nil && c.L1.Access(pa, 0, write) {
		return lat
	}
	if c.L2 != nil && c.L2.Access(pa, c.Domain, write) {
		return lat + c.stall(c.Lat.L2Hit)
	}
	// DRAM: acquire the bus, then pay the access latency.
	extra := c.Lat.L2Hit + c.Lat.DRAM
	if c.Bus != nil {
		start := c.Bus.Request(c.Domain, c.cycle, c.Lat.BusXfer)
		extra = (start - c.cycle) + c.Lat.BusXfer + c.Lat.L2Hit + c.Lat.DRAM
	}
	return lat + c.stall(extra)
}

// stall divides a stall through the MLP window.
func (c *Core) stall(cycles uint64) uint64 {
	s := cycles / c.mlp
	if s == 0 && cycles > 0 {
		s = 1
	}
	return s
}

// nextOp yields the next op from s, going through the prefetch stash
// when s supports batching. The delivered sequence is exactly what
// repeated s.Next() calls would return.
func (c *Core) nextOp(s Stream) (Op, bool) {
	if c.bi < c.bn {
		op := c.batch[c.bi]
		c.bi++
		return op, true
	}
	if s != c.bsrc {
		c.bsrc = s
		c.bs, _ = s.(BatchStream)
		c.bi, c.bn = 0, 0
	}
	if c.bs == nil {
		return s.Next()
	}
	if c.batch == nil {
		c.batch = make([]Op, batchSize)
	}
	c.bn = c.bs.NextBatch(c.batch)
	if c.bn == 0 {
		return Op{}, false
	}
	c.bi = 1
	return c.batch[0], true
}

// Runner interleaves multiple cores in cycle quanta so shared-resource
// contention happens in (approximate) time order.
type Runner struct {
	Cores   []*Core
	Streams []Stream
}

// quantum is the scheduling quantum in cycles: no live core runs more
// than this far past the slowest one.
const quantum = 200

// RunInstr advances every core until each has retired at least perCore
// instructions (or its stream is exhausted). Cores that finish early stop;
// the rest continue with contention from the still-running cores only,
// mirroring how gem5 region-of-interest runs behave.
func (r *Runner) RunInstr(perCore uint64) {
	if len(r.Cores) != len(r.Streams) {
		panic("cpu: cores/streams length mismatch")
	}
	targets := make([]uint64, len(r.Cores))
	done := make([]bool, len(r.Cores))
	for i, c := range r.Cores {
		targets[i] = c.Instret() + perCore
		c.prepare()
	}
	for {
		allDone := true
		// The horizon advances to the minimum live core cycle + quantum,
		// so no core races far ahead of the others.
		var minCycle uint64
		first := true
		for i, c := range r.Cores {
			if !done[i] {
				allDone = false
				if first || c.cycle < minCycle {
					minCycle = c.cycle
					first = false
				}
			}
		}
		if allDone {
			return
		}
		horizon := minCycle + quantum
		for i, c := range r.Cores {
			if done[i] {
				continue
			}
			for c.cycle < horizon && c.instret < targets[i] {
				op, ok := c.nextOp(r.Streams[i])
				if !ok {
					done[i] = true
					break
				}
				c.Step(op)
			}
			if c.instret >= targets[i] {
				done[i] = true
			}
		}
	}
}
