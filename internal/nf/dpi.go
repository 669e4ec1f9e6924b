package nf

import (
	"sync"

	"snic/internal/ac"
	"snic/internal/cpu"
	"snic/internal/mem"
	"snic/internal/pkt"
	"snic/internal/sim"
	"snic/internal/trace"
)

// DPI is the pattern-matching NF of §5.1: an Aho–Corasick automaton over
// an IDS-style ruleset (the paper uses 33,471 patterns from six open
// rulesets). A payload that matches any pattern is reported (and, in
// blocking mode, dropped).
type DPI struct {
	arena    *mem.Arena
	auto     *ac.Automaton
	blocking bool

	// Stats.
	Scanned  uint64
	Matches  uint64
	Alerts   []ac.Match
	keepLast int

	// rowsOnce guards rows, the Zipf sampler over graph rows that every
	// stream shares. Its CDF depends only on the automaton's size, so it
	// is built on the first NewStream and each stream draws from it with
	// its own RNG (see NewStream).
	rowsOnce sync.Once
	rows     *sim.Zipf
}

// NewDPI compiles patterns into a DPI engine. blocking selects drop-on-
// match (IPS) vs report-only (IDS).
func NewDPI(patterns [][]byte, blocking bool) (*DPI, error) {
	a := &mem.Arena{}
	chargeImage(a)
	auto, err := ac.Compile(patterns)
	if err != nil {
		return nil, err
	}
	a.Alloc(mem.SegHeap, auto.MemoryBytes())
	return &DPI{arena: a, auto: auto, blocking: blocking, keepLast: 1024}, nil
}

// Name implements NF.
func (d *DPI) Name() string { return "DPI" }

// Arena implements NF.
func (d *DPI) Arena() *mem.Arena { return d.arena }

// FixedFootprint implements NF: the automaton is sized at compile time,
// and alerts go to an ordinary Go slice, never the arena.
func (d *DPI) FixedFootprint() bool { return true }

// Automaton exposes the compiled graph (the accelerator model and the
// ruleset-stealing attack demo both need its size/content).
func (d *DPI) Automaton() *ac.Automaton { return d.auto }

// Process implements NF.
func (d *DPI) Process(p *pkt.Packet) Verdict {
	d.Scanned++
	ms := d.auto.Scan(p.Payload, nil)
	if len(ms) == 0 {
		return Pass
	}
	d.Matches += uint64(len(ms))
	if len(d.Alerts) < d.keepLast {
		d.Alerts = append(d.Alerts, ms...)
	}
	if d.blocking {
		return Drop
	}
	return Pass
}

// NewStream implements NF. Each payload byte walks one graph row; the walk
// is concentrated near the automaton root (shallow states) with a tail of
// deep-state references, which is what makes DPI cache-hungry but not
// uniformly random.
func (d *DPI) NewStream(rng *sim.Rand, pool *trace.Pool, base mem.Addr) cpu.Stream {
	region := d.auto.MemoryBytes()
	if region == 0 {
		region = 64
	}
	graphBase := base + mem.Addr(pktSlot*64)
	// Zipf over graph rows: hot rows = states near the root.
	rows := int(region / 64)
	if rows < 1 {
		rows = 1
	}
	if rows > 1<<16 {
		rows = 1 << 16 // sampling grid; scaled below
	}
	d.rowsOnce.Do(func() { d.rows = sim.NewZipf(nil, rows, 1.2) })
	// Each stream samples rows on its own child of rng. The Fork stays
	// before any other draw on rng, so sharing the CDF moves no draw.
	z := d.rows.WithRand(rng.Fork())
	scale := (region / 64) / uint64(rows)
	if scale == 0 {
		scale = 1
	}
	return newPktStream(rng, pool, base, func(flow, payloadLen int, r *sim.Rand, touches []touch) packetCost {
		// One graph-row reference per byte scanned; cap the emitted loads
		// and fold the rest into compute (SIMD batches in the crate).
		nloads := payloadLen / 2
		if nloads > 24 {
			nloads = 24
		}
		if nloads < 4 {
			nloads = 4
		}
		c := packetCost{parseInstr: 70, touches: touches, tailInstr: uint32(payloadLen) * 3}
		for i := 0; i < nloads; i++ {
			row := uint64(z.Next()) * scale
			c.touches = append(c.touches, touch{addr: graphBase + mem.Addr(row*64)})
		}
		return c
	})
}
