package nf

import (
	"snic/internal/cpu"
	"snic/internal/lpm"
	"snic/internal/mem"
	"snic/internal/pkt"
	"snic/internal/sim"
	"snic/internal/trace"
)

// LPM is the longest-prefix-match router of §5.1: DIR-24-8 lookups over a
// 16,000-route table generated the way NetBricks does.
type LPM struct {
	arena *mem.Arena
	table *lpm.Table

	// Stats.
	Routed  uint64
	NoRoute uint64
	LastHop uint16
}

// NewLPM builds the router and installs routes.
func NewLPM(routes []trace.Route) (*LPM, error) {
	a := &mem.Arena{}
	chargeImage(a)
	t := lpm.New()
	for _, r := range routes {
		if err := t.Insert(r.Prefix, r.Length, r.NextHop); err != nil {
			return nil, err
		}
	}
	a.Alloc(mem.SegHeap, t.MemoryBytes())
	return &LPM{arena: a, table: t}, nil
}

// Name implements NF.
func (l *LPM) Name() string { return "LPM" }

// Arena implements NF.
func (l *LPM) Arena() *mem.Arena { return l.arena }

// FixedFootprint implements NF: Process is a read-only lookup.
func (l *LPM) FixedFootprint() bool { return true }

// Process implements NF: look up the destination; drop when unroutable.
func (l *LPM) Process(p *pkt.Packet) Verdict {
	nh, ok := l.table.Lookup(p.Tuple.DstIP)
	if !ok {
		l.NoRoute++
		return Drop
	}
	l.LastHop = nh
	l.Routed++
	// Rewrite the destination MAC toward the next hop, as a router would.
	p.DstMAC = pkt.MAC{0x02, 0x4E, 0x48, 0, byte(nh >> 8), byte(nh)}
	p.TTL--
	return Modified
}

// NewStream implements NF. The TBL24 is 64 MB but per-packet touches are
// 1–2 lines addressed by destination IP: a big, cold region.
func (l *LPM) NewStream(rng *sim.Rand, pool *trace.Pool, base mem.Addr) cpu.Stream {
	region := l.table.MemoryBytes()
	tblBase := base + mem.Addr(pktSlot*64)
	return newPktStream(rng, pool, base, func(flow, payloadLen int, r *sim.Rand, touches []touch) packetCost {
		dst := pool.Flow(flow).DstIP
		// TBL24 index = top 24 bits; 4 B entries.
		off := (uint64(dst>>8) * lpm.EntryBytes) % region
		c := packetCost{
			parseInstr: 80,
			touches:    append(touches, touch{addr: tblBase + mem.Addr(off&^63)}),
			tailInstr:  60,
		}
		if dst&0xFF < 32 { // a fraction of lookups continue into a TBL8 pool
			c.touches = append(c.touches,
				touch{addr: tblBase + mem.Addr((region/2+uint64(dst&0xFF)*64)%region)})
		}
		return c
	})
}
