package nf

import (
	"snic/internal/cpu"
	"snic/internal/hashmap"
	"snic/internal/maglev"
	"snic/internal/mem"
	"snic/internal/pkt"
	"snic/internal/sim"
	"snic/internal/trace"
)

// LB is the Maglev software load balancer of §5.1: flows are spread over
// backends with consistent hashing, with a connection table pinning
// in-flight flows to their backend across table rebuilds.
type LB struct {
	arena    *mem.Arena
	table    *maglev.Table
	conns    *hashmap.Map
	backends []uint32 // backend VIP destinations

	// Stats.
	Balanced uint64
}

// NewLB builds a load balancer over the named backends.
func NewLB(backendNames []string) (*LB, error) {
	a := &mem.Arena{}
	chargeImage(a)
	t, err := maglev.New(backendNames, maglev.DefaultTableSize)
	if err != nil {
		return nil, err
	}
	a.Alloc(mem.SegHeap, t.MemoryBytes())
	ips := make([]uint32, len(t.Backends()))
	for i := range ips {
		ips[i] = 0x0A400000 | uint32(i) // 10.64.x.x service pool
	}
	return &LB{arena: a, table: t, conns: hashmap.New(a, 1024), backends: ips}, nil
}

// Name implements NF.
func (l *LB) Name() string { return "LB" }

// Arena implements NF.
func (l *LB) Arena() *mem.Arena { return l.arena }

// FixedFootprint implements NF: each new flow is pinned in the
// connection table.
func (l *LB) FixedFootprint() bool { return false }

func tupleHash(t pkt.FiveTuple) uint64 {
	k := t.Key()
	h := uint64(14695981039346656037)
	for _, b := range k {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// Process implements NF: rewrite the destination to the selected backend.
func (l *LB) Process(p *pkt.Packet) Verdict {
	key := hashmap.Key(p.Tuple.Key())
	idx, ok := l.conns.Get(key)
	if !ok {
		idx = uint64(l.table.LookupIndex(tupleHash(p.Tuple)))
		l.conns.Put(key, idx)
	}
	p.Tuple.DstIP = l.backends[idx]
	l.Balanced++
	return Modified
}

// NewStream implements NF: one Maglev slot load plus connection-table
// probe; the Maglev table is small and hot, which is why LB shows the
// least cache sensitivity in Figure 5.
func (l *LB) NewStream(rng *sim.Rand, pool *trace.Pool, base mem.Addr) cpu.Stream {
	tblRegion := l.table.MemoryBytes()
	connRegion := l.conns.FootprintBytes()
	if connRegion < 1<<20 {
		connRegion = 1 << 20
	}
	tblBase := base + mem.Addr(pktSlot*64)
	connBase := tblBase + mem.Addr(tblRegion)
	seen := make(map[int]bool)
	return newPktStream(rng, pool, base, func(flow, payloadLen int, r *sim.Rand, touches []touch) packetCost {
		slot := (tupleHash(pool.Flow(flow)) % (tblRegion / 64)) * 64
		off := flowOffset(flow, connRegion)
		c := packetCost{
			parseInstr: 80,
			touches: append(touches,
				touch{addr: connBase + mem.Addr(off)},
				touch{addr: tblBase + mem.Addr(slot)},
			),
			tailInstr: 60,
		}
		if !seen[flow] {
			seen[flow] = true
			c.touches = append(c.touches, touch{addr: connBase + mem.Addr(off), store: true})
		}
		return c
	})
}
