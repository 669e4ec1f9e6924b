package nf

import (
	"bytes"
	"sort"

	"snic/internal/cpu"
	"snic/internal/hashmap"
	"snic/internal/mem"
	"snic/internal/pkt"
	"snic/internal/sim"
	"snic/internal/trace"
)

// Monitor is the flow monitor of §5.1: a hash map from 5-tuple to packet
// count. Its memory grows with the number of distinct flows observed,
// which is why it dominates Table 6 (361 MB over a five-minute CAIDA
// window) and why its time series (Figure 7) shows resize spikes.
type Monitor struct {
	arena  *mem.Arena
	counts *hashmap.Map

	// Stats.
	Packets uint64
}

// NewMonitor builds an empty monitor. If samples is non-nil it receives
// the live heap size after every allocation change (Figure 7's series).
func NewMonitor(samples func(live uint64)) *Monitor {
	a := &mem.Arena{Samples: samples}
	chargeImage(a)
	// Model the DPDK hugepage staging the paper observes at startup: a
	// temporary normal-memory block is allocated, copied into hugepages,
	// and freed — the first spike in Figure 7.
	const staging = 24 << 20
	a.Alloc(mem.SegHeap, staging)
	a.Free(mem.SegHeap, staging)
	return &Monitor{arena: a, counts: hashmap.New(a, 1024)}
}

// Name implements NF.
func (m *Monitor) Name() string { return "Mon" }

// Arena implements NF.
func (m *Monitor) Arena() *mem.Arena { return m.arena }

// FixedFootprint implements NF: each new flow adds a counter.
func (m *Monitor) FixedFootprint() bool { return false }

// Process implements NF.
func (m *Monitor) Process(p *pkt.Packet) Verdict {
	m.Packets++
	m.counts.Add(hashmap.Key(p.Tuple.Key()), 1)
	return Pass
}

// Count returns the packet count recorded for a tuple.
func (m *Monitor) Count(t pkt.FiveTuple) uint64 {
	v, _ := m.counts.Get(hashmap.Key(t.Key()))
	return v
}

// Flows returns the number of distinct flows observed.
func (m *Monitor) Flows() int { return m.counts.Len() }

// HeavyHitter is one entry of a TopK report.
type HeavyHitter struct {
	Key   [16]byte
	Count uint64
}

// TopK returns the k heaviest flows (ties broken by key bytes for
// determinism) — the UnivMon-style query a monitor exists to answer.
func (m *Monitor) TopK(k int) []HeavyHitter {
	if k <= 0 {
		return nil
	}
	var all []HeavyHitter
	m.counts.Range(func(key hashmap.Key, v uint64) bool {
		all = append(all, HeavyHitter{Key: key, Count: v})
		return true
	})
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return bytes.Compare(all[i].Key[:], all[j].Key[:]) < 0
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// NewStream implements NF: a counter upsert per packet over a large,
// flow-indexed region.
func (m *Monitor) NewStream(rng *sim.Rand, pool *trace.Pool, base mem.Addr) cpu.Stream {
	region := m.counts.FootprintBytes()
	if region < 1<<20 {
		region = 1 << 20
	}
	tblBase := base + mem.Addr(pktSlot*64)
	return newPktStream(rng, pool, base, func(flow, payloadLen int, r *sim.Rand, touches []touch) packetCost {
		off := flowOffset(flow, region)
		return packetCost{
			parseInstr: 70,
			touches: append(touches,
				touch{addr: tblBase + mem.Addr(off)},
				touch{addr: tblBase + mem.Addr(off), store: true},
			),
			tailInstr: 50,
		}
	})
}
