package nf

import (
	"snic/internal/cpu"
	"snic/internal/hashmap"
	"snic/internal/mem"
	"snic/internal/pkt"
	"snic/internal/sim"
	"snic/internal/trace"
)

// NAT is the MazuNAT-derived network address translator of §5.1: outbound
// flows are rewritten to (externalIP, allocated port); the reverse mapping
// rewrites inbound traffic back. Per the paper, "the cache only records
// the translation results of the first 65,535 flows that can be
// successfully assigned a distinct port number."
type NAT struct {
	arena    *mem.Arena
	external uint32
	out      *hashmap.Map // inside 5-tuple key -> port
	back     *hashmap.Map // allocated port -> packed inside (ip, port)
	nextPort uint32
	maxFlows int
}

// NATMaxFlows is the port-pool bound from the paper.
const NATMaxFlows = 65535

// NewNAT builds a NAT exposing externalIP.
func NewNAT(externalIP uint32) *NAT {
	a := &mem.Arena{}
	chargeImage(a)
	return &NAT{
		arena:    a,
		external: externalIP,
		out:      hashmap.New(a, 1024),
		back:     hashmap.New(a, 1024),
		nextPort: 1024,
		maxFlows: NATMaxFlows,
	}
}

// Arena implements NF.
func (n *NAT) Arena() *mem.Arena { return n.arena }

// FixedFootprint implements NF: each new flow adds a translation.
func (n *NAT) FixedFootprint() bool { return false }

// Process implements NF: outbound packets (anything not addressed to the
// external IP) get source-rewritten; packets addressed to the external IP
// are mapped back to the inside host.
func (n *NAT) Process(p *pkt.Packet) Verdict {
	if p.Tuple.DstIP == n.external {
		// Inbound: dst port carries the allocated external port.
		var k hashmap.Key
		k[0] = byte(p.Tuple.DstPort >> 8)
		k[1] = byte(p.Tuple.DstPort)
		k[2] = 0xB0 // reverse-table tag
		packed, ok := n.back.Get(k)
		if !ok {
			return Drop // no mapping: unsolicited inbound
		}
		p.Tuple.DstIP = uint32(packed >> 16)
		p.Tuple.DstPort = uint16(packed)
		return Modified
	}
	key := hashmap.Key(p.Tuple.Key())
	port, ok := n.out.Get(key)
	if !ok {
		if n.out.Len() >= n.maxFlows || n.nextPort > 65535 {
			return Drop
		}
		port = uint64(n.nextPort)
		n.nextPort++
		var rk hashmap.Key
		rk[0] = byte(port >> 8)
		rk[1] = byte(port)
		rk[2] = 0xB0
		n.back.Put(rk, uint64(p.Tuple.SrcIP)<<16|uint64(p.Tuple.SrcPort))
		n.out.Put(key, port)
	}
	p.Tuple.SrcIP = n.external
	p.Tuple.SrcPort = uint16(port)
	return Modified
}

// NewStream implements NF: two map probes (forward + reverse tables) and a
// header rewrite per packet, with insert traffic for new flows.
func (n *NAT) NewStream(rng *sim.Rand, pool *trace.Pool, base mem.Addr) cpu.Stream {
	region := n.out.FootprintBytes() + n.back.FootprintBytes()
	if region < 1<<20 {
		region = 1 << 20
	}
	tblBase := base + mem.Addr(pktSlot*64)
	seen := make(map[int]bool)
	return newPktStream(rng, pool, base, func(flow, payloadLen int, r *sim.Rand, touches []touch) packetCost {
		off := flowOffset(flow, region/2)
		roff := flowOffset(flow+1<<20, region/2)
		c := packetCost{
			parseInstr: 90,
			touches: append(touches,
				touch{addr: tblBase + mem.Addr(off)},
				touch{addr: tblBase + mem.Addr(region/2+roff)},
			),
			tailInstr: 110, // checksum-incremental header rewrite
		}
		if !seen[flow] && len(seen) < n.maxFlows {
			seen[flow] = true
			c.touches = append(c.touches,
				touch{addr: tblBase + mem.Addr(off), store: true},
				touch{addr: tblBase + mem.Addr(region/2+roff), store: true})
			c.tailInstr += 80
		}
		return c
	})
}
