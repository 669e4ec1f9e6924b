// Package trace synthesizes the workloads the paper evaluates with:
//
//   - an ICTF-like pool: 100,000 flows sampled with Zipf skewness 1.1
//     (§5.3 — the paper itself reduces the 2010 iCTF trace to exactly this
//     distribution), and
//   - a CAIDA-like stream: tens of millions of flows with heavy-tailed
//     packet counts arriving over time, which drives the Monitor NF's
//     memory growth (Table 6, Figure 7).
//
// The real traces are access-restricted; per DESIGN.md's substitution
// table the experiments only depend on flow counts, popularity skew, and
// packet sizes, all of which these generators reproduce deterministically
// from a seed.
package trace

import (
	"snic/internal/pkt"
	"snic/internal/sim"
)

// Pool is a fixed set of flows with a popularity distribution.
type Pool struct {
	flows []pkt.FiveTuple
	zipf  *sim.Zipf
	rng   *sim.Rand
	buf   []byte // NextPacketBuf's reused payload buffer
}

// PoolTemplate is the expensive, immutable part of a Pool — the flow set
// and the Zipf CDF — captured together with the seeds of the sampler and
// payload streams. Building one is the expensive step; Pool() then
// stamps out independent, identically-seeded Pools in O(1):
// the flows slice and CDF are shared read-only while each Pool gets its
// own mutable RNGs. The experiment harness memoizes templates per
// (seed, size) so repeated sweep points stop rebuilding identical pools.
type PoolTemplate struct {
	flows    []pkt.FiveTuple
	zipf     *sim.Zipf // template sampler; every Pool re-arms it WithRand
	zipfSeed uint64
	rngSeed  uint64
}

// NewPoolTemplate draws n distinct random flows with Zipf(skew)
// popularity: the flow loop consumes rng first, then the sampler and
// payload seeds are forked from it, in that order.
func NewPoolTemplate(rng *sim.Rand, n int, skew float64) *PoolTemplate {
	flows := make([]pkt.FiveTuple, n)
	seen := make(map[[16]byte]bool, n)
	for i := range flows {
		for {
			ft := randomTuple(rng)
			k := ft.Key()
			if !seen[k] {
				seen[k] = true
				flows[i] = ft
				break
			}
		}
	}
	zipfSeed := rng.ForkSeed()
	rngSeed := rng.ForkSeed()
	return &PoolTemplate{
		flows:    flows,
		zipf:     sim.NewZipf(sim.NewRand(zipfSeed), n, skew),
		zipfSeed: zipfSeed,
		rngSeed:  rngSeed,
	}
}

// Pool instantiates a fresh Pool from the template. Every call returns a
// Pool whose sampling and payload streams start from the same seeds, so
// all instances are byte-identical to each other.
func (t *PoolTemplate) Pool() *Pool {
	return t.SeededPool(t.zipfSeed, t.rngSeed)
}

// SeededPool instantiates a Pool over the template's flow set and CDF
// whose sampler and payload streams start from the given seeds instead
// of the template's own, so several independent consumers can share one
// template without sharing draws.
func (t *PoolTemplate) SeededPool(zipfSeed, rngSeed uint64) *Pool {
	return &Pool{
		flows: t.flows,
		zipf:  t.zipf.WithRand(sim.NewRand(zipfSeed)),
		rng:   sim.NewRand(rngSeed),
	}
}

// NewICTF builds the paper's ICTF-like pool: 100 k flows, skew 1.1.
// Pass a smaller n to scale the experiment down (tests do).
func NewICTF(rng *sim.Rand, n int) *Pool {
	return NewICTFTemplate(rng, n).Pool()
}

// NewICTFTemplate is the template form of NewICTF, for callers that
// instantiate the same pool many times.
func NewICTFTemplate(rng *sim.Rand, n int) *PoolTemplate {
	if n <= 0 {
		n = 100000
	}
	return NewPoolTemplate(rng, n, 1.1)
}

func randomTuple(rng *sim.Rand) pkt.FiveTuple {
	proto := pkt.ProtoTCP
	if rng.Intn(5) == 0 {
		proto = pkt.ProtoUDP
	}
	return pkt.FiveTuple{
		SrcIP:   rng.Uint32(),
		DstIP:   rng.Uint32(),
		SrcPort: 1024 + uint16(rng.Intn(64000)),
		DstPort: wellKnownPort(rng),
		Proto:   proto,
	}
}

func wellKnownPort(rng *sim.Rand) uint16 {
	ports := []uint16{80, 443, 53, 22, 25, 8080, 3306, 6379}
	if rng.Intn(4) == 0 {
		return 1024 + uint16(rng.Intn(64000))
	}
	return ports[rng.Intn(len(ports))]
}

// Flow returns flow i's tuple.
func (p *Pool) Flow(i int) pkt.FiveTuple { return p.flows[i] }

// NextFlow samples a flow index by popularity.
func (p *Pool) NextFlow() int { return p.zipf.Next() }

// NextPacket samples a flow and builds a packet of the given payload size
// (payload content is pseudorandom but deterministic).
func (p *Pool) NextPacket(payloadLen int) (int, pkt.Packet) {
	i := p.zipf.Next()
	payload := make([]byte, payloadLen)
	p.rng.Bytes(payload)
	return i, pkt.Packet{
		SrcMAC:  pkt.MAC{0x02, 0, 0, 0, byte(i >> 8), byte(i)},
		DstMAC:  pkt.MAC{0x02, 0, 0, 0, 0xFF, 0xFE},
		Tuple:   p.flows[i],
		Payload: payload,
	}
}

// NextPacketBuf is NextPacket with a pool-owned payload buffer: draw
// order and payload bytes are identical, but the returned packet's
// Payload aliases an internal buffer that the next NextPacketBuf call
// overwrites. Hot loops that consume the packet before drawing the next
// one (profiling, frame recording — Marshal copies) use this to avoid a
// per-packet allocation; callers that retain payloads use NextPacket.
func (p *Pool) NextPacketBuf(payloadLen int) (int, pkt.Packet) {
	i := p.zipf.Next()
	if cap(p.buf) < payloadLen {
		p.buf = make([]byte, payloadLen)
	}
	payload := p.buf[:payloadLen]
	p.rng.Bytes(payload)
	return i, pkt.Packet{
		SrcMAC:  pkt.MAC{0x02, 0, 0, 0, byte(i >> 8), byte(i)},
		DstMAC:  pkt.MAC{0x02, 0, 0, 0, 0xFF, 0xFE},
		Tuple:   p.flows[i],
		Payload: payload,
	}
}

// IMIXLen samples a payload length from a simple IMIX-like mix
// (~58% small, 33% medium, 9% large), matching typical datacenter blends.
func IMIXLen(rng *sim.Rand) int {
	switch v := rng.Intn(12); {
	case v < 7:
		return 26 // -> 64 B minimum frame once headers are added
	case v < 11:
		return 536
	default:
		return 1400
	}
}

// CAIDAStream models the one-hour CAIDA-like trace as an arrival process:
// new flows appear continuously, and packets are drawn from live flows
// with heavy-tailed per-flow packet counts (mean ~50, like 1.34 G packets
// over 26.7 M flows). It is a constant-memory iterator: Advance extends
// the generation horizon without materializing anything, and Next yields one packet at a time — the flow keys appear
// in exactly the order the old slice-returning Advance emitted them
// (each new flow's tuple repeated perFlow consecutive times), so a drain
// loop over Next is draw-for-draw identical to ranging over the slice.
type CAIDAStream struct {
	rng        *sim.Rand
	flowRate   float64 // new flows per simulated second
	elapsed    float64 // seconds
	target     uint64  // flows the horizon covers; Next stops when reached
	totalFlows uint64  // distinct flows emitted so far
	perFlow    int     // packets per flow within the current horizon
	remaining  int     // packets left for the current flow
	cur        pkt.FiveTuple
	curIdx     int    // flow index of cur (0-based arrival order)
	pos        uint64 // packets yielded over the stream's lifetime
}

// NewCAIDA creates a stream introducing flowRate new flows per second.
// The paper's trace has 26.7 M flows/hour ≈ 7417 flows/s.
func NewCAIDA(rng *sim.Rand, flowRate float64) *CAIDAStream {
	if flowRate <= 0 {
		flowRate = 26.7e6 / 3600
	}
	return &CAIDAStream{rng: rng, flowRate: flowRate}
}

// NewCAIDABudget creates a stream with an explicit flow budget instead of
// an arrival rate: exactly flows distinct flows, perFlow packets each.
// Shard replay uses this form — each shard owns a fixed slice of the
// window's flow population rather than a slice of simulated time.
func NewCAIDABudget(rng *sim.Rand, flows uint64, perFlow int) *CAIDAStream {
	if perFlow < 1 {
		perFlow = 1
	}
	return &CAIDAStream{rng: rng, flowRate: 1, target: flows, perFlow: perFlow}
}

// Advance moves simulated time forward by dt seconds, extending the
// horizon Next generates toward. perFlowPackets sets how many packets
// each newly arrived flow contributes (the trace's ~50:1 packet:flow
// ratio). It allocates nothing; call Next to drain the interval.
func (c *CAIDAStream) Advance(dt float64, perFlowPackets int) {
	if perFlowPackets < 1 {
		perFlowPackets = 1
	}
	c.elapsed += dt
	c.target = uint64(c.elapsed * c.flowRate)
	c.perFlow = perFlowPackets
}

// Next yields the next packet inside the advanced horizon: the flow's
// 0-based arrival index, a packet carrying its five-tuple, and false once
// the horizon is drained (Advance again to continue). The tuple draw
// order matches the pre-streaming implementation exactly: one randomTuple
// per new flow, repeated perFlow consecutive times.
func (c *CAIDAStream) Next() (int, pkt.Packet, bool) {
	if c.remaining == 0 {
		if c.totalFlows >= c.target {
			return 0, pkt.Packet{}, false
		}
		c.cur = randomTuple(c.rng)
		c.curIdx = int(c.totalFlows)
		c.totalFlows++
		c.remaining = c.perFlow
	}
	c.remaining--
	c.pos++
	return c.curIdx, pkt.Packet{Tuple: c.cur}, true
}

// Pos returns the number of packets the stream has yielded.
func (c *CAIDAStream) Pos() uint64 { return c.pos }

// TotalFlows returns the number of distinct flows generated so far.
func (c *CAIDAStream) TotalFlows() uint64 { return c.totalFlows }
