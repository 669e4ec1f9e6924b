package nf

import (
	"snic/internal/cpu"
	"snic/internal/hashmap"
	"snic/internal/mem"
	"snic/internal/pkt"
	"snic/internal/sim"
	"snic/internal/trace"
)

// Firewall is the stateful firewall of §5.1: packets are checked against a
// rule list, with recently-decided flows cached in a hash map capped at
// 200,000 entries (the Open vSwitch cached-flow limit the paper cites).
type Firewall struct {
	arena *mem.Arena
	rules []trace.FirewallRule
	cache *hashmap.Map
	// order tracks insertion order for FIFO eviction once the cache is
	// at its limit (Open vSwitch-style bounded flow cache).
	order []hashmap.Key

	// Stats.
	Dropped uint64
	Passed  uint64
	Hits    uint64
	Evicted uint64
}

// FirewallCacheLimit is the cached-flow cap (Open vSwitch's limit).
const FirewallCacheLimit = 200000

// ruleBytes is the modelled in-memory size of one parsed rule.
const ruleBytes = 64

// NewFirewall builds a firewall with the given ruleset (the paper uses
// 643 Emerging-Threats rules).
func NewFirewall(rules []trace.FirewallRule) *Firewall {
	a := &mem.Arena{}
	chargeImage(a)
	a.Alloc(mem.SegHeap, uint64(len(rules))*ruleBytes)
	return &Firewall{
		arena: a,
		rules: rules,
		cache: hashmap.New(a, 1024),
	}
}

// Name implements NF.
func (f *Firewall) Name() string { return "FW" }

// Arena implements NF.
func (f *Firewall) Arena() *mem.Arena { return f.arena }

// FixedFootprint implements NF: each new flow's decision is cached.
func (f *Firewall) FixedFootprint() bool { return false }

// Process implements NF.
func (f *Firewall) Process(p *pkt.Packet) Verdict {
	key := hashmap.Key(p.Tuple.Key())
	if v, ok := f.cache.Get(key); ok {
		f.Hits++
		if v == 1 {
			f.Dropped++
			return Drop
		}
		f.Passed++
		return Pass
	}
	verdict := uint64(0)
	for _, r := range f.rules {
		if r.Matches(p.Tuple.SrcIP, p.Tuple.DstIP, p.Tuple.SrcPort, p.Tuple.DstPort, p.Tuple.Proto) {
			if r.Drop {
				verdict = 1
			}
			break
		}
	}
	if f.cache.Len() >= FirewallCacheLimit {
		// Evict the oldest cached decision to admit the new flow.
		old := f.order[0]
		f.order = f.order[1:]
		f.cache.Delete(old)
		f.Evicted++
	}
	f.cache.Put(key, verdict)
	f.order = append(f.order, key)
	if verdict == 1 {
		f.Dropped++
		return Drop
	}
	f.Passed++
	return Pass
}

// CacheLen returns the number of cached flow decisions.
func (f *Firewall) CacheLen() int { return f.cache.Len() }

// NewStream implements NF: cache probes on the hot path, a linear rule
// scan on the (rare, once-per-flow) miss path.
func (f *Firewall) NewStream(rng *sim.Rand, pool *trace.Pool, base mem.Addr) cpu.Stream {
	cacheRegion := f.cache.FootprintBytes()
	if cacheRegion == 0 {
		cacheRegion = 64
	}
	rulesBase := base + mem.Addr(pktSlot*64) + mem.Addr(cacheRegion)
	cacheBase := base + mem.Addr(pktSlot*64)
	seenCap := FirewallCacheLimit
	seen := make(map[int]bool)
	return newPktStream(rng, pool, base, func(flow, payloadLen int, r *sim.Rand, touches []touch) packetCost {
		off := flowOffset(flow, cacheRegion)
		c := packetCost{
			parseInstr: 90,
			touches: append(touches,
				touch{addr: cacheBase + mem.Addr(off)},
				touch{addr: cacheBase + mem.Addr(off) + 64},
			),
			tailInstr: 60,
		}
		if !seen[flow] && len(seen) < seenCap {
			seen[flow] = true
			// Miss path: scan the ruleset (~643 rules, 64 B each).
			for i := 0; i < len(f.rules)*ruleBytes/64; i += 4 {
				c.touches = append(c.touches, touch{addr: rulesBase + mem.Addr(i*64)})
			}
			c.touches = append(c.touches, touch{addr: cacheBase + mem.Addr(off), store: true})
			c.tailInstr += 200
		}
		return c
	})
}
