// Package cache implements the set-associative cache hierarchy used by the
// timing simulator, together with the sharing policies §4.2 evaluates:
//
//   - Shared: the commodity baseline. Every security domain competes for
//     every way; cross-domain evictions are both a performance interference
//     channel and a classic prime+probe side channel.
//   - Static: S-NIC's hard partitioning — each domain receives an equal,
//     private slice of the ways ("Static partitioning allocated 1/N of the
//     cache to each of the N functions", §5.3). No line is ever shared or
//     stolen across domains, eliminating cache side channels.
//
// The cache exposes per-domain hit/miss statistics and, deliberately, the
// per-access hit/miss outcome — that observable is what a prime+probe
// attacker measures, and the attack tests use it to demonstrate leakage on
// Shared and silence on Static.
package cache

import (
	"fmt"
	"math/bits"
	"strconv"

	"snic/internal/mem"
	"snic/internal/obs"
)

// Policy selects the sharing discipline.
type Policy int

// Sharing policies.
const (
	Shared Policy = iota // full sharing (baseline, leaky)
	Static               // hard way-partitioning per domain (S-NIC)
)

func (p Policy) String() string {
	switch p {
	case Shared:
		return "shared"
	case Static:
		return "static"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Stats counts per-domain cache outcomes.
type Stats struct {
	Hits   uint64
	Misses uint64
}

// Accesses returns total accesses.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// validBit marks a resident line's key. New rejects line sizes below 2,
// so no tag reaches bit 63 and tag|validBit is unambiguous.
const validBit = 1 << 63

// Cache is one level of set-associative cache. Lines live in three
// parallel slices, row-major by set, so a probe is one compare per way
// over contiguous uint64s. Access scans only the domain's way range, and
// that one scan is exact: under Shared the range is every way and a tag
// is never resident twice in a set (a fill follows a miss over every
// way); under Static a domain's ways only hold lines it filled.
type Cache struct {
	name     string
	lineSize uint64
	sets     int
	ways     int
	domains  int
	keys     []uint64 // sets*ways: tag|validBit, 0 when invalid
	used     []uint64 // LRU stamp, 0 when invalid (tick is bumped first, so valid >= 1)
	owner    []int32  // filling domain: for eviction attribution and FlushDomain
	tick     uint64
	stats    []Stats
	// pow2 indexing: when both lineSize and sets are powers of two (every
	// real configuration), set/tag extraction is a shift and a mask. The
	// div/mod slow path stays behind locate for the rest.
	pow2      bool
	lineShift uint
	setShift  uint
	setMask   uint64
	// ranges[d] is the half-open way interval domain d may occupy,
	// precomputed at construction instead of being rebuilt per access.
	ranges [][2]int32
	// obs handles, indexed by domain; nil until Observe attaches a
	// collector, so the unobserved hot path pays one nil check.
	obsHits, obsMisses, obsEvictions []*obs.Counter
}

// Config describes a cache level.
type Config struct {
	Name     string
	Size     uint64 // total bytes
	LineSize uint64 // bytes per line
	Ways     int
	Policy   Policy
	Domains  int // number of security domains sharing this cache (>=1)
}

// New builds a cache. Size must be divisible by LineSize*Ways. Under the
// Static policy, Ways must be >= Domains so each domain gets at least one
// private way.
func New(cfg Config) (*Cache, error) {
	if cfg.LineSize < 2 || cfg.Ways <= 0 || cfg.Size == 0 {
		return nil, fmt.Errorf("cache: bad config %+v", cfg)
	}
	if cfg.Domains < 1 {
		cfg.Domains = 1
	}
	lines := cfg.Size / cfg.LineSize
	if lines%uint64(cfg.Ways) != 0 {
		return nil, fmt.Errorf("cache: %d lines not divisible by %d ways", lines, cfg.Ways)
	}
	sets := int(lines) / cfg.Ways
	if cfg.Policy == Static && cfg.Ways < cfg.Domains {
		return nil, fmt.Errorf("cache: %d ways cannot be partitioned across %d domains", cfg.Ways, cfg.Domains)
	}
	c := &Cache{
		name:     cfg.Name,
		lineSize: cfg.LineSize,
		sets:     sets,
		ways:     cfg.Ways,
		domains:  cfg.Domains,
		keys:     make([]uint64, int(lines)),
		used:     make([]uint64, int(lines)),
		owner:    make([]int32, int(lines)),
		stats:    make([]Stats, cfg.Domains),
	}
	if cfg.LineSize&(cfg.LineSize-1) == 0 && sets&(sets-1) == 0 {
		c.pow2 = true
		c.lineShift = uint(bits.TrailingZeros64(cfg.LineSize))
		c.setShift = uint(bits.TrailingZeros64(uint64(sets)))
		c.setMask = uint64(sets) - 1
	}
	c.computeRanges(cfg.Policy)
	return c, nil
}

// locate splits a physical address into (set, tag). The pow2 fast path is
// exactly the div/mod pair below expressed as shift/mask.
func (c *Cache) locate(pa mem.Addr) (int, uint64) {
	if c.pow2 {
		block := uint64(pa) >> c.lineShift
		return int(block & c.setMask), block >> c.setShift
	}
	block := uint64(pa) / c.lineSize
	return int(block % uint64(c.sets)), block / uint64(c.sets)
}

// computeRanges builds the per-domain way-range table from the policy:
// every way under Shared, an equal split under Static.
func (c *Cache) computeRanges(policy Policy) {
	c.ranges = make([][2]int32, c.domains)
	for d := 0; d < c.domains; d++ {
		if policy == Shared {
			c.ranges[d] = [2]int32{0, int32(c.ways)}
			continue
		}
		per := c.ways / c.domains
		lo := d * per
		hi := lo + per
		if d == c.domains-1 {
			hi = c.ways // last domain absorbs the remainder ways
		}
		c.ranges[d] = [2]int32{int32(lo), int32(hi)}
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Stats returns the accumulated statistics for a domain.
func (c *Cache) Stats(domain int) Stats { return c.stats[domain] }

// Observe attaches per-domain hit/miss/eviction counters to reg under
// the given device label, one owner label per domain. A nil reg leaves
// the cache detached (instrumentation stays free).
func (c *Cache) Observe(reg *obs.Registry, device string) {
	if reg == nil {
		return
	}
	component := "cache/" + c.name
	c.obsHits = make([]*obs.Counter, c.domains)
	c.obsMisses = make([]*obs.Counter, c.domains)
	c.obsEvictions = make([]*obs.Counter, c.domains)
	for d := 0; d < c.domains; d++ {
		owner := "dom" + strconv.Itoa(d)
		c.obsHits[d] = reg.Counter(obs.Label{Device: device, Owner: owner, Component: component, Name: "hits"})
		c.obsMisses[d] = reg.Counter(obs.Label{Device: device, Owner: owner, Component: component, Name: "misses"})
		c.obsEvictions[d] = reg.Counter(obs.Label{Device: device, Owner: owner, Component: component, Name: "evictions"})
	}
}

// Access looks up the line containing pa on behalf of domain. It returns
// true on a hit. On a miss the line is filled (evicting the domain's LRU
// victim within its permitted ways) and false is returned. The cache
// keeps no dirty state, so write does not change the outcome.
//
// Under Shared a domain hits on a line any domain brought in (a shared
// physical line) — this cross-domain visibility is itself part of the
// side channel, and the reason Intel CAT-style soft partitioning is
// insufficient. Under Static a domain only ever sees its own ways.
func (c *Cache) Access(pa mem.Addr, domain int, write bool) bool {
	c.tick++
	set, tag := c.locate(pa)
	base := set * c.ways
	r := c.ranges[domain]
	lo, hi := base+int(r[0]), base+int(r[1])
	key := tag | validBit

	for i, k := range c.keys[lo:hi] {
		if k == key {
			c.used[lo+i] = c.tick
			c.stats[domain].Hits++
			if c.obsHits != nil {
				c.obsHits[domain].Inc()
			}
			return true
		}
	}

	// Miss: fill the lowest-stamped way (first invalid, else LRU).
	victim, oldest := 0, ^uint64(0)
	for i, u := range c.used[lo:hi] {
		if u < oldest {
			victim, oldest = i, u
		}
	}
	v := lo + victim
	if c.obsMisses != nil {
		c.obsMisses[domain].Inc()
		// Evictions are charged to the domain losing the line, which is
		// where cross-domain interference shows up under Shared.
		if c.keys[v] != 0 {
			c.obsEvictions[c.owner[v]].Inc()
		}
	}
	c.keys[v] = key
	c.used[v] = c.tick
	c.owner[v] = int32(domain)
	c.stats[domain].Misses++
	return false
}

// FlushDomain invalidates every line belonging to domain — the cache-line
// scrub performed by nf_teardown ("The instruction also zeroes out the
// registers and cache lines used by F", §4.6). It returns the number of
// lines flushed.
func (c *Cache) FlushDomain(domain int) int {
	n := 0
	for i, k := range c.keys {
		if k != 0 && int(c.owner[i]) == domain {
			c.keys[i], c.used[i], c.owner[i] = 0, 0, 0
			n++
		}
	}
	return n
}
