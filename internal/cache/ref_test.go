package cache

import (
	"fmt"
	"testing"

	"snic/internal/mem"
	"snic/internal/sim"
)

// refCache is the pre-optimization cache model, kept verbatim as the
// oracle for the shift/mask + structure-of-arrays rewrite: per-access
// div/mod indexing, an array-of-structs line store, and a wayRange
// recomputed on every access. The property test below drives both
// implementations with identical randomized traces and demands identical
// observable behaviour — hit/miss per access, eviction victims (checked
// through residency), and statistics.
type refLine struct {
	tag    uint64
	domain int
	valid  bool
	dirty  bool
	used   uint64
}

type refCache struct {
	lineSize uint64
	sets     int
	ways     int
	policy   Policy
	domains  int
	lines    []refLine
	tick     uint64
	stats    []Stats
}

func newRefCache(cfg Config) *refCache {
	if cfg.Domains < 1 {
		cfg.Domains = 1
	}
	lines := cfg.Size / cfg.LineSize
	return &refCache{
		lineSize: cfg.LineSize,
		sets:     int(lines) / cfg.Ways,
		ways:     cfg.Ways,
		policy:   cfg.Policy,
		domains:  cfg.Domains,
		lines:    make([]refLine, int(lines)),
		stats:    make([]Stats, cfg.Domains),
	}
}

func (c *refCache) wayRange(domain int) (int, int) {
	if c.policy == Shared {
		return 0, c.ways
	}
	per := c.ways / c.domains
	lo := domain * per
	hi := lo + per
	if domain == c.domains-1 {
		hi = c.ways
	}
	return lo, hi
}

func (c *refCache) Access(pa mem.Addr, domain int, write bool) bool {
	c.tick++
	set := int((uint64(pa) / c.lineSize) % uint64(c.sets))
	tag := uint64(pa) / c.lineSize / uint64(c.sets)
	base := set * c.ways
	lo, hi := c.wayRange(domain)

	for w := lo; w < hi; w++ {
		l := &c.lines[base+w]
		if l.valid && l.tag == tag && l.domain == domain {
			l.used = c.tick
			l.dirty = l.dirty || write
			c.stats[domain].Hits++
			return true
		}
	}
	if c.policy == Shared {
		for w := 0; w < c.ways; w++ {
			l := &c.lines[base+w]
			if l.valid && l.tag == tag {
				l.used = c.tick
				l.dirty = l.dirty || write
				c.stats[domain].Hits++
				return true
			}
		}
	}

	victim := base + lo
	for w := lo; w < hi; w++ {
		l := &c.lines[base+w]
		if !l.valid {
			victim = base + w
			break
		}
		if l.used < c.lines[victim].used {
			victim = base + w
		}
	}
	c.lines[victim] = refLine{tag: tag, domain: domain, valid: true, dirty: write, used: c.tick}
	c.stats[domain].Misses++
	return false
}

func (c *refCache) Contains(pa mem.Addr) bool {
	set := int((uint64(pa) / c.lineSize) % uint64(c.sets))
	tag := uint64(pa) / c.lineSize / uint64(c.sets)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		l := c.lines[base+w]
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) FlushDomain(domain int) int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].domain == domain {
			c.lines[i] = refLine{}
			n++
		}
	}
	return n
}

func (c *refCache) OccupancyOf(domain int) int {
	n := 0
	for _, l := range c.lines {
		if l.valid && l.domain == domain {
			n++
		}
	}
	return n
}

// TestRewriteMatchesReference drives the optimized cache and the retained
// reference through identical randomized traces — mixed domains, reads
// and writes, mid-trace flushes — over
// both power-of-two and non-power-of-two geometries, asserting identical
// hit/miss outcomes, statistics, residency, and occupancy throughout.
// Matching residency after every access pins the eviction victims too: a
// divergent victim leaves a differently-populated set behind.
func TestRewriteMatchesReference(t *testing.T) {
	geoms := []struct {
		cfg      Config
		wantPow2 bool
	}{
		{Config{Name: "p2-shared", Size: 16 << 10, LineSize: 64, Ways: 4, Policy: Shared, Domains: 3}, true},
		{Config{Name: "p2-static", Size: 16 << 10, LineSize: 64, Ways: 8, Policy: Static, Domains: 3}, true},
		{Config{Name: "p2-1dom", Size: 8 << 10, LineSize: 32, Ways: 2, Policy: Shared, Domains: 1}, true},
		// 12 KB / 64 B / 4 ways -> 48 sets: exercises the div/mod slow path.
		{Config{Name: "np2-shared", Size: 12 << 10, LineSize: 64, Ways: 4, Policy: Shared, Domains: 2}, false},
		{Config{Name: "np2-static", Size: 24 << 10, LineSize: 64, Ways: 8, Policy: Static, Domains: 4}, false},
	}
	for gi, g := range geoms {
		t.Run(g.cfg.Name, func(t *testing.T) {
			opt, err := New(g.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if opt.Pow2ForTest() != g.wantPow2 {
				t.Fatalf("pow2 = %v, want %v", opt.Pow2ForTest(), g.wantPow2)
			}
			ref := newRefCache(g.cfg)
			rng := sim.DeriveRand(0xCACE, "ref-equiv", g.cfg.Name, fmt.Sprint(gi))

			// Addresses cluster in a window a few times the cache size so
			// hits, misses, and evictions all occur often.
			window := g.cfg.Size * 3
			for step := 0; step < 20000; step++ {
				switch rng.Intn(97) {
				case 0:
					d := rng.Intn(g.cfg.Domains)
					if got, want := opt.FlushDomain(d), ref.FlushDomain(d); got != want {
						t.Fatalf("step %d: FlushDomain(%d) = %d, want %d", step, d, got, want)
					}
				default:
					pa := mem.Addr(rng.Uint64() % window)
					d := rng.Intn(g.cfg.Domains)
					write := rng.Intn(3) == 0
					got := opt.Access(pa, d, write)
					want := ref.Access(pa, d, write)
					if got != want {
						t.Fatalf("step %d: Access(%#x, dom %d, write %v) = %v, want %v",
							step, pa, d, write, got, want)
					}
				}
				if step%500 == 0 {
					pa := mem.Addr(rng.Uint64() % window)
					if got, want := opt.Contains(pa), ref.Contains(pa); got != want {
						t.Fatalf("step %d: Contains(%#x) = %v, want %v", step, pa, got, want)
					}
					for d := 0; d < g.cfg.Domains; d++ {
						if got, want := opt.OccupancyOf(d), ref.OccupancyOf(d); got != want {
							t.Fatalf("step %d: OccupancyOf(%d) = %d, want %d", step, d, got, want)
						}
					}
				}
			}
			for d := 0; d < g.cfg.Domains; d++ {
				if opt.Stats(d) != ref.stats[d] {
					t.Errorf("domain %d stats diverge: %+v vs %+v", d, opt.Stats(d), ref.stats[d])
				}
			}
		})
	}
}

// TestAccessDoesNotAllocate pins the steady-state fast path at zero
// allocations per access (with and without an observer attached the path
// is identical; the observed variant is covered by the obs tests).
func TestAccessDoesNotAllocate(t *testing.T) {
	c, err := New(Config{Name: "L2", Size: 64 << 10, LineSize: 64, Ways: 8, Policy: Static, Domains: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.DeriveRand(0xCACE, "alloc-regression")
	addrs := make([]mem.Addr, 256)
	for i := range addrs {
		addrs[i] = mem.Addr(rng.Uint64() % (128 << 10))
	}
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		c.Access(addrs[i%len(addrs)], i%2, i%3 == 0)
		i++
	}); avg != 0 {
		t.Errorf("Access allocates %.1f times per call, want 0", avg)
	}
}
