package cache

import (
	"testing"

	"snic/internal/mem"
	"snic/internal/sim"
)

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func small(t *testing.T, policy Policy, domains int) *Cache {
	return mustNew(t, Config{
		Name: "L2", Size: 8 << 10, LineSize: 64, Ways: 4,
		Policy: policy, Domains: domains,
	})
}

func TestGeometry(t *testing.T) {
	c := small(t, Shared, 1)
	if c.Sets() != 32 || c.Ways() != 4 {
		t.Fatalf("geometry: sets=%d ways=%d", c.Sets(), c.Ways())
	}
}

func TestBadConfigs(t *testing.T) {
	if _, err := New(Config{Size: 0, LineSize: 64, Ways: 4}); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := New(Config{Size: 1 << 10, LineSize: 64, Ways: 0}); err == nil {
		t.Fatal("zero ways accepted")
	}
	// A 1-byte line would let a tag reach the valid bit.
	if _, err := New(Config{Size: 1 << 10, LineSize: 1, Ways: 4}); err == nil {
		t.Fatal("1-byte lines accepted")
	}
	// Static with more domains than ways is impossible.
	if _, err := New(Config{Size: 8 << 10, LineSize: 64, Ways: 2, Policy: Static, Domains: 4}); err == nil {
		t.Fatal("unpartitionable config accepted")
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := small(t, Shared, 1)
	if c.Access(0x1000, 0, false) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000, 0, false) {
		t.Fatal("warm access missed")
	}
	s := c.Stats(0)
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSameLineDifferentByte(t *testing.T) {
	c := small(t, Shared, 1)
	c.Access(0x1000, 0, false)
	if !c.Access(0x1000+63, 0, false) {
		t.Fatal("same-line access missed")
	}
	if c.Access(0x1000+64, 0, false) {
		t.Fatal("next-line access hit")
	}
}

func TestLRUEviction(t *testing.T) {
	c := small(t, Shared, 1) // 32 sets, 4 ways
	setStride := uint64(32 * 64)
	// Fill one set with 4 distinct tags.
	for i := uint64(0); i < 4; i++ {
		c.Access(mem.Addr(i*setStride), 0, false)
	}
	// Touch tag 0 so tag 1 becomes LRU.
	c.Access(0, 0, false)
	// A fifth tag evicts tag 1.
	c.Access(mem.Addr(4*setStride), 0, false)
	if !c.Access(0, 0, false) {
		t.Fatal("recently used line evicted")
	}
	if c.Access(mem.Addr(1*setStride), 0, false) {
		t.Fatal("LRU line survived")
	}
}

func TestSharedCrossDomainInterference(t *testing.T) {
	c := small(t, Shared, 2)
	setStride := uint64(32 * 64)
	// Domain 0 warms 4 lines of set 0.
	for i := uint64(0); i < 4; i++ {
		c.Access(mem.Addr(i*setStride), 0, false)
	}
	// Domain 1 thrashes the same set.
	for i := uint64(10); i < 14; i++ {
		c.Access(mem.Addr(i*setStride), 1, false)
	}
	// Domain 0's lines are gone: interference (and a side channel).
	clear(c.stats)
	for i := uint64(0); i < 4; i++ {
		c.Access(mem.Addr(i*setStride), 0, false)
	}
	if c.Stats(0).Misses == 0 {
		t.Fatal("no interference under shared policy?")
	}
}

func TestStaticPartitionIsolation(t *testing.T) {
	c := small(t, Static, 2) // 4 ways -> 2 per domain
	setStride := uint64(32 * 64)
	// Domain 0 warms its 2 ways of set 0.
	c.Access(0, 0, false)
	c.Access(mem.Addr(setStride), 0, false)
	// Domain 1 thrashes the same set heavily.
	for i := uint64(10); i < 30; i++ {
		c.Access(mem.Addr(i*setStride), 1, false)
	}
	// Domain 0's lines MUST survive: hard partition.
	clear(c.stats)
	c.Access(0, 0, false)
	c.Access(mem.Addr(setStride), 0, false)
	if c.Stats(0).Misses != 0 {
		t.Fatalf("static partition leaked evictions: %+v", c.Stats(0))
	}
}

func TestStaticNoCrossDomainHits(t *testing.T) {
	c := small(t, Static, 2)
	c.Access(0x2000, 0, false)
	// Domain 1 accessing the same physical line must MISS (no shared
	// lines across partitions — that read-hit sharing is the "soft
	// partitioning" hole the paper calls out in Intel CAT).
	if c.Access(0x2000, 1, false) {
		t.Fatal("cross-domain hit under static partitioning")
	}
}

func TestSharedCrossDomainHit(t *testing.T) {
	c := small(t, Shared, 2)
	c.Access(0x2000, 0, false)
	if !c.Access(0x2000, 1, false) {
		t.Fatal("shared policy should serve cross-domain hits")
	}
}

func TestFlushDomain(t *testing.T) {
	c := small(t, Shared, 2)
	c.Access(0x0, 0, false)
	c.Access(0x40, 0, false)
	c.Access(0x80, 1, false)
	if n := c.FlushDomain(0); n != 2 {
		t.Fatalf("flushed %d lines", n)
	}
	if c.OccupancyOf(0) != 0 {
		t.Fatal("domain 0 lines survive flush")
	}
	if c.OccupancyOf(1) != 1 {
		t.Fatal("domain 1 lines damaged by flush")
	}
	if c.Contains(0x0) {
		t.Fatal("flushed line still resident")
	}
}

func TestContainsDoesNotPerturb(t *testing.T) {
	c := small(t, Shared, 1)
	c.Access(0x0, 0, false)
	before := c.Stats(0)
	c.Contains(0x0)
	c.Contains(0x999940)
	if c.Stats(0) != before {
		t.Fatal("Contains changed stats")
	}
}

// TestMissRate: one cold miss and three hits on the same line give a
// miss ratio of 1/4 of four accesses.
func TestMissRate(t *testing.T) {
	c := small(t, Shared, 1)
	if s := c.Stats(0); s.Accesses() != 0 {
		t.Fatalf("fresh cache counted %d accesses", s.Accesses())
	}
	for i := 0; i < 4; i++ {
		c.Access(0x40, 0, false)
	}
	if s := c.Stats(0); s.Misses != 1 || s.Accesses() != 4 {
		t.Fatalf("stats = %+v, want 1 miss in 4 accesses", s)
	}
}

func TestLastDomainAbsorbsRemainderWays(t *testing.T) {
	// 4 ways, 3 domains: domains get 1,1,2 ways. All must be usable.
	c := mustNew(t, Config{Size: 8 << 10, LineSize: 64, Ways: 4, Policy: Static, Domains: 3})
	setStride := uint64(32 * 64)
	c.Access(0, 2, false)
	c.Access(mem.Addr(setStride), 2, false)
	clear(c.stats)
	c.Access(0, 2, false)
	c.Access(mem.Addr(setStride), 2, false)
	if c.Stats(2).Misses != 0 {
		t.Fatal("last domain did not get remainder ways")
	}
}

// Property-style: under Static, one domain's hit/miss sequence is
// completely independent of another domain's (interleaved) activity.
func TestStaticNonInterferenceProperty(t *testing.T) {
	run := func(withAttacker bool, seed uint64) []bool {
		c := small(t, Static, 2)
		rng := sim.NewRand(seed)
		attacker := sim.NewRand(999)
		var outcomes []bool
		for i := 0; i < 4000; i++ {
			va := mem.Addr(rng.Intn(1 << 14))
			outcomes = append(outcomes, c.Access(va, 0, false))
			if withAttacker {
				for j := 0; j < 3; j++ {
					c.Access(mem.Addr(attacker.Intn(1<<16)), 1, false)
				}
			}
		}
		return outcomes
	}
	quiet := run(false, 7)
	noisy := run(true, 7)
	for i := range quiet {
		if quiet[i] != noisy[i] {
			t.Fatalf("access %d outcome changed by co-tenant activity", i)
		}
	}
}

func TestPolicyString(t *testing.T) {
	if Shared.String() != "shared" || Static.String() != "static" {
		t.Fatal("policy names")
	}
}
