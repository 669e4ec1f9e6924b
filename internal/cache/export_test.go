package cache

import "snic/internal/mem"

// Pow2ForTest reports whether the shift/mask fast path is active.
func (c *Cache) Pow2ForTest() bool { return c.pow2 }

// Contains reports whether pa is resident, without touching LRU state or
// stats: the residency probe of the prime+probe and reference-model
// tests.
func (c *Cache) Contains(pa mem.Addr) bool {
	set, tag := c.locate(pa)
	base := set * c.ways
	for _, k := range c.keys[base : base+c.ways] {
		if k == tag|validBit {
			return true
		}
	}
	return false
}

// OccupancyOf returns how many lines domain currently holds.
func (c *Cache) OccupancyOf(domain int) int {
	n := 0
	for i, k := range c.keys {
		if k != 0 && int(c.owner[i]) == domain {
			n++
		}
	}
	return n
}
