package cache

// Pow2ForTest reports whether the shift/mask fast path is active.
func (c *Cache) Pow2ForTest() bool { return c.pow2 }
