// Package memo provides a tiny keyed build-once cache for immutable
// simulation inputs. The experiment harness runs many jobs that would
// otherwise rebuild identical artifacts — NF tables from the same suite
// config, workload-pool templates from the same seed — so sweeps pay the
// construction cost once and share the result read-only.
//
// Determinism contract: Get's build function must be a pure function of
// the key (the sniclint determinism check covers this package like the
// rest of the simulation path). Under that contract, caching is
// invisible: whichever job reaches a key first builds the same value any
// other job would have, so results stay byte-identical for any worker
// count and any scheduling order. Values handed out are shared across
// goroutines and must never be mutated; mutable per-run state (RNGs,
// cursors) belongs in cheap instantiations derived from the cached
// value, not in the value itself.
package memo

import "sync"

// entry pairs a value slot with the once that fills it.
type entry[V any] struct {
	once sync.Once
	v    V
}

// Cache is a concurrency-safe map of build-once values. The zero value
// is ready to use.
type Cache[K comparable, V any] struct {
	m sync.Map // K -> *entry[V]
}

// Get returns the value for key, invoking build at most once per key
// across all goroutines. Concurrent callers for the same key block until
// the single build completes and then share its result.
func (c *Cache[K, V]) Get(key K, build func() V) V {
	e, ok := c.m.Load(key)
	if !ok {
		e, _ = c.m.LoadOrStore(key, new(entry[V]))
	}
	en := e.(*entry[V])
	en.once.Do(func() { en.v = build() })
	return en.v
}

// Len reports how many keys have an entry (built or building), for tests
// and diagnostics.
func (c *Cache[K, V]) Len() int {
	n := 0
	c.m.Range(func(any, any) bool { n++; return true })
	return n
}
