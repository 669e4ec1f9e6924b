package memo

import (
	"sync"
	"sync/atomic"
	"testing"
)

// Peek returns the built value for key without building anything. The
// second result is false if the key has never been requested or its
// build has not completed yet.
func (c *Cache[K, V]) Peek(key K) (V, bool) {
	var zero V
	e, ok := c.m.Load(key)
	if !ok {
		return zero, false
	}
	en := e.(*entry[V])
	if !en.done.Load() {
		return zero, false
	}
	return en.v, true
}

func TestGetBuildsOncePerKey(t *testing.T) {
	var c Cache[int, int]
	var builds atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 8; k++ {
				v := c.Get(k, func() int {
					builds.Add(1)
					return k * 10
				})
				if v != k*10 {
					t.Errorf("Get(%d) = %d, want %d", k, v, k*10)
				}
			}
		}()
	}
	wg.Wait()
	if got := builds.Load(); got != 8 {
		t.Errorf("build ran %d times, want 8 (once per key)", got)
	}
	if c.Len() != 8 {
		t.Errorf("Len() = %d, want 8", c.Len())
	}
}

func TestGetSharesPointerValues(t *testing.T) {
	var c Cache[string, *[]int]
	build := func() *[]int { s := []int{1, 2, 3}; return &s }
	a := c.Get("k", build)
	b := c.Get("k", build)
	if a != b {
		t.Error("same key returned distinct values")
	}
}

func TestPeek(t *testing.T) {
	var c Cache[string, int]
	if _, ok := c.Peek("missing"); ok {
		t.Error("Peek on an empty cache reported a value")
	}
	c.Get("k", func() int { return 7 })
	v, ok := c.Peek("k")
	if !ok || v != 7 {
		t.Errorf("Peek(k) = %d, %v; want 7, true", v, ok)
	}
	// Peek never builds: the key it probed must not appear as an entry.
	if _, ok := c.Peek("other"); ok {
		t.Error("Peek built a value")
	}
	if c.Len() != 1 {
		t.Errorf("Len() = %d after Peek, want 1", c.Len())
	}
}

// TestPeekDoesNotObserveInFlightBuilds pins the lock-free contract: a
// Peek racing a slow build reports absent rather than blocking on the
// once or returning a half-written value.
func TestPeekDoesNotObserveInFlightBuilds(t *testing.T) {
	var c Cache[string, int]
	started := make(chan struct{})
	release := make(chan struct{})
	donec := make(chan struct{})
	go func() {
		defer close(donec)
		c.Get("k", func() int {
			close(started)
			<-release
			return 42
		})
	}()
	<-started
	if _, ok := c.Peek("k"); ok {
		t.Error("Peek observed an in-flight build")
	}
	close(release)
	<-donec
	if v, ok := c.Peek("k"); !ok || v != 42 {
		t.Errorf("Peek after build = %d, %v; want 42, true", v, ok)
	}
}
