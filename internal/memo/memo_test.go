package memo

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

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

// TestGetWaitsForInFlightBuild pins the blocking contract: a Get racing
// a slow build of the same key waits for it and shares its value rather
// than building again or returning a half-written one.
func TestGetWaitsForInFlightBuild(t *testing.T) {
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
	got := make(chan int)
	go func() { got <- c.Get("k", func() int { return -1 }) }()
	select {
	case v := <-got:
		t.Fatalf("Get returned %d during an in-flight build", v)
	case <-time.After(10 * time.Millisecond):
	}
	close(release)
	<-donec
	if v := <-got; v != 42 {
		t.Errorf("Get after build = %d, want 42", v)
	}
	if c.Len() != 1 {
		t.Errorf("Len() = %d, want 1", c.Len())
	}
}
