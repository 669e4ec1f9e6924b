package obs

import (
	"sort"
	"sync"
)

// Record is one trace entry: a span (Dur cycles starting at Start) or an
// instant event (Instant, Dur 0). Stamps are simulated cycles from the
// track's Clock, never wall time.
type Record struct {
	Component string
	Name      string
	Start     uint64
	Dur       uint64
	Instant   bool
}

// Tracer collects the records of one track. A track models one serial
// activity (a device's trusted-instruction stream, one engine job), so
// records append in a well-defined order even when many tracks are
// populated concurrently.
//
// A Tracer is also the flight recorder: with a capacity set (via
// Registry.SetTraceCapacity or SetCapacity), the track retains only its
// most recent cap records in a ring, evicting the oldest. Retention is
// deterministic — which records survive is a pure function of the
// track's append sequence, never of scheduling — so bounded traces stay
// byte-identical at any worker count, and exports are unchanged from
// the unbounded form whenever capacity was never exceeded. Evictions
// are counted and surfaced as a dropped_spans counter per track in the
// metric dump and as annotations on the trace exports, so truncation is
// always visible.
type Tracer struct {
	mu      sync.Mutex
	cap     int      // 0 = unbounded
	recs    []Record // ring once len(recs) == cap and cap > 0
	next    int      // ring write index, meaningful once wrapped
	dropped uint64   // records evicted by the ring
}

// SetCapacity bounds the track to keep-last-n records (0 restores
// unbounded collection). If more than n records are already retained,
// the oldest are evicted immediately and counted as dropped.
func (t *Tracer) SetCapacity(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n < 0 {
		n = 0
	}
	recs := t.orderedLocked()
	if n > 0 && len(recs) > n {
		t.dropped += uint64(len(recs) - n)
		recs = recs[len(recs)-n:]
	}
	t.cap = n
	t.recs = recs
	t.next = 0
	if n > 0 && len(t.recs) == n {
		t.next = 0 // ring full: next append overwrites the oldest slot
	}
}

// append adds one record, evicting the oldest when the ring is full.
func (t *Tracer) append(rec Record) {
	t.mu.Lock()
	if t.cap > 0 && len(t.recs) == t.cap {
		t.recs[t.next] = rec
		t.next++
		if t.next == t.cap {
			t.next = 0
		}
		t.dropped++
	} else {
		t.recs = append(t.recs, rec)
	}
	t.mu.Unlock()
}

// Span records a completed span of dur cycles starting at start. Safe on
// a nil handle.
func (t *Tracer) Span(component, name string, start, dur uint64) {
	if t == nil {
		return
	}
	t.append(Record{
		Component: sanitize(component),
		Name:      sanitize(name),
		Start:     start,
		Dur:       dur,
	})
}

// Event records an instant event at cycle at. Safe on a nil handle.
func (t *Tracer) Event(component, name string, at uint64) {
	if t == nil {
		return
	}
	t.append(Record{
		Component: sanitize(component),
		Name:      sanitize(name),
		Start:     at,
		Instant:   true,
	})
}

// orderedLocked reconstructs append order from the ring. Callers hold
// t.mu; the returned slice is freshly allocated.
func (t *Tracer) orderedLocked() []Record {
	out := make([]Record, 0, len(t.recs))
	if t.cap > 0 && len(t.recs) == t.cap {
		out = append(out, t.recs[t.next:]...)
		out = append(out, t.recs[:t.next]...)
		return out
	}
	return append(out, t.recs...)
}

// Records returns a fresh copy of the track's retained records, ordered
// by cycle stamp first and insertion order second (a stable sort, so
// records sharing a start cycle keep their append order). For the
// monotone clocks every instrumented component uses, this is exactly
// append order; the guarantee makes concurrent callers and resumable
// tooling independent of how the copy was assembled. Reader API: tools
// and tests only.
func (t *Tracer) Records() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := t.orderedLocked()
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Dropped returns how many records the flight recorder has evicted from
// this track (0 while unbounded or below capacity). Reader API: tools
// and tests only.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// CyclesPerMS converts the simulator's millisecond-denominated rate
// model to the 1.2 GHz cycle domain the timing cores use
// (cpu.DefaultLatencies), so span stamps and Figure 6 rows are two views
// of the same quantity.
const CyclesPerMS = 1_200_000

// MSToCycles converts a simulated-milliseconds duration to cycles,
// rounding half away from zero.
func MSToCycles(ms float64) uint64 {
	if ms <= 0 {
		return 0
	}
	return uint64(ms*CyclesPerMS + 0.5)
}

// Clock is a simulated cycle counter for stamping trace records. The
// zero value reads cycle zero; devices advance it by each modeled
// latency. A nil *Clock reads zero and ignores advances, matching the
// detached-collector convention.
type Clock struct{ cycle uint64 }

// Tick advances the clock by dur cycles and returns the cycle the
// interval started at — the natural shape for "this phase just took
// dur": Span(component, name, clk.Tick(dur), dur).
func (c *Clock) Tick(dur uint64) uint64 {
	if c == nil {
		return 0
	}
	start := c.cycle
	c.cycle += dur
	return start
}
