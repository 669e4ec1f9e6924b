// Package obs is the simulator's deterministic observability layer:
// always-on metrics and cycle-stamped traces that live entirely in
// simulated time.
//
// Every number the experiment harness reports is a final aggregate; obs
// exists so a moved sweep can be explained without printf debugging.
// Three rules keep observation free:
//
//   - Simulated time only. Metric values and trace stamps derive from
//     the simulation's own cycle/byte accounting, never the wall clock,
//     so dumps and trace files are byte-identical across -workers
//     counts and pinnable as goldens. The single exception, Wall, is
//     quarantined: its readings feed -v progress output only and are
//     excluded from every deterministic export.
//
//   - Nil-safe and cheap. Instrumented components hold handle pointers
//     (Counter, Gauge, Histogram, Tracer). With no collector attached
//     the handles are nil and every operation is a no-op behind one
//     branch, so instrumentation stays on permanently.
//
//   - Write-only from the simulation. Results must never depend on a
//     metric value: the sniclint transitive-determinism check forbids
//     simulation-path code from reaching the reader APIs (Value,
//     Records, DumpMetrics, ...) through any call chain. Only cmd/
//     tools and tests read.
//
// Series are keyed by a stable (device, owner, component, name) Label.
// Exports sort by label, so registration order — which varies with
// worker scheduling — never shows.
package obs

import (
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label identifies one metric series. Device names the simulated device
// instance (or experiment scope), Owner the principal charged (an NF id,
// a cache/bus domain, "mgmt", or "-"), Component the hardware module,
// and Name the series. Fields must be stable across runs: labels become
// dump and trace identity.
type Label struct {
	Device    string
	Owner     string
	Component string
	Name      string
}

// sanitize makes a label field safe for the space-separated dump format.
func sanitize(s string) string {
	if s == "" {
		return "-"
	}
	return strings.Map(func(r rune) rune {
		switch r {
		case ' ', '\t', '\n', '\r':
			return '_'
		}
		return r
	}, s)
}

func (l Label) clean() Label {
	return Label{
		Device:    sanitize(l.Device),
		Owner:     sanitize(l.Owner),
		Component: sanitize(l.Component),
		Name:      sanitize(l.Name),
	}
}

// less orders labels for rendering: device, owner, component, name.
func (l Label) less(o Label) bool {
	if l.Device != o.Device {
		return l.Device < o.Device
	}
	if l.Owner != o.Owner {
		return l.Owner < o.Owner
	}
	if l.Component != o.Component {
		return l.Component < o.Component
	}
	return l.Name < o.Name
}

// Counter is a monotonically increasing uint64. Increments are atomic,
// so concurrent engine jobs sharing a label merge commutatively and the
// final value is worker-count invariant.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter. Safe on a nil handle (no collector).
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (reader API: tools and tests only).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 (occupancy-style values).
type Gauge struct{ v atomic.Int64 }

// Set stores v. Safe on a nil handle.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value returns the current value (reader API).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count: one power-of-two bucket per
// possible bit length of a uint64 sample (bucket k holds samples whose
// bit length is k, i.e. v in [2^(k-1), 2^k)), plus bucket 0 for zero.
const histBuckets = 65

// Histogram accumulates uint64 samples into power-of-two buckets. Like
// Counter it is atomic and commutative, so concurrent observation is
// deterministic in aggregate.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one sample. Safe on a nil handle.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// Count returns the number of samples (reader API).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of samples (reader API).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Buckets returns the per-bit-length sample counts (reader API).
func (h *Histogram) Buckets() [histBuckets]uint64 {
	var out [histBuckets]uint64
	if h == nil {
		return out
	}
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Registry is the collector: it interns metric series by label and
// tracers by track name. A nil *Registry is the detached state — every
// method returns a nil handle whose operations no-op — so components
// attach unconditionally and pay nothing until a collector exists.
type Registry struct {
	mu       sync.Mutex
	counters map[Label]*Counter
	gauges   map[Label]*Gauge
	hists    map[Label]*Histogram
	tracers  map[string]*Tracer
	traceCap int // flight-recorder capacity applied to every track; 0 = unbounded
}

// NewRegistry returns an empty collector.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[Label]*Counter),
		gauges:   make(map[Label]*Gauge),
		hists:    make(map[Label]*Histogram),
		tracers:  make(map[string]*Tracer),
	}
}

// Counter interns the counter for l (nil on a nil registry).
func (r *Registry) Counter(l Label) *Counter {
	if r == nil {
		return nil
	}
	l = l.clean()
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[l]
	if !ok {
		c = &Counter{}
		r.counters[l] = c
	}
	return c
}

// Gauge interns the gauge for l (nil on a nil registry).
func (r *Registry) Gauge(l Label) *Gauge {
	if r == nil {
		return nil
	}
	l = l.clean()
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[l]
	if !ok {
		g = &Gauge{}
		r.gauges[l] = g
	}
	return g
}

// Histogram interns the histogram for l (nil on a nil registry).
func (r *Registry) Histogram(l Label) *Histogram {
	if r == nil {
		return nil
	}
	l = l.clean()
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[l]
	if !ok {
		h = &Histogram{}
		r.hists[l] = h
	}
	return h
}

// Tracer interns the tracer for track (nil on a nil registry). Distinct
// concurrent activities (engine jobs, devices) must use distinct track
// names: records within one track keep append order, and exports order
// tracks by name, so uniqueness per job is what makes trace files
// worker-count invariant.
func (r *Registry) Tracer(track string) *Tracer {
	if r == nil {
		return nil
	}
	track = sanitize(track)
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tracers[track]
	if !ok {
		t = &Tracer{cap: r.traceCap}
		r.tracers[track] = t
	}
	return t
}

// SetTraceCapacity turns the registry's tracers into a flight recorder:
// every track — existing and future — retains at most n records
// (keep-last-n per track; 0 restores unbounded collection). Retention is
// deterministic per track, so bounded exports stay worker-count
// invariant, and exports are byte-identical to the unbounded form
// whenever no track exceeded n. Call it once right after NewRegistry:
// capacity is part of the run's configuration, not something to toggle
// mid-sweep.
func (r *Registry) SetTraceCapacity(n int) {
	if r == nil {
		return
	}
	if n < 0 {
		n = 0
	}
	r.mu.Lock()
	r.traceCap = n
	tracks := make([]string, 0, len(r.tracers))
	for track := range r.tracers {
		tracks = append(tracks, track)
	}
	sort.Strings(tracks)
	tracers := make([]*Tracer, 0, len(tracks))
	for _, track := range tracks {
		tracers = append(tracers, r.tracers[track])
	}
	r.mu.Unlock()
	for _, t := range tracers {
		t.SetCapacity(n)
	}
}

// sortedCounterLabels returns the registered counter labels in render
// order (keys are collected first, then sorted: map order never leaks).
func (r *Registry) sortedCounterLabels() []Label {
	var ls []Label
	for l := range r.counters {
		ls = append(ls, l)
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].less(ls[j]) })
	return ls
}

func (r *Registry) sortedGaugeLabels() []Label {
	var ls []Label
	for l := range r.gauges {
		ls = append(ls, l)
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].less(ls[j]) })
	return ls
}

func (r *Registry) sortedHistLabels() []Label {
	var ls []Label
	for l := range r.hists {
		ls = append(ls, l)
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].less(ls[j]) })
	return ls
}

func (r *Registry) sortedTracks() []string {
	var ts []string
	for t := range r.tracers {
		ts = append(ts, t)
	}
	sort.Strings(ts)
	return ts
}
