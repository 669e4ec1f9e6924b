package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock returns a deterministic time source advancing stepMS per
// read, standing in for time.Now in Wall tests.
func fakeClock(stepMS int) func() time.Time {
	t := time.Unix(0, 0)
	return func() time.Time {
		t = t.Add(time.Duration(stepMS) * time.Millisecond)
		return t
	}
}

// TestNilSafety pins the detached-collector contract: a nil registry
// hands out nil handles, and every operation on a nil handle is a
// no-op. Instrumented components rely on this to stay always-on.
func TestNilSafety(t *testing.T) {
	var r *Registry
	l := Label{Device: "d", Owner: "o", Component: "c", Name: "n"}
	c := r.Counter(l)
	g := r.Gauge(l)
	h := r.Histogram(l)
	tr := r.Tracer("t")
	if c != nil || g != nil || h != nil || tr != nil {
		t.Fatal("nil registry returned non-nil handles")
	}
	c.Add(5)
	c.Inc()
	g.Set(7)
	h.Observe(9)
	tr.Span("c", "n", 0, 10)
	tr.Event("c", "n", 3)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles accumulated values")
	}
	if b := h.Buckets(); b != ([histBuckets]uint64{}) {
		t.Fatal("nil histogram has populated buckets")
	}
	if tr.Records() != nil {
		t.Fatal("nil tracer not inert")
	}
	var clk *Clock
	if clk.Tick(100) != 0 || clk.Tick(0) != 0 {
		t.Fatal("nil clock advanced")
	}
	var w *Wall
	if !w.Start().IsZero() || w.Since(w.Start()) != 0 {
		t.Fatal("nil wall read a clock")
	}
	if got := r.DumpMetrics(); got != dumpHeader+"\n" {
		t.Fatalf("nil registry dump = %q, want bare header", got)
	}
	if _, err := r.ChromeTrace(); err != nil {
		t.Fatalf("nil registry ChromeTrace: %v", err)
	}
	if got := r.TraceText(); got != "# snic-trace v1\n" {
		t.Fatalf("nil registry TraceText = %q", got)
	}
}

// TestInterning: one label, one handle — writes through separately
// interned handles land on the same series.
func TestInterning(t *testing.T) {
	r := NewRegistry()
	l := Label{Device: "d", Owner: "o", Component: "c", Name: "n"}
	a, b := r.Counter(l), r.Counter(l)
	if a != b {
		t.Fatal("same label interned two counters")
	}
	a.Add(2)
	b.Add(3)
	if a.Value() != 5 {
		t.Fatalf("counter = %d, want 5", a.Value())
	}
	if r.Tracer("x") != r.Tracer("x") {
		t.Fatal("same track interned two tracers")
	}
	if r.Counter(Label{Name: "other"}) == a {
		t.Fatal("distinct labels shared a counter")
	}
}

// TestLabelSanitize: whitespace would corrupt the space-separated dump
// format, so label fields are cleaned at interning time and empty
// fields become "-".
func TestLabelSanitize(t *testing.T) {
	r := NewRegistry()
	r.Counter(Label{Device: "dev 1", Owner: "", Component: "a\tb", Name: "n\nx"}).Inc()
	dump := r.DumpMetrics()
	want := "counter dev_1 - a_b n_x 1\n"
	if !strings.Contains(dump, want) {
		t.Fatalf("dump %q missing sanitized line %q", dump, want)
	}
	// Sanitized and pre-sanitized forms intern to the same series.
	if r.Counter(Label{Device: "dev 1", Component: "a\tb", Name: "n\nx"}) !=
		r.Counter(Label{Device: "dev_1", Owner: "-", Component: "a_b", Name: "n_x"}) {
		t.Fatal("sanitization did not canonicalize interning")
	}
}

// TestHistogramBuckets pins the power-of-two bucketing: bucket k holds
// samples of bit length k, bucket 0 holds zeros.
func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 1024} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 1030 {
		t.Fatalf("count/sum = %d/%d, want 5/1030", h.Count(), h.Sum())
	}
	b := h.Buckets()
	for bit, want := range map[int]uint64{0: 1, 1: 1, 2: 2, 11: 1} {
		if b[bit] != want {
			t.Errorf("bucket %d = %d, want %d", bit, b[bit], want)
		}
	}
}

// TestMSToCycles pins the ms→cycle conversion the Figure 6 cross-check
// depends on.
func TestMSToCycles(t *testing.T) {
	for ms, want := range map[float64]uint64{
		0:      0,
		-1:     0,
		0.001:  1200,
		1:      1_200_000,
		1.5:    1_800_000,
		2287.1: 2_744_520_000, // Fig. 6 DPI launch total
	} {
		if got := MSToCycles(ms); got != want {
			t.Errorf("MSToCycles(%v) = %d, want %d", ms, got, want)
		}
	}
}

// TestClock: Tick returns the interval's start and advances by its
// duration, the shape span emission uses.
func TestClock(t *testing.T) {
	var c Clock
	if start := c.Tick(100); start != 0 {
		t.Fatalf("first Tick start = %d, want 0", start)
	}
	if start := c.Tick(50); start != 100 {
		t.Fatalf("second Tick start = %d, want 100", start)
	}
	if now := c.Tick(0); now != 150 {
		t.Fatalf("Tick(0) = %d, want 150", now)
	}
}

// TestDumpWorkerInvariance is the layer's core promise in miniature:
// two registries fed the same aggregate writes under different
// interleavings and registration orders render byte-identical dumps.
func TestDumpWorkerInvariance(t *testing.T) {
	labels := []Label{
		{Device: "nic0", Owner: "nf0", Component: "cache/L2", Name: "hits"},
		{Device: "nic0", Owner: "nf1", Component: "cache/L2", Name: "hits"},
		{Device: "nic1", Owner: "-", Component: "bus", Name: "grants"},
	}
	serial := NewRegistry()
	for i, l := range labels {
		serial.Counter(l).Add(uint64(100 * (i + 1)))
		serial.Histogram(l).Observe(uint64(i) * 7)
		serial.Gauge(l).Set(int64(i))
	}
	concurrent := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Reverse label order, interleaved increments.
			for i := len(labels) - 1; i >= 0; i-- {
				l := labels[i]
				for n := 0; n < 100*(i+1)/8; n++ {
					concurrent.Counter(l).Inc()
				}
				concurrent.Gauge(l).Set(int64(i))
			}
		}(w)
	}
	wg.Wait()
	for i, l := range labels {
		concurrent.Counter(l).Add(uint64(100 * (i + 1) % 8)) // remainder of the split
		concurrent.Histogram(l).Observe(uint64(i) * 7)
	}
	if a, b := serial.DumpMetrics(), concurrent.DumpMetrics(); a != b {
		t.Fatalf("dumps diverge across interleavings\n--- serial ---\n%s--- concurrent ---\n%s", a, b)
	}
}

// TestWallFake: the quarantined wall-clock collector is injectable, so
// engine timing tests can be deterministic.
func TestWallFake(t *testing.T) {
	w := NewWall(fakeClock(10))
	t0 := w.Start()
	if d := w.Since(t0); d != 10e6 { // one 10ms step between the two reads
		t.Fatalf("Since = %v, want 10ms", d)
	}
}
