package obs

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// promTestRegistry builds a registry exercising every exposition
// feature: counters, gauges, a multi-bucket histogram, label
// characters needing name-mapping, and a truncated flight-recorder
// track.
func promTestRegistry() *Registry {
	r := NewRegistry()
	r.SetTraceCapacity(2)
	r.Counter(Label{Device: "nic0", Owner: "nf0", Component: "cache/L2", Name: "hits"}).Add(100)
	r.Counter(Label{Device: "nic0", Owner: "nf1", Component: "cache/L2", Name: "hits"}).Add(7)
	r.Gauge(Label{Device: "nic0", Owner: "-", Component: "snic", Name: "live_nfs"}).Set(2)
	h := r.Histogram(Label{Device: "nic0", Owner: "nf0", Component: "pktio", Name: "frame_bytes"})
	for _, v := range []uint64{0, 64, 64, 1500, 9000} {
		h.Observe(v)
	}
	fill(r.Tracer("fig6/FW"), 0, 5)
	return r
}

// TestPromTextGolden pins the exposition rendering byte-for-byte.
func TestPromTextGolden(t *testing.T) {
	got := promTestRegistry().PromText()
	goldenPath := filepath.Join("testdata", "prom.golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("PromText diverges from golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestPromTextValidates: the renderer's output passes the in-repo
// exposition validator — the same check cmd/snicd's TestServeTelemetry
// runs against a live daemon.
func TestPromTextValidates(t *testing.T) {
	out := promTestRegistry().PromText()
	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("PromText fails own validator: %v\n%s", err, out)
	}
	if (*Registry)(nil).PromText() != "" {
		t.Fatal("nil registry rendered output")
	}
}

// TestPromTextStable: like the dump, the exposition must be
// byte-identical regardless of registration order and write
// interleaving.
func TestPromTextStable(t *testing.T) {
	serial := promTestRegistry()
	concurrent := NewRegistry()
	concurrent.SetTraceCapacity(2)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			concurrent.Counter(Label{Device: "nic0", Owner: "nf0", Component: "cache/L2", Name: "hits"}).Add(25)
			if w == 0 {
				concurrent.Counter(Label{Device: "nic0", Owner: "nf1", Component: "cache/L2", Name: "hits"}).Add(7)
				concurrent.Gauge(Label{Device: "nic0", Owner: "-", Component: "snic", Name: "live_nfs"}).Set(2)
				h := concurrent.Histogram(Label{Device: "nic0", Owner: "nf0", Component: "pktio", Name: "frame_bytes"})
				for _, v := range []uint64{0, 64, 64, 1500, 9000} {
					h.Observe(v)
				}
				fill(concurrent.Tracer("fig6/FW"), 0, 5)
			}
		}(w)
	}
	wg.Wait()
	if a, b := serial.PromText(), concurrent.PromText(); a != b {
		t.Fatalf("exposition diverges across interleavings\n--- serial ---\n%s--- concurrent ---\n%s", a, b)
	}
}

// TestValidateExposition is the table of malformed payloads the
// validator must reject (and well-formed ones it must accept) — the
// stdlib stand-in for promtool.
func TestValidateExposition(t *testing.T) {
	for _, tc := range []struct {
		name    string
		in      string
		wantErr string // "" = must validate
	}{
		{"minimal counter", "# TYPE x_total counter\nx_total{a=\"b\"} 1\n", ""},
		{"no labels", "# TYPE x gauge\nx 1.5\n", ""},
		{"timestamp", "# TYPE x gauge\nx 2 1700000000\n", ""},
		{"escapes", "# TYPE x gauge\nx{a=\"q\\\"u\\\\o\\nte\"} 1\n", ""},
		{"untyped series", "x 1\n", "no preceding # TYPE"},
		{"bad name", "# TYPE 9x gauge\n", "malformed TYPE"},
		{"bad type", "# TYPE x widget\n", "unknown metric type"},
		{"duplicate type", "# TYPE x gauge\n# TYPE x gauge\n", "duplicate TYPE"},
		{"bad value", "# TYPE x gauge\nx notafloat\n", "bad value"},
		{"no value", "# TYPE x gauge\nx\n", "no value"},
		{"unterminated labels", "# TYPE x gauge\nx{a=\"b\" 1\n", "label"},
		{"unclosed block", "# TYPE x gauge\nx{a=\"b\",\n", "unterminated label block"},
		{"unquoted label", "# TYPE x gauge\nx{a=b} 1\n", "not quoted"},
		{"duplicate label", "# TYPE x gauge\nx{a=\"1\",a=\"2\"} 1\n", "duplicate label"},
		{"bad escape", "# TYPE x gauge\nx{a=\"\\t\"} 1\n", "bad escape"},
		{"colon label", "# TYPE x gauge\nx{a:b=\"1\"} 1\n", "invalid label name"},
		{"duplicate series", "# TYPE x gauge\nx{a=\"1\"} 1\nx{a=\"1\"} 2\n", "duplicate series"},
		{
			"label order insensitive dup",
			"# TYPE x gauge\nx{a=\"1\",b=\"2\"} 1\nx{b=\"2\",a=\"1\"} 2\n",
			"duplicate series",
		},
		{
			"histogram ok",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n",
			"",
		},
		{
			"histogram not cumulative",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"3\"} 2\nh_bucket{le=\"+Inf\"} 5\nh_count 5\n",
			"not cumulative",
		},
		{
			"histogram missing inf",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_count 5\n",
			"+Inf",
		},
		{
			"histogram count mismatch",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_count 5\n",
			"!= _count",
		},
	} {
		err := ValidateExposition(strings.NewReader(tc.in))
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: rejected valid payload: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted %q", tc.name, tc.in)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestHistQuantile: the interpolated estimate lands inside the right
// bucket and hits exact values on degenerate shapes.
func TestHistQuantile(t *testing.T) {
	var empty [histBuckets]uint64
	if q := HistQuantile(empty, 0.5); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
	var zeros [histBuckets]uint64
	zeros[0] = 10 // ten zero samples
	if q := HistQuantile(zeros, 0.99); q != 0 {
		t.Fatalf("all-zero quantile = %v, want 0", q)
	}
	// 100 samples in bucket 7 ([64,127]): every quantile stays in range.
	var one [histBuckets]uint64
	one[7] = 100
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		v := HistQuantile(one, q)
		if v < 64 || v > 127 {
			t.Errorf("q=%v → %v, want within [64,127]", q, v)
		}
	}
	// 90 small + 10 large: p50 in the small bucket, p99 in the large.
	var split [histBuckets]uint64
	split[3] = 90  // [4,7]
	split[11] = 10 // [1024,2047]
	if v := HistQuantile(split, 0.5); v < 4 || v > 7 {
		t.Errorf("p50 = %v, want within [4,7]", v)
	}
	if v := HistQuantile(split, 0.99); v < 1024 || v > 2047 {
		t.Errorf("p99 = %v, want within [1024,2047]", v)
	}
	if v := HistQuantile(split, 0.5); HistQuantile(split, 0.9) < v {
		t.Error("quantiles not monotone")
	}
}

// TestHistSummaries: summaries reconstructed from a dump match the
// histogram they came from.
func TestHistSummaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(Label{Device: "nic0", Owner: "nf0", Component: "pktio", Name: "frame_bytes"})
	for i := 0; i < 90; i++ {
		h.Observe(64)
	}
	for i := 0; i < 10; i++ {
		h.Observe(9000)
	}
	r.Counter(Label{Device: "nic0", Owner: "-", Component: "snic", Name: "noise"}).Inc()
	dump, err := ParseDump(strings.NewReader(r.DumpMetrics()))
	if err != nil {
		t.Fatal(err)
	}
	sums := HistSummaries(dump)
	if len(sums) != 1 {
		t.Fatalf("got %d summaries, want 1: %+v", len(sums), sums)
	}
	s := sums[0]
	if s.Series != "nic0 nf0 pktio frame_bytes" {
		t.Fatalf("series = %q", s.Series)
	}
	if s.Count != 100 || s.Sum != 90*64+10*9000 {
		t.Fatalf("count/sum = %d/%d", s.Count, s.Sum)
	}
	if s.P50 < 64 || s.P50 > 127 {
		t.Errorf("p50 = %v, want in [64,127]", s.P50)
	}
	if s.P99 < 8192 || s.P99 > 16383 {
		t.Errorf("p99 = %v, want in [8192,16383]", s.P99)
	}
	if math.IsNaN(s.P90) {
		t.Error("p90 is NaN")
	}
}
