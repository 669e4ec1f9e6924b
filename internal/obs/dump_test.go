package obs

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestParseDumpRoundTrip: DumpMetrics → ParseDump is lossless for every
// metric kind, including histogram expansion.
func TestParseDumpRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter(Label{Device: "nic0", Owner: "nf0", Component: "tlb", Name: "fills"}).Add(42)
	r.Gauge(Label{Device: "nic0", Owner: "-", Component: "accel/DPI", Name: "bound_clusters"}).Set(-3)
	h := r.Histogram(Label{Device: "nic0", Owner: "nf0", Component: "pktio", Name: "frame_bytes"})
	h.Observe(64)
	h.Observe(1500)

	got, err := ParseDump(strings.NewReader(r.DumpMetrics()))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"counter nic0 nf0 tlb fills":                   42,
		"gauge nic0 - accel/DPI bound_clusters":        -3,
		"hist_count nic0 nf0 pktio frame_bytes":        2,
		"hist_sum nic0 nf0 pktio frame_bytes":          1564,
		"hist_bucket nic0 nf0 pktio frame_bytes/bit07": 1, // 64 → bit length 7
		"hist_bucket nic0 nf0 pktio frame_bytes/bit11": 1, // 1500 → bit length 11
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip = %v, want %v", got, want)
	}
}

// TestParseDumpErrors: snicstat exits 2 on malformed input rather than
// mis-diffing, so each malformation must be an error, and each error
// must name the offending line so a corrupted multi-megabyte dump is
// debuggable.
func TestParseDumpErrors(t *testing.T) {
	for _, tc := range []struct {
		name    string
		in      string
		wantErr string
	}{
		{"empty", "", "empty input"},
		{"bad header", "# not-metrics v9\ncounter a b c d 1\n", "bad header"},
		{"short line", "# snic-metrics v1\ncounter a b c 1\n", "line 2: want 6 fields"},
		{"long line", "# snic-metrics v1\ncounter a b c d 1 extra\n", "line 2: want 6 fields"},
		{"bad kind", "# snic-metrics v1\nhist a b c d 1\n", "line 2: unknown sample kind"},
		{"bad value", "# snic-metrics v1\ncounter a b c d xyz\n", "line 2: bad value"},
		{"float value", "# snic-metrics v1\ncounter a b c d 1.5\n", "line 2: bad value"},
		{"duplicate", "# snic-metrics v1\ncounter a b c d 1\n\ncounter a b c d 2\n", "line 4: duplicate series"},
		{"late error", "# snic-metrics v1\ncounter a b c d 1\ngauge a b c d 2\nbogus a b c d 3\n", "line 4: unknown sample kind"},
	} {
		_, err := ParseDump(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: ParseDump accepted %q", tc.name, tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
	// Comments and blank lines beyond the header are tolerated.
	ok := "# snic-metrics v1\n\n# a comment\ncounter a b c d 1\n"
	if m, err := ParseDump(strings.NewReader(ok)); err != nil || len(m) != 1 {
		t.Fatalf("ParseDump with comments = %v, %v", m, err)
	}
}

// FuzzParseDump feeds arbitrary text to ParseDump, the snicstat input
// boundary; its seed corpus is testdata/fuzz/FuzzParseDump. The parser
// must never panic, and any map it accepts must parse back unchanged
// from its own rendering: the header plus sorted "key value" lines.
func FuzzParseDump(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		m, err := ParseDump(strings.NewReader(in))
		if err != nil {
			return
		}
		var b strings.Builder
		b.WriteString(dumpHeader + "\n")
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %d\n", k, m[k])
		}
		back, err := ParseDump(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("rendering of an accepted dump rejected: %v\n%s", err, b.String())
		}
		if !maps.Equal(back, m) {
			t.Fatalf("round trip changed the dump: %v, want %v", back, m)
		}
	})
}

// TestDiffGolden pins the snicstat rendering: sorted union of series,
// "-" on missing sides, signed deltas, and the changed count. The
// golden covers -all mode; the focused mode must be its subset.
func TestDiffGolden(t *testing.T) {
	old := map[string]int64{
		"counter nic0 nf0 cache/L2 hits":   100,
		"counter nic0 nf0 cache/L2 misses": 7,
		"counter nic0 nf1 tlb fills":       3,
	}
	new := map[string]int64{
		"counter nic0 nf0 cache/L2 hits":   100,
		"counter nic0 nf0 cache/L2 misses": 12,
		"gauge nic0 - snic live_nfs":       2,
	}

	all, changedAll := Diff(old, new, true)
	focused, changed := Diff(old, new, false)
	if changedAll != changed || changed != 3 {
		t.Fatalf("changed = %d/%d, want 3 (miss delta, one removed, one added)", changedAll, changed)
	}
	for _, line := range strings.Split(strings.TrimSuffix(focused, "\n"), "\n")[1:] {
		if !strings.Contains(all, line) {
			t.Errorf("focused line %q missing from -all rendering", line)
		}
	}
	if strings.Contains(focused, "hits") {
		t.Error("focused diff rendered an unchanged series")
	}

	goldenPath := filepath.Join("testdata", "diff.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(all), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if all != string(want) {
		t.Errorf("diff rendering diverges from golden\n--- got ---\n%s--- want ---\n%s", all, want)
	}
}

// TestDiffIdentical: no differences renders no data rows and reports
// zero changed.
func TestDiffIdentical(t *testing.T) {
	m := map[string]int64{"counter a b c d": 1}
	out, changed := Diff(m, m, false)
	if changed != 0 {
		t.Fatalf("changed = %d, want 0", changed)
	}
	if lines := strings.Count(out, "\n"); lines != 1 {
		t.Fatalf("focused identical diff = %q, want header only", out)
	}
}
