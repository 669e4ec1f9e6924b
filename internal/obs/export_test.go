package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// populate fills a registry with two tracks; order controls which track
// is interned first, which must not show in exports.
func populate(r *Registry, reverse bool) {
	tracks := []string{"fig6/DPI", "fig6/FW"}
	if reverse {
		tracks = []string{"fig6/FW", "fig6/DPI"}
	}
	for _, name := range tracks {
		tr := r.Tracer(name)
		var clk Clock
		tr.Span("snic", "launch/tlb_setup", clk.Tick(1200), 1200)
		tr.Span("snic", "launch/sha_digest", clk.Tick(4800), 4800)
		tr.Event("snic", "nf_live", clk.Tick(0))
	}
}

// TestChromeTraceRoundTrip: the export is valid JSON in the Chrome
// trace-event schema — json.Unmarshal recovers every span and instant
// with its cycle stamps — and is byte-identical regardless of the order
// tracks were interned in.
func TestChromeTraceRoundTrip(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	populate(a, false)
	populate(b, true)
	dataA, err := a.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	dataB, err := b.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dataA, dataB) {
		t.Fatal("trace bytes depend on track interning order")
	}

	var tf TraceFile
	if err := json.Unmarshal(dataA, &tf); err != nil {
		t.Fatalf("export is not valid trace-event JSON: %v", err)
	}
	if tf.OtherData["format"] != "snic-trace v1" {
		t.Fatalf("otherData.format = %q", tf.OtherData["format"])
	}
	// Two tracks × (1 metadata + 2 spans + 1 instant).
	if len(tf.TraceEvents) != 8 {
		t.Fatalf("got %d events, want 8", len(tf.TraceEvents))
	}
	// Tracks export in name order: DPI before FW.
	meta := tf.TraceEvents[0]
	if meta.Ph != "M" || meta.PID != 1 || meta.Args["name"] != "fig6/DPI" {
		t.Fatalf("first event = %+v, want pid-1 process_name fig6/DPI", meta)
	}
	span := tf.TraceEvents[1]
	if span.Ph != "X" || span.Name != "launch/tlb_setup" || span.Cat != "snic" ||
		span.TS != 0 || span.Dur != 1200 || span.PID != 1 || span.TID != 1 {
		t.Fatalf("first span = %+v", span)
	}
	instant := tf.TraceEvents[3]
	if instant.Ph != "i" || instant.S != "t" || instant.TS != 6000 || instant.Dur != 0 {
		t.Fatalf("instant = %+v", instant)
	}
	if tf.TraceEvents[4].Args["name"] != "fig6/FW" || tf.TraceEvents[4].PID != 2 {
		t.Fatalf("second track metadata = %+v", tf.TraceEvents[4])
	}
}

// TestTraceText pins the plain-text rendering byte for byte.
func TestTraceText(t *testing.T) {
	r := NewRegistry()
	tr := r.Tracer("fig6/FW")
	tr.Span("snic", "launch/denylist", 100, 250)
	tr.Event("snic", "nf_live", 350)
	want := "# snic-trace v1\n" +
		"track fig6/FW\n" +
		"  [        100 +     250] snic launch/denylist\n" +
		"  @        350           snic nf_live\n"
	if got := r.TraceText(); got != want {
		t.Fatalf("TraceText:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
