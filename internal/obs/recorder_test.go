package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// fill appends n spans to track with start cycles base, base+1, ... so
// retention tests can tell exactly which records survived.
func fill(tr *Tracer, base, n int) {
	for i := 0; i < n; i++ {
		tr.Span("c", fmt.Sprintf("s%03d", base+i), uint64(base+i), 1)
	}
}

// TestRecorderKeepLastN: a capacity-n track retains exactly its n most
// recent records in append order and counts every eviction.
func TestRecorderKeepLastN(t *testing.T) {
	r := NewRegistry()
	r.SetTraceCapacity(4)
	tr := r.Tracer("ring")
	fill(tr, 0, 10)
	recs := tr.Records()
	if len(recs) != 4 {
		t.Fatalf("retained %d records, want 4", len(recs))
	}
	for i, rec := range recs {
		if want := fmt.Sprintf("s%03d", 6+i); rec.Name != want {
			t.Errorf("record %d = %s, want %s", i, rec.Name, want)
		}
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
}

// TestRecorderBelowCapacity: a track that never exceeds capacity is
// indistinguishable from an unbounded one — same records, zero dropped,
// byte-identical exports.
func TestRecorderBelowCapacity(t *testing.T) {
	bounded, unbounded := NewRegistry(), NewRegistry()
	bounded.SetTraceCapacity(16)
	for _, r := range []*Registry{bounded, unbounded} {
		fill(r.Tracer("a"), 0, 8)
		fill(r.Tracer("b"), 100, 16)
		r.Counter(Label{Device: "d", Name: "n"}).Add(3)
	}
	if bounded.Tracer("a").Dropped() != 0 || bounded.Tracer("b").Dropped() != 0 {
		t.Fatal("dropped nonzero below capacity")
	}
	if a, b := bounded.TraceText(), unbounded.TraceText(); a != b {
		t.Fatalf("TraceText diverges below capacity\n--- bounded ---\n%s--- unbounded ---\n%s", a, b)
	}
	bc, err := bounded.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	uc, err := unbounded.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if string(bc) != string(uc) {
		t.Fatal("ChromeTrace diverges below capacity")
	}
	if a, b := bounded.DumpMetrics(), unbounded.DumpMetrics(); a != b {
		t.Fatalf("DumpMetrics diverges below capacity\n%s\nvs\n%s", a, b)
	}
}

// TestRecorderCapacityPinned: memory is bounded — after an arbitrarily
// long append stream the track holds at most cap records.
func TestRecorderCapacityPinned(t *testing.T) {
	r := NewRegistry()
	r.SetTraceCapacity(32)
	tr := r.Tracer("long")
	fill(tr, 0, 100_000)
	if got := len(tr.Records()); got > 32 {
		t.Fatalf("retained %d records, capacity 32", got)
	}
	if tr.Dropped() != 100_000-32 {
		t.Fatalf("dropped = %d, want %d", tr.Dropped(), 100_000-32)
	}
}

// TestRecorderTruncationVisible: a truncated track announces itself in
// all three exports — the TraceText header, the ChromeTrace metadata,
// and a dropped_spans counter in the metric dump.
func TestRecorderTruncationVisible(t *testing.T) {
	r := NewRegistry()
	r.SetTraceCapacity(2)
	fill(r.Tracer("hot"), 0, 5)
	fill(r.Tracer("cold"), 0, 2)
	txt := r.TraceText()
	if !strings.Contains(txt, "track hot (flight recorder dropped 3)\n") {
		t.Fatalf("TraceText missing truncation note:\n%s", txt)
	}
	if !strings.Contains(txt, "track cold\n") {
		t.Fatalf("untruncated track gained an annotation:\n%s", txt)
	}
	ct, err := r.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(ct), `"dropped_spans": "3"`) {
		t.Fatalf("ChromeTrace missing dropped_spans metadata:\n%s", ct)
	}
	dump := r.DumpMetrics()
	if !strings.Contains(dump, "counter trace - hot dropped_spans 3\n") {
		t.Fatalf("dump missing dropped_spans counter:\n%s", dump)
	}
	if strings.Contains(dump, "counter trace - cold") {
		t.Fatalf("untruncated track emitted a dropped_spans counter:\n%s", dump)
	}
	// The dump round-trips through its own parser.
	if _, err := ParseDump(strings.NewReader(dump)); err != nil {
		t.Fatalf("truncated dump does not parse: %v", err)
	}
}

// TestSetCapacityTrimsExisting: lowering capacity on a populated track
// evicts the oldest records immediately and counts them.
func TestSetCapacityTrimsExisting(t *testing.T) {
	r := NewRegistry()
	tr := r.Tracer("late")
	fill(tr, 0, 10)
	r.SetTraceCapacity(3)
	recs := tr.Records()
	if len(recs) != 3 || recs[0].Name != "s007" || recs[2].Name != "s009" {
		t.Fatalf("after trim: %+v", recs)
	}
	if tr.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", tr.Dropped())
	}
	// New tracers interned after the call inherit the capacity.
	fresh := r.Tracer("fresh")
	fill(fresh, 0, 10)
	if got := len(fresh.Records()); got != 3 {
		t.Fatalf("fresh tracer retained %d, want 3", got)
	}
	// Zero restores unbounded collection (retained records survive).
	r.SetTraceCapacity(0)
	fill(tr, 100, 10)
	if got := len(tr.Records()); got != 13 {
		t.Fatalf("after unbounding retained %d, want 13", got)
	}
}

// TestRecordsIsACopy: mutating the returned slice must not corrupt the
// tracer's retained records.
func TestRecordsIsACopy(t *testing.T) {
	r := NewRegistry()
	tr := r.Tracer("copy")
	fill(tr, 0, 3)
	got := tr.Records()
	got[0].Name = "mutated"
	if again := tr.Records(); again[0].Name != "s000" {
		t.Fatalf("Records leaked internal storage: %+v", again)
	}
}

// TestRecordsOrdering pins the documented guarantee: cycle stamp first,
// insertion order second (stable for ties).
func TestRecordsOrdering(t *testing.T) {
	r := NewRegistry()
	tr := r.Tracer("order")
	tr.Span("c", "late", 50, 1)
	tr.Event("c", "tie-a", 10)
	tr.Event("c", "tie-b", 10)
	tr.Span("c", "early", 5, 1)
	var names []string
	for _, rec := range tr.Records() {
		names = append(names, rec.Name)
	}
	want := "early tie-a tie-b late"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
}

// TestConcurrentSpanRecords is the -race regression for the reader APIs:
// readers (Records, Dropped, exports) race against writers on the same
// track and the run must be clean.
func TestConcurrentSpanRecords(t *testing.T) {
	r := NewRegistry()
	r.SetTraceCapacity(64)
	tr := r.Tracer("race")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Span("c", "s", uint64(i), 1)
				tr.Event("c", "e", uint64(i))
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = tr.Records()
				_ = tr.Dropped()
				_ = r.TraceText()
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Records()); got > 64 {
		t.Fatalf("retained %d, capacity 64", got)
	}
	total := uint64(len(tr.Records())) + tr.Dropped()
	if total != 4*500*2 {
		t.Fatalf("retained+dropped = %d, want %d", total, 4*500*2)
	}
}
