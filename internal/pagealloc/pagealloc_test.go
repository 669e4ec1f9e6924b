package pagealloc

import (
	"testing"
	"testing/quick"
)

// mbf converts a (possibly fractional) MB count to bytes.
func mbf(mb float64) uint64 { return uint64(mb * float64(uint64(1)<<20)) }

func TestValidate(t *testing.T) {
	cases := []struct {
		ps PageSet
		ok bool
	}{
		{Equal, true},
		{FlexLow, true},
		{FlexHigh, true},
		{PageSet{}, false},
		{PageSet{0}, false},
		{PageSet{2 * MB, 2 * MB}, false},
		{PageSet{2 * MB, 128 * KB}, false},   // not ascending
		{PageSet{128 * KB, 192 * KB}, false}, // 192K not multiple of 128K
		{PageSet{4 * KB, 2 * MB, 1 << 30}, true},
	}
	for _, c := range cases {
		err := c.ps.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%v) err=%v, want ok=%v", c.ps, err, c.ok)
		}
	}
}

func TestPlanSegmentZero(t *testing.T) {
	p, err := PlanSegment(0, Equal)
	if err != nil || p.Entries != 0 || p.Allocated != 0 {
		t.Fatalf("zero segment: %+v err=%v", p, err)
	}
}

func TestPlanSegmentEqualPages(t *testing.T) {
	// 13.75 MB under 2MB-only pages needs ceil(13.75/2)=7 entries.
	p, err := PlanSegment(13*MB+768*KB, Equal)
	if err != nil {
		t.Fatal(err)
	}
	if p.Entries != 7 || p.Allocated != 14*MB {
		t.Fatalf("plan = %+v", p)
	}
}

func TestPlanSegmentGreedyMix(t *testing.T) {
	// 357.15 MB under {2,32,128} MB: alloc 358 MB = 2x128 + 3x32 + 3x2 = 8 entries.
	used := mbf(357.15)
	p, err := PlanSegment(used, FlexHigh)
	if err != nil {
		t.Fatal(err)
	}
	if p.Entries != 8 {
		t.Fatalf("entries = %d, want 8 (plan %+v)", p.Entries, p.Pages)
	}
	if p.Allocated != 358*MB {
		t.Fatalf("allocated = %d", p.Allocated)
	}
}

// The paper's Table 6 numbers, recomputed from its own memory profiles.
// Segment sizes are the paper's published MB values.
func paperSegs(text, data, code, heap float64) []uint64 {
	return []uint64{mbf(text), mbf(data), mbf(code), mbf(heap)}
}

func TestTable6EntryCounts(t *testing.T) {
	cases := []struct {
		name                     string
		segs                     []uint64
		equal, flexLow, flexHigh int
	}{
		{"FW", paperSegs(0.87, 0.08, 2.50, 13.75), 11, 34, 11},
		{"DPI", paperSegs(1.34, 0.56, 2.59, 46.65), 28, 51, 13},
		{"NAT", paperSegs(0.86, 0.05, 2.49, 40.48), 25, 37, 10},
		{"LB", paperSegs(0.86, 0.05, 2.49, 10.40), 10, 22, 10},
		{"LPM", paperSegs(0.86, 0.06, 2.51, 64.90), 37, 23, 7},
		{"Mon", paperSegs(0.85, 0.05, 2.48, 357.15), 183, 46, 12},
	}
	for _, c := range cases {
		for _, cfg := range []struct {
			ps   PageSet
			want int
		}{{Equal, c.equal}, {FlexLow, c.flexLow}, {FlexHigh, c.flexHigh}} {
			got, err := EntriesFor(c.segs, cfg.ps)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			// The paper reports sizes rounded to 0.01 MB, so allow ±1 entry
			// of rounding slack on the small-page settings.
			slack := 0
			if len(cfg.ps) > 1 {
				slack = 1
			}
			if diff := got - cfg.want; diff < -slack || diff > slack {
				t.Errorf("%s under %v: entries = %d, want %d", c.name, cfg.ps, got, cfg.want)
			}
		}
	}
}

func TestTable7AcceleratorEntries(t *testing.T) {
	// Each accelerator buffer is a separate mapping; 2MB pages (§5.2).
	dpi := []uint64{256 * KB, 128 * KB, 2 * MB, 2 * MB, 256 * KB, mbf(97.28)}
	zip := []uint64{64 * KB, 128 * KB, 2 * MB, 24 * KB, 2 * MB, 128 * MB, 32 * KB}
	raid := []uint64{4 * MB, 128 * KB, 2 * MB, 2 * MB}
	for _, c := range []struct {
		name string
		segs []uint64
		want int
	}{{"DPI", dpi, 54}, {"ZIP", zip, 70}, {"RAID", raid, 5}} {
		got, err := EntriesFor(c.segs, Equal)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s accelerator: entries = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestVPPAndDMAEntries(t *testing.T) {
	// VPP: PB 2MB + PDB 128KB + ODB 1MB => 3 entries (§5.2).
	if got, _ := EntriesFor([]uint64{2 * MB, 128 * KB, 1 * MB}, Equal); got != 3 {
		t.Errorf("VPP entries = %d, want 3", got)
	}
	// DMA: PB 2MB + IQ 256KB => 2 entries.
	if got, _ := EntriesFor([]uint64{2 * MB, 256 * KB}, Equal); got != 2 {
		t.Errorf("DMA entries = %d, want 2", got)
	}
}

func TestWasteIsMinimal(t *testing.T) {
	// The plan must never waste a full base page.
	f := func(raw uint32) bool {
		used := uint64(raw)%(512*MB) + 1
		for _, ps := range []PageSet{Equal, FlexLow, FlexHigh} {
			p, err := PlanSegment(used, ps)
			if err != nil {
				return false
			}
			if p.Allocated-p.Used >= ps[0] {
				return false
			}
			if p.Allocated < used {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEntriesNeverWorseThanBasePages(t *testing.T) {
	// Using more page sizes must never need more entries than base-only.
	f := func(raw uint32) bool {
		used := uint64(raw)%(512*MB) + 1
		flex, err := PlanSegment(used, FlexLow)
		if err != nil {
			return false
		}
		baseOnly, err := PlanSegment(used, PageSet{FlexLow[0]})
		if err != nil {
			return false
		}
		return flex.Entries <= baseOnly.Entries
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEntriesForSums(t *testing.T) {
	// 1 MB and 3 MB segments take one and two 2 MB pages: each segment is
	// covered on its own, where one 4 MB region would take two.
	n, err := EntriesFor([]uint64{MB, 3 * MB}, Equal)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("entries = %d, want 3", n)
	}
}
