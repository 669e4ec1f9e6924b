package exp

import (
	"strings"
	"testing"

	"snic/internal/nf"
)

func TestStaticTables(t *testing.T) {
	for _, tbl := range []Table{Table2(), Table3(), Table4(), TCO(), Headline()} {
		if len(tbl.Rows) == 0 || !strings.Contains(tbl.String(), "==") {
			t.Fatalf("table %q empty or unrendered", tbl.Title)
		}
	}
}

func TestTable5(t *testing.T) {
	tbl, err := new(Runner).Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// The published per-setting entry maxima, plus the 4KB ablation:
	// Monitor's 357MB at 4KB pages needs ~91.5k entries — three orders
	// of magnitude past any feasible locked TLB.
	wants := []string{"183 x 48", "51 x 48", "13 x 48", "92297 x 48"}
	for i, w := range wants {
		if tbl.Rows[i][1] != w {
			t.Fatalf("row %d entries = %q, want %q", i, tbl.Rows[i][1], w)
		}
	}
}

func TestProfileAndTables68(t *testing.T) {
	profiles, err := new(Runner).ProfileNFs(nf.TestScale(3), 2000, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 6 {
		t.Fatalf("%d profiles", len(profiles))
	}
	for _, p := range profiles {
		if p.Measured.Total() == 0 || p.Equal == 0 {
			t.Fatalf("%s: empty profile", p.Name)
		}
		if p.MUR <= 0 || p.MUR > 1.0001 {
			t.Fatalf("%s: MUR = %v", p.Name, p.MUR)
		}
		if p.FlexHigh > p.Equal {
			t.Fatalf("%s: big pages need more entries than 2MB-only?", p.Name)
		}
	}
	if Table6(profiles).String() == "" || Table8(profiles).String() == "" {
		t.Fatal("render failed")
	}
	// Monitor and NAT resize-heavy structures must show MUR < 1.
	for _, p := range profiles {
		if p.Name == "Mon" && p.MUR >= 0.999 {
			t.Fatalf("Monitor MUR = %v, expected waste from resize spikes", p.MUR)
		}
	}
}

func TestTable7PaperEntries(t *testing.T) {
	tbl, err := new(Runner).Table7(0)
	if err != nil {
		t.Fatal(err)
	}
	wants := map[string]string{"DPI": "54", "ZIP": "70", "RAID": "5"}
	for _, row := range tbl.Rows {
		if w := wants[row[0]]; w != row[2] {
			t.Fatalf("%s entries = %s, want %s", row[0], row[2], w)
		}
	}
}

func smallFig5() Fig5Config {
	return Fig5Config{
		PoolFlows:    2000,
		WarmupInstr:  6000,
		MeasureInstr: 20000,
		Colocations:  2,
		Seed:         11,
		Suite:        nf.TestScale(11),
	}
}

func TestFigure5aShape(t *testing.T) {
	rows, err := new(Runner).Figure5a(smallFig5(), []uint64{64 << 10, 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 { // 6 NFs x 2 sizes
		t.Fatalf("%d rows", len(rows))
	}
	small, _ := MedianAcrossNFs(rows, "64KB")
	big, _ := MedianAcrossNFs(rows, "4MB")
	// Degradation must shrink as the cache grows (Figure 5a's shape).
	if big > small+0.5 {
		t.Fatalf("degradation grew with cache size: 64KB=%.2f%% 4MB=%.2f%%", small, big)
	}
	// At 4MB with 2 NFs the paper reports ~0.24% median: ours must be small.
	if big > 3 {
		t.Fatalf("4MB/2NF degradation = %.2f%%, want small", big)
	}
	if RenderFig5("fig5a", rows).String() == "" {
		t.Fatal("render failed")
	}
}

func TestFigure5bShape(t *testing.T) {
	rows, err := new(Runner).Figure5b(smallFig5(), []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	two, _ := MedianAcrossNFs(rows, "2 NFs")
	eight, _ := MedianAcrossNFs(rows, "8 NFs")
	if eight < two {
		t.Fatalf("degradation fell with co-tenancy: 2NF=%.2f%% 8NF=%.2f%%", two, eight)
	}
}

func TestFigure6Breakdown(t *testing.T) {
	rows, err := new(Runner).Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]Fig6Row{}
	for _, r := range rows {
		byName[r.NF] = r
		// SHA digesting dominates launch; scrubbing dominates destroy.
		if r.LaunchSHAMS < 10*r.LaunchTLBMS {
			t.Fatalf("%s: SHA %.3fms does not dominate launch", r.NF, r.LaunchSHAMS)
		}
		if r.DestroyScrub < 10*r.DestroyAllow {
			t.Fatalf("%s: scrub %.3fms does not dominate destroy", r.NF, r.DestroyScrub)
		}
		if r.AttestMS < 5 || r.AttestMS > 7 {
			t.Fatalf("%s: attest %.2fms", r.NF, r.AttestMS)
		}
	}
	// Paper: LB digests in ~29.6ms, Monitor in ~763.5ms.
	if lb := byName["LB"].LaunchSHAMS; lb < 26 || lb > 34 {
		t.Fatalf("LB SHA = %.1fms, want ~29.6", lb)
	}
	if mon := byName["Mon"].LaunchSHAMS; mon < 700 || mon > 830 {
		t.Fatalf("Mon SHA = %.1fms, want ~763", mon)
	}
	// Monitor destroy ~54ms.
	if s := byName["Mon"].DestroyScrub; s < 45 || s > 65 {
		t.Fatalf("Mon scrub = %.1fms, want ~54", s)
	}
	if RenderFig6(rows).String() == "" {
		t.Fatal("render failed")
	}
}

func TestFigure7GrowthAndSpikes(t *testing.T) {
	series, err := new(Runner).Figure7(20, 3000, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 40 {
		t.Fatalf("%d samples", len(series))
	}
	if series[len(series)-1].LiveMB <= series[0].LiveMB {
		t.Fatal("no growth")
	}
	if RenderFig7(series).String() == "" {
		t.Fatal("render failed")
	}
}

func TestFigure8Shape(t *testing.T) {
	rows, err := new(Runner).Figure8(1500)
	if err != nil {
		t.Fatal(err)
	}
	get := func(threads, frame int) float64 {
		for _, r := range rows {
			if r.Threads == threads && r.FrameBytes == frame {
				return r.Mpps
			}
		}
		t.Fatalf("missing %d/%d", threads, frame)
		return 0
	}
	// pps falls with frame size; threads help large frames strongly.
	if get(16, 64) <= get(16, 9216) {
		t.Fatal("64B not faster than 9KB")
	}
	if get(48, 9216) < 2.5*get(16, 9216) {
		t.Fatal("9KB frames not thread-scalable")
	}
	if get(48, 64) > 1.4*get(16, 64) {
		t.Fatal("64B frames should be dispatcher-bound")
	}
	if RenderFig8(rows).String() == "" {
		t.Fatal("render failed")
	}
}

func TestRenderFormats(t *testing.T) {
	tbl := Table2()
	for _, f := range []Format{Text, CSV, JSON} {
		s, err := tbl.Render(f)
		if err != nil || s == "" {
			t.Fatalf("format %d: %q, %v", int(f), s, err)
		}
	}
	csvOut, _ := tbl.Render(CSV)
	if !strings.Contains(csvOut, "48-core") {
		t.Fatal("CSV missing header")
	}
	jsonOut, _ := tbl.Render(JSON)
	if !strings.Contains(jsonOut, "\"title\"") {
		t.Fatal("JSON missing title")
	}
	if _, err := ParseFormat("yaml"); err == nil {
		t.Fatal("unknown format accepted")
	}
	for _, name := range []string{"", "text", "CSV", "json"} {
		if _, err := ParseFormat(name); err != nil {
			t.Fatalf("ParseFormat(%q): %v", name, err)
		}
	}
}

func TestMedianAcrossNFsEmpty(t *testing.T) {
	if m, p := MedianAcrossNFs(nil, "nope"); m != 0 || p != 0 {
		t.Fatal("empty rows should yield zeros")
	}
}

func TestFigure7DefaultSamples(t *testing.T) {
	series, err := new(Runner).Figure7(1, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 150 {
		t.Fatalf("default samples = %d", len(series))
	}
}

func TestFigure8DefaultRequests(t *testing.T) {
	if rows, err := new(Runner).Figure8(0); err != nil || len(rows) != 12 {
		t.Fatalf("rows = %d, err = %v", len(rows), err)
	}
}

func TestThroughputHeadline(t *testing.T) {
	med, p99, err := new(Runner).ThroughputHeadline(smallFig5())
	if err != nil {
		t.Fatal(err)
	}
	if med < 0 || p99 < med {
		t.Fatalf("headline med=%v p99=%v", med, p99)
	}
	// The claim's scale: single-digit percent at 4 NFs / 4MB.
	if p99 > 15 {
		t.Fatalf("p99 degradation %.1f%% is far off the paper's <1.7%% regime", p99)
	}
}
