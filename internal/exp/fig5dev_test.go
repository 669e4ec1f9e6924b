package exp

import (
	"testing"

	"snic/internal/bus"
	"snic/internal/cache"
	"snic/internal/device"
	"snic/internal/nf"
)

func TestFig5DevGolden(t *testing.T) {
	rows, err := Figure5Devices(smallFig5())
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "fig5dev", RenderFig5Dev(rows).String())
}

// TestFigure5DevicesShape checks the sweep covers every registered model
// and that the architecture story holds: commodity models measured
// against their own shared hardware show zero degradation, while S-NIC's
// partitioning cost is bounded (the paper's <1.7% headline is for 4 NFs;
// pairwise colocations stay in the same few-percent regime). The S-NIC
// rows are Figure 5a's 4 MB point: both run the one co-tenancy driver.
func TestFigure5DevicesShape(t *testing.T) {
	rows, err := Figure5Devices(smallFig5())
	if err != nil {
		t.Fatal(err)
	}
	models := device.Models()
	if len(rows) != len(models)*len(nf.Names) {
		t.Fatalf("%d rows, want %d models x %d NFs", len(rows), len(models), len(nf.Names))
	}
	perDevice := map[string][]Fig5DevRow{}
	for _, r := range rows {
		perDevice[r.Device] = append(perDevice[r.Device], r)
	}
	fig5a, err := Figure5a(smallFig5(), []uint64{4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(perDevice["snic"]) != len(fig5a) {
		t.Fatalf("%d snic rows, %d fig5a 4MB rows", len(perDevice["snic"]), len(fig5a))
	}
	for i, r := range perDevice["snic"] {
		a := fig5a[i]
		if r.NF != a.NF || r.Median != a.Median || r.P1 != a.P1 || r.P99 != a.P99 {
			t.Errorf("fig5dev snic row %+v differs from fig5a 4MB row %+v", r, a)
		}
	}
	for _, model := range models {
		dev, err := device.New(device.Spec{Model: model})
		if err != nil {
			t.Fatal(err)
		}
		// A model whose L2 policy and arbiter match the baseline runs the
		// identical simulation on both sides, so it must measure exactly 0.
		_, fifo := dev.NewBusArbiter(2).(*bus.FIFO)
		commodity := dev.CachePolicy() == cache.Shared && fifo
		for _, r := range perDevice[model] {
			if commodity && (r.Median != 0 || r.P99 != 0) {
				t.Errorf("%s/%s: commodity hardware vs itself should degrade 0%%, got median %.2f p99 %.2f",
					model, r.NF, r.Median, r.P99)
			}
			if r.P99 > 25 {
				t.Errorf("%s/%s: implausible degradation p99 %.2f%%", model, r.NF, r.P99)
			}
		}
	}
}
