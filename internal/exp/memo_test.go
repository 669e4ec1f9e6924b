package exp

import (
	"reflect"
	"strings"
	"testing"

	"snic/internal/bus"
	"snic/internal/cache"
	"snic/internal/device"
	"snic/internal/nf"
	"snic/internal/obs"
	"snic/internal/sim"
	"snic/internal/trace"
)

// TestIctfPoolForkMemoizesTemplate pins the ICTF template memoization:
// Figure 5 and the Table 6/8 profiling path build one PoolTemplate per
// (forkSeed, flows), every later pool instantiates from that cached
// template, so repeated sweeps (and benchmark iterations) never rebuild
// the flow set or Zipf CDF.
func TestIctfPoolForkMemoizesTemplate(t *testing.T) {
	const seed = 0xF0F0
	forkSeed := sim.NewRand(seed).ForkSeed()
	key := poolKey{seed: forkSeed, flows: 1234}

	tpl := ictfTemplate(forkSeed, 1234)
	cached := ictfMemo.Get(key, func() *trace.PoolTemplate {
		t.Fatal("first ictfTemplate did not populate the template cache")
		return nil
	})
	if cached != tpl {
		t.Fatal("the template cache holds another template than ictfTemplate returned")
	}
	if again := ictfTemplate(forkSeed, 1234); again != tpl {
		t.Fatal("second ictfTemplate rebuilt the template instead of reusing it")
	}

	// Keying by the forked seed must hand out exactly the template the
	// parent stream's Fork would have built.
	fresh := trace.NewICTFTemplate(sim.NewRand(seed).Fork(), 1234)
	if !reflect.DeepEqual(tpl, fresh) {
		t.Fatal("template keyed by NewRand(s).ForkSeed() differs from one built from NewRand(s).Fork()")
	}

	// Memoization must be invisible: two pools from the cached template
	// draw identically to a freshly built pool.
	a := ictfTemplate(forkSeed, 1234).Pool()
	b := ictfTemplate(forkSeed, 1234).Pool()
	c := fresh.Pool()
	for i := 0; i < 50; i++ {
		_, pa := a.NextPacket(64)
		_, pb := b.NextPacket(64)
		_, pc := c.NextPacket(64)
		if pa.Tuple != pb.Tuple || pa.Tuple != pc.Tuple {
			t.Fatalf("draw %d: cached-template pools diverged", i)
		}
	}
}

// fig5Suite runs fig5a, fig5b and fig5dev at small scale, each on the
// Runner that runner returns, the way snicbench runs them on one Runner.
func fig5Suite(t *testing.T, runner func() *Runner) ([]Fig5Row, []Fig5Row, []Fig5DevRow) {
	t.Helper()
	a, err := runner().Figure5a(smallFig5(), []uint64{64 << 10, 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runner().Figure5b(smallFig5(), []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := runner().Figure5Devices(smallFig5())
	if err != nil {
		t.Fatal(err)
	}
	return a, b, dev
}

// TestFig5MemoMatchesFreshRunners pins that the group memo is
// invisible: the three Figure 5 sweeps on one Runner, which reuse each
// other's groups, print exactly what each prints on a fresh Runner.
func TestFig5MemoMatchesFreshRunners(t *testing.T) {
	shared := &Runner{Workers: 2}
	a1, b1, d1 := fig5Suite(t, func() *Runner { return shared })
	a2, b2, d2 := fig5Suite(t, func() *Runner { return &Runner{Workers: 2} })
	if !reflect.DeepEqual(a1, a2) {
		t.Error("fig5a rows on a shared Runner differ from a fresh Runner's")
	}
	if !reflect.DeepEqual(b1, b2) {
		t.Error("fig5b rows on a shared Runner differ from a fresh Runner's")
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Error("fig5dev rows on a shared Runner differ from a fresh Runner's")
	}
}

// TestFig5MemoSharesFourMBGroups pins what the memo reuses: fig5a at
// 4MB leaves each ordered pair's baseline group plus one S-NIC solo run
// per target, and fig5b's "2 NFs" column and fig5dev's snic rows add no
// entry and print fig5a's 4MB rows.
func TestFig5MemoSharesFourMBGroups(t *testing.T) {
	r := &Runner{}
	a, err := r.Figure5a(smallFig5(), []uint64{4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	want := len(nf.Names)*len(nf.Names) + len(nf.Names)
	if n := r.groups.Len(); n != want {
		t.Fatalf("fig5a at 4MB left %d entries, want %d (each ordered pair's base group, one snic solo run per NF)", n, want)
	}
	b, err := r.Figure5b(smallFig5(), []int{2})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := r.Figure5Devices(smallFig5())
	if err != nil {
		t.Fatal(err)
	}
	if n := r.groups.Len(); n != want {
		t.Errorf("fig5b's 2-NF column and fig5dev added %d entries to fig5a's", n-want)
	}
	var snic []Fig5DevRow
	for _, row := range dev {
		if row.Device == "snic" {
			snic = append(snic, row)
		}
	}
	if len(b) != len(a) || len(snic) != len(a) {
		t.Fatalf("%d fig5a rows, %d fig5b rows, %d fig5dev snic rows", len(a), len(b), len(snic))
	}
	for i, ra := range a {
		rb, rd := b[i], snic[i]
		if rb.NF != ra.NF || rb.Median != ra.Median || rb.P1 != ra.P1 || rb.P99 != ra.P99 {
			t.Errorf("fig5b 2-NF row %+v differs from fig5a 4MB row %+v", rb, ra)
		}
		if rd.NF != ra.NF || rd.Median != ra.Median || rd.P1 != ra.P1 || rd.P99 != ra.P99 {
			t.Errorf("fig5dev snic row %+v differs from fig5a 4MB row %+v", rd, ra)
		}
	}
}

// TestFig5DevDistinctGroups: fig5dev runs 5 models x 6 targets x 6
// partners x 2 sides = 360 groups, but every commodity model's dev side
// (Shared L2, FIFO bus) is its baseline side, and S-NIC's dev side is
// one solo run per target, so a fresh Runner ends with the 36 ordered
// pairs' baseline groups and 6 solo runs.
func TestFig5DevDistinctGroups(t *testing.T) {
	r := &Runner{}
	if _, err := r.Figure5Devices(smallFig5()); err != nil {
		t.Fatal(err)
	}
	if n, want := r.groups.Len(), len(nf.Names)*len(nf.Names)+len(nf.Names); n != want {
		t.Errorf("fig5dev left %d entries, want %d", n, want)
	}
}

// TestCommodityDevSideReusesBaseline: a commodity model's dev side is
// the same simulation as the baseline side, so both sides must come
// back as the one memoized result, while S-NIC's must not.
func TestCommodityDevSideReusesBaseline(t *testing.T) {
	cfg := smallFig5()
	cfg.defaults()
	for _, model := range device.Models() {
		dev, err := device.New(device.Spec{Model: model})
		if err != nil {
			t.Fatal(err)
		}
		r := &Runner{}
		base, devIPC, err := r.colocation(cfg, "", []string{"FW", "DPI"}, 4<<20, dev)
		if err != nil {
			t.Fatal(err)
		}
		_, fifo := dev.NewBusArbiter(2).(*bus.FIFO)
		commodity := dev.CachePolicy() == cache.Shared && fifo
		if same := &base[0] == &devIPC[0]; same != commodity {
			t.Errorf("%s: dev side shares the baseline's result = %v, want %v", model, same, commodity)
		}
	}
}

// TestGroupKeyIncludesArbiterParams: two temporal arbiters that differ
// only in epoch grant differently, so they must never share an entry;
// the same configuration again must.
func TestGroupKeyIncludesArbiterParams(t *testing.T) {
	cfg := smallFig5()
	cfg.defaults()
	r := &Runner{}
	group := []string{"FW", "LB"}
	for _, epoch := range []uint64{60, 120, 60} {
		if _, err := r.runGroup(cfg, "", group, len(group), 64<<10, cache.Static, bus.NewTemporal(2, epoch, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if n := r.groups.Len(); n != 2 {
		t.Errorf("epochs 60, 120, 60 left %d entries, want 2", n)
	}
}

// TestObservedRunnerSimulatesEveryGroup: with a collector attached the
// memo is bypassed, so a commodity model's dev side and fig5dev's
// groups still emit their own series after fig5a ran the same groups.
func TestObservedRunnerSimulatesEveryGroup(t *testing.T) {
	reg := obs.NewRegistry()
	r := &Runner{Obs: reg}
	if _, err := r.Figure5a(smallFig5(), []uint64{4 << 20}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Figure5Devices(smallFig5()); err != nil {
		t.Fatal(err)
	}
	dump := reg.DumpMetrics()
	for _, model := range device.Models() {
		for _, side := range []string{"base", "dev"} {
			scope := "fig5dev/" + model + "/FW/g0/" + side
			if !strings.Contains(dump, scope) {
				t.Errorf("metric dump has no series for %s", scope)
			}
		}
	}
	if n := r.groups.Len(); n != 0 {
		t.Errorf("observed Runner memoized %d groups", n)
	}
}

// TestObservedRunnerMatchesRows: a collector makes the S-NIC side run
// every co-tenant instead of the target alone, and that must not move a
// Figure 5 row.
func TestObservedRunnerMatchesRows(t *testing.T) {
	a1, b1, d1 := fig5Suite(t, func() *Runner { return &Runner{} })
	a2, b2, d2 := fig5Suite(t, func() *Runner { return &Runner{Obs: obs.NewRegistry()} })
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(b1, b2) || !reflect.DeepEqual(d1, d2) {
		t.Errorf("Figure 5 rows differ with a collector attached:\nfig5a %v\n  vs %v\nfig5b %v\n  vs %v\nfig5dev %v\n  vs %v",
			a1, a2, b1, b2, d1, d2)
	}
}
