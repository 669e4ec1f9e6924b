package exp

import (
	"reflect"
	"strings"
	"testing"

	"snic/internal/nf"
	"snic/internal/sim"
)

// renderAll runs every decomposed experiment at a small fixed scale on a
// pool of the given size and concatenates the rendered output. Any
// shared-state leak between jobs (a pool, device, arena, or cache/bus
// object reused across configuration points) or any draw from a
// scheduling-dependent RNG makes the output differ between worker
// counts.
func renderAll(t *testing.T, workers int) string {
	t.Helper()
	r := &Runner{Workers: workers}
	var b strings.Builder

	tbl, err := r.Table5()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(tbl.String())

	profiles, err := r.ProfileNFs(nf.TestScale(3), 2000, 4000)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(Table6(profiles).String())
	b.WriteString(Table8(profiles).String())

	tbl, err = r.Table7(0)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(tbl.String())

	rows5a, err := r.Figure5a(smallFig5(), []uint64{64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(RenderFig5("fig5a", rows5a).String())

	rows5b, err := r.Figure5b(smallFig5(), []int{3})
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(RenderFig5("fig5b", rows5b).String())

	rows5d, err := r.Figure5Devices(smallFig5())
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(RenderFig5Dev(rows5d).String())

	rows6, err := r.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(RenderFig6(rows6).String())

	series, err := r.Figure7(10, 2000, 20)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(RenderFig7(series).String())

	rows8, err := r.Figure8(1000)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(RenderFig8(rows8).String())

	fleetRows, err := r.FleetChurn(4, 30)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(RenderFleet(fleetRows).String())

	churnRows, err := r.ChurnNF(goldenChurnConfig())
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(RenderChurn(churnRows).String())

	replay, err := r.ReplayCAIDA(goldenReplayConfig())
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(RenderReplay(replay).String())

	return b.String()
}

// TestWorkerCountInvariance is the engine's core guarantee: 1, 4, and 16
// workers must emit byte-identical results for every decomposed
// experiment. It also guards the one remaining piece of package-level
// mutable state the jobs share — the nf.Names table order — which every
// sweep reads concurrently and none may reorder or grow.
func TestWorkerCountInvariance(t *testing.T) {
	names := append([]string(nil), nf.Names...)
	base := renderAll(t, 1)
	for _, w := range []int{4, 16} {
		if got := renderAll(t, w); got != base {
			t.Fatalf("output with %d workers differs from serial run", w)
		}
	}
	if !reflect.DeepEqual(names, nf.Names) {
		t.Fatalf("a sweep mutated nf.Names: %v", nf.Names)
	}
}

// TestProfileJobsAreIndependent locks in the fix for the shared
// profiling pool: ProfileNFs used to thread one trace.Pool through all
// six NFs in table order, so each profile depended on its predecessors'
// draws. Now a job's profile must be reproducible in isolation from its
// (experiment, jobKey)-derived stream alone.
func TestProfileJobsAreIndependent(t *testing.T) {
	cfg := nf.TestScale(3)
	sweep, err := new(Runner).ProfileNFs(cfg, 2000, 4000)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range sweep {
		rng := sim.DeriveRand(cfg.Seed+17, "profile", want.Name)
		got, err := profileNF(want.Name, cfg, 2000, 4000, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: standalone profile %+v != sweep profile %+v", want.Name, got, want)
		}
	}
}

// TestFigure6JobsAreIndependent locks in the fix for the shared launch
// device: Figure6 used to launch all six NFs on one snic.Device, whose
// NF table would race under concurrent jobs. Each row must now be
// reproducible on a device of its own.
func TestFigure6JobsAreIndependent(t *testing.T) {
	sweep, err := new(Runner).Figure6()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range sweep {
		got, err := launchProfile(nil, i, want.NF)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: standalone launch %+v != sweep row %+v", want.NF, got, want)
		}
	}
}

// TestDeriveSeedStability pins the seeding scheme documented in
// EXPERIMENTS.md: job streams depend only on (base, experiment, jobKey).
func TestDeriveSeedStability(t *testing.T) {
	a := sim.DeriveSeed(1, "profile", "FW")
	if a != sim.DeriveSeed(1, "profile", "FW") {
		t.Fatal("derivation not stable")
	}
	for name, b := range map[string]uint64{
		"base":       sim.DeriveSeed(2, "profile", "FW"),
		"experiment": sim.DeriveSeed(1, "fig6", "FW"),
		"key":        sim.DeriveSeed(1, "profile", "DPI"),
		"boundary":   sim.DeriveSeed(1, "profileF", "W"),
	} {
		if a == b {
			t.Fatalf("seed insensitive to %s", name)
		}
	}
}
