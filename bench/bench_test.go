package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"snic/internal/fleet"
	"snic/internal/obs"
	"snic/internal/sim"
)

// TestMetricListsMatchBenchmarkJSON pins the metric names and units the
// benchmark prints to the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	if err := checkDeclared("../BENCHMARK.json"); err != nil {
		t.Fatal(err)
	}
	drifted := filepath.Join(t.TempDir(), "BENCHMARK.json")
	doc := `{"workloads": [{"name": "churn"}], "end_to_end": [{"name": "setup_s", "unit": "ms"}]}`
	if err := os.WriteFile(drifted, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkDeclared(drifted); err == nil {
		t.Error("checkDeclared accepted a BENCHMARK.json that lists other metrics and workloads")
	}
}

// TestTinyWorkloads runs every workload in-process at tiny size, checks
// that nothing fails and that tracing leaves the simulated output
// unchanged, then folds the results as the parent does and checks that
// exactly the declared metrics come out.
func TestTinyWorkloads(t *testing.T) {
	const seed = 1
	sc := tinyScale(seed)
	runs := map[string]func(scale, *tracer, int) (outcome, *engineStats, error){
		"paper-medium": runPaperMedium,
		"churn":        runChurn,
		"replay":       runReplay,
		"fleet":        tinyFleet,
	}
	probes, err := runProbes(sc, seed, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if probes.failed != 0 {
		t.Fatalf("probes: %d failures", probes.failed)
	}
	for _, w := range workloadNames {
		plain, st, err := runs[w](sc, nil, 0)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		traced, _, err := runs[w](sc, newTracer(), 0)
		if err != nil {
			t.Fatalf("%s traced: %v", w, err)
		}
		if plain.Failed != 0 || traced.Failed != 0 || plain.Attempted == 0 {
			t.Errorf("%s: failed %d+%d of %d", w, plain.Failed, traced.Failed, plain.Attempted)
		}
		if plain.Digest == "" || plain.Digest != traced.Digest {
			t.Errorf("%s: digest %q untraced, %q traced", w, plain.Digest, traced.Digest)
		}

		rep := &childResult{WallS: 1, CPUS: 1, RSSMB: 1, Outcome: plain, Engine: st}
		tr := &childResult{WallS: 1, Layers: map[string]float64{}}
		for k, v := range probes.metrics {
			tr.Layers[k] = v
		}
		if w == "fleet" {
			setSweep(tr.Layers, probes)
		}
		var got, want []string
		for k := range layerMetrics(w, []*childResult{rep}, tr) {
			got = append(got, k)
		}
		for _, m := range perLayer {
			want = append(want, m.name)
		}
		sort.Strings(got)
		sort.Strings(want)
		if len(got) != len(want) {
			t.Fatalf("%s: %d per-layer metrics, want %d:\n%v\n%v", w, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: per-layer metric %q, want %q", w, got[i], want[i])
			}
		}
		e2e := e2eSamples([]*childResult{rep}, []float64{1})
		for _, m := range endToEnd {
			if len(e2e[m.name]) == 0 {
				t.Errorf("%s: no samples of %s", w, m.name)
			}
		}
	}
}

// tinyFleet drives the fleet mix against fleet.NewAPI behind httptest,
// a fresh Manager per run, as the real workload drives snicd.
func tinyFleet(sc scale, tr *tracer, parent int) (outcome, *engineStats, error) {
	m, err := newManager(1, fleet.Config{Obs: obs.NewRegistry()})
	if err != nil {
		return outcome{}, nil, err
	}
	srv := httptest.NewServer(fleet.NewAPI(m))
	defer srv.Close()
	ops, live := fleetOps(1, sc.fleetOps)
	run, err := driveFleet(srv.URL, ops, tr, parent)
	if err != nil {
		return outcome{}, nil, err
	}
	return fleetOutcome(run, ops, live), nil, nil
}

// TestFleetMixNeverFails replays longer op sequences for several seeds
// in-process: the mix must keep every request valid.
func TestFleetMixNeverFails(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		m, err := newManager(seed, fleet.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ops, live := fleetOps(seed, 1500)
		for i, op := range ops {
			if err := op.apply(m); err != nil {
				t.Fatalf("seed %d op %d %+v: %v", seed, i, op, err)
			}
		}
		placed := 0
		for _, tn := range m.Oper().Tenants {
			placed += len(tn.NFs)
		}
		if placed != live {
			t.Errorf("seed %d: %d placements, model says %d", seed, placed, live)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "sweep", StartUS: 0, EndUS: 100},
		{ID: 2, Parent: 1, Name: "job", StartUS: 10, EndUS: 60},
		{ID: 3, Parent: 1, Name: "job", StartUS: 40, EndUS: 90}, // overlaps job 2
	}
	for _, lt := range selfTimes(spans) {
		switch lt.Name {
		case "sweep":
			if lt.SelfS*1e6 != 20 {
				t.Errorf("sweep self %.1fus, want 20 (children cover 10..90)", lt.SelfS*1e6)
			}
		case "job":
			if lt.Spans != 2 || lt.TotalS*1e6 != 100 {
				t.Errorf("job: %d spans, %.1fus total", lt.Spans, lt.TotalS*1e6)
			}
		}
	}
}

func TestTailSamples(t *testing.T) {
	reps := func(n, units int) []*childResult {
		var out []*childResult
		for i := 0; i < n; i++ {
			r := &childResult{}
			for u := 1; u <= units; u++ {
				r.Outcome.UnitMS = append(r.Outcome.UnitMS, float64(u+i))
			}
			out = append(out, r)
		}
		return out
	}
	// 6 units a repetition: each repetition's slowest.
	if got := tailSamples(reps(3, 6)); len(got) != 3 || got[0] != 6 || got[2] != 8 {
		t.Errorf("sweep tails %v, want [6 7 8]", got)
	}
	// 40 units a repetition: p90 of everything, at any repetition count.
	for _, n := range []int{3, 20} {
		got := tailSamples(reps(n, 40))
		var all []float64
		for _, r := range reps(n, 40) {
			all = append(all, r.Outcome.UnitMS...)
		}
		if want := sim.Percentile(all, 0.90); len(got) != 1 || got[0] != want {
			t.Errorf("%d repetitions: tail %v, want [%v]", n, got, want)
		}
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{4, 1}, {99, 1}, {100, 0.90}, {129, 0.90}, {200, 0.95}, {1000, 0.99}, {4400, 0.99}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}
