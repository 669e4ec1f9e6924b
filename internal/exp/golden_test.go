package exp

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"snic/internal/nf"
)

// update regenerates the committed golden renderings:
//
//	go test ./internal/exp -update
//
// Goldens pin the engine's parallel output byte-for-byte: every entry is
// produced through the default (GOMAXPROCS-worker) runner, so a
// scheduling-dependent result, a shared-state leak, or an accidental
// change to a model constant shows up as a golden diff.
var update = flag.Bool("update", false, "rewrite testdata/golden files")

func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run `go test ./internal/exp -update`): %v", path, err)
	}
	if string(want) != got {
		t.Errorf("%s drifted from golden.\n--- want\n%s\n--- got\n%s", name, want, got)
	}
}

// goldenProfiles is the fixed small-scale profiling sweep every
// profile-derived golden uses.
func goldenProfiles(t *testing.T) []NFProfile {
	t.Helper()
	profiles, err := new(Runner).ProfileNFs(nf.TestScale(3), 2000, 4000)
	if err != nil {
		t.Fatal(err)
	}
	return profiles
}

func TestGoldenStaticTables(t *testing.T) {
	golden(t, "table2", Table2().String())
	golden(t, "table3", Table3().String())
	golden(t, "table4", Table4().String())
	golden(t, "tco", TCO().String())
	golden(t, "headline", Headline().String())
}

func TestGoldenTable5(t *testing.T) {
	tbl, err := new(Runner).Table5()
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "table5", tbl.String())
}

func TestGoldenTables6And8(t *testing.T) {
	profiles := goldenProfiles(t)
	golden(t, "table6", Table6(profiles).String())
	golden(t, "table8", Table8(profiles).String())
}

func TestGoldenTable7(t *testing.T) {
	tbl, err := new(Runner).Table7(0)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "table7", tbl.String())
}

func TestGoldenFigure6(t *testing.T) {
	rows, err := new(Runner).Figure6()
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "fig6", RenderFig6(rows).String())
}

func TestGoldenFigure7(t *testing.T) {
	series, err := new(Runner).Figure7(20, 3000, 40)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "fig7", RenderFig7(series).String())
}

func TestGoldenFigure8(t *testing.T) {
	rows, err := new(Runner).Figure8(1500)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "fig8", RenderFig8(rows).String())
}

// TestGoldenFleet pins the fleet churn table at the worker-invariance
// suite's shape.
func TestGoldenFleet(t *testing.T) {
	rows, err := new(Runner).FleetChurn(4, 30)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "fleet", RenderFleet(rows).String())
}
