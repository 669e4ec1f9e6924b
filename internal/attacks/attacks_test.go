package attacks

import (
	"testing"

	"snic/internal/bus"
	"snic/internal/cache"
	"snic/internal/device"
)

func buildDevice(t *testing.T, model string) device.NIC {
	t.Helper()
	dev, err := device.New(device.Spec{Model: model, Cores: 4, MemBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// TestSuiteMatchesCapabilityPrediction is the central property of the
// polymorphic suite: on every registered model, every attack's observed
// outcome equals the prediction from the device's capability flags.
func TestSuiteMatchesCapabilityPrediction(t *testing.T) {
	for _, model := range device.Models() {
		t.Run(model, func(t *testing.T) {
			dev := buildDevice(t, model)
			results, err := RunAll(dev)
			if err != nil {
				t.Fatal(err)
			}
			suite := Suite()
			if len(results) != len(suite) {
				t.Fatalf("got %d results for %d attacks", len(results), len(suite))
			}
			for i, a := range suite {
				if want := a.Expected(dev.Caps()); results[i] != want {
					t.Errorf("%s vs %s: succeeded=%v, capability prediction %v",
						a.Name, model, results[i], want)
				}
			}
		})
	}
}

// TestSNICBlocksEverything and TestEveryAttackLandsSomewhere pin the
// paper's headline claims independently of the capability tables.
func TestSNICBlocksEverything(t *testing.T) {
	results, err := RunAll(buildDevice(t, "snic"))
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range Suite() {
		if results[i] {
			t.Errorf("%s succeeded against S-NIC", a.Name)
		}
	}
}

func TestEveryAttackLandsSomewhere(t *testing.T) {
	landed := make(map[string]bool)
	for _, model := range device.Models() {
		if model == "snic" {
			continue
		}
		results, err := RunAll(buildDevice(t, model))
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range Suite() {
			if results[i] {
				landed[a.Name] = true
			}
		}
	}
	for _, a := range Suite() {
		if !landed[a.Name] {
			t.Errorf("%s blocked on every baseline; the attack surface model is broken", a.Name)
		}
	}
}

// TestRequiresGate: an attack whose prerequisite capability is missing
// must report blocked without running.
func TestRequiresGate(t *testing.T) {
	dev := buildDevice(t, "liquidio-ses") // no demand paging
	for _, a := range Suite() {
		if a.Name != "controlled-channel" {
			continue
		}
		succeeded, err := a.Run(dev)
		if err != nil {
			t.Fatal(err)
		}
		if succeeded {
			t.Fatal("controlled channel succeeded without demand paging")
		}
	}
}

func TestPrimeProbeLeaksOnSharedCache(t *testing.T) {
	acc, err := PrimeProbe(cache.Shared, 256, 42)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Fatalf("shared-cache prime+probe accuracy %.2f, want ~1.0", acc)
	}
}

func TestPrimeProbeBlindOnStaticPartition(t *testing.T) {
	acc, err := PrimeProbe(cache.Static, 256, 42)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.35 || acc > 0.65 {
		t.Fatalf("partitioned-cache prime+probe accuracy %.2f, want ~0.5 (chance)", acc)
	}
}

func TestControlledChannelLeaksOnPagedBaseline(t *testing.T) {
	if acc := ControlledChannel(false, []byte("page fault oracle")); acc != 1.0 {
		t.Fatalf("baseline recovery = %v, want 1.0", acc)
	}
}

func TestControlledChannelClosedOnSNIC(t *testing.T) {
	if acc := ControlledChannel(true, []byte("page fault oracle")); acc != 0 {
		t.Fatalf("S-NIC recovery = %v, want 0 (no fault stream)", acc)
	}
}

func TestWatermarkDetectableOnFIFO(t *testing.T) {
	acc := Watermark(func(int) bus.Arbiter { return bus.NewFIFO() }, 64, 5)
	if acc < 0.9 {
		t.Fatalf("FIFO watermark accuracy %.2f, want ~1.0", acc)
	}
}

func TestWatermarkErasedByTemporalPartitioning(t *testing.T) {
	acc := Watermark(func(n int) bus.Arbiter { return bus.NewTemporal(n, 60, 10) }, 64, 5)
	if acc < 0.3 || acc > 0.7 {
		t.Fatalf("temporal watermark accuracy %.2f, want ~0.5 (chance)", acc)
	}
}
