package nf

import (
	"testing"

	"snic/internal/hashmap"
	"snic/internal/pkt"
	"snic/internal/sim"
	"snic/internal/trace"
)

// TestMonitorModelMatchesMonitor pins the analytical model to the real
// NF: driving both with the same mixed new/duplicate flow sequence, the
// model's live and peak bytes must equal the arena's after every single
// packet — including across several resizes and duplicate packets that
// arrive while the table sits at its load threshold, which must not
// grow it.
func TestMonitorModelMatchesMonitor(t *testing.T) {
	mon := NewMonitor(nil)
	model := NewMonitorModel()
	if got, want := model.Live(), mon.Arena().Live(); got != want {
		t.Fatalf("initial live: model %d, arena %d", got, want)
	}
	if got, want := model.Peak(), mon.Arena().Profile().Total(); got != want {
		t.Fatalf("initial peak: model %d, arena %d", got, want)
	}

	rng := sim.NewRand(11)
	c := trace.NewCAIDABudget(rng.Fork(), 9000, 1)
	seen := make(map[pkt.FiveTuple]bool)
	var tuples []pkt.FiveTuple
	for {
		_, p, ok := c.Next()
		if !ok {
			break
		}
		tuples = append(tuples, p.Tuple)
	}
	// Interleave duplicates so the model's newFlow=false path (and the
	// duplicate at the load threshold) gets exercised: every third packet
	// repeats an earlier tuple.
	for i, ft := range tuples {
		if i%3 == 2 {
			ft = tuples[rng.Intn(i)]
		}
		p := pkt.Packet{Tuple: ft}
		mon.Process(&p)
		model.Observe(!seen[ft])
		seen[ft] = true
		if model.Live() != mon.Arena().Live() {
			t.Fatalf("packet %d: live model %d, arena %d", i, model.Live(), mon.Arena().Live())
		}
		if peak := mon.Arena().Profile().Total(); model.Peak() != peak {
			t.Fatalf("packet %d: peak model %d, arena %d", i, model.Peak(), peak)
		}
	}
	if int(model.flows) != mon.counts.Len() {
		t.Fatalf("flows: model %d, monitor %d", model.flows, mon.counts.Len())
	}
	if slots := mon.counts.FootprintBytes() / hashmap.EntrySize; model.capSlots != slots {
		t.Fatalf("table slots: model %d, map %d", model.capSlots, slots)
	}
	if model.Resizes() == 0 {
		t.Fatal("test never resized; grow paths unexercised")
	}

	// A state round-trip must be transparent: restoring mid-run and
	// continuing yields the same trajectory.
	restored := RestoreMonitorModel(model.State())
	restored.Observe(true)
	model.Observe(true)
	if restored.Live() != model.Live() || restored.Peak() != model.Peak() ||
		restored.flows != model.flows || restored.Resizes() != model.Resizes() {
		t.Fatal("restored model diverges from original")
	}
}
