package exp

import (
	"math"
	"testing"

	"snic/internal/attacks"
	"snic/internal/bus"
	"snic/internal/cache"
	"snic/internal/device"
	"snic/internal/nf"
	"snic/internal/obs"
)

// TestSoloRunOracle keeps the full group run as the oracle for the solo
// S-NIC side. For every model, tenant count, target NF and two L2
// sizes, it compares the target's IPC in its whole group with its IPC
// when only its core runs in the same n-domain L2 and bus. The two must
// be bit-identical on a model without a cache or bus leak — the
// models colocation runs solo — and must differ somewhere on a model
// that attacks.Expected says leaks through the cache or the bus.
func TestSoloRunOracle(t *testing.T) {
	cfg := smallFig5()
	cfg.defaults()
	r := &Runner{} // commodity models share one Shared+FIFO simulation
	for _, model := range device.Models() {
		dev, err := device.New(device.Spec{Model: model})
		if err != nil {
			t.Fatal(err)
		}
		caps := dev.Caps()
		leak := false
		for _, a := range attacks.Suite() {
			if (a.Exploits == device.PartitionedCache || a.Exploits == device.ArbitratedBus) && a.Expected(caps) {
				leak = true
			}
		}
		if solo := caps.Has(device.PartitionedCache | device.ArbitratedBus); solo && leak {
			t.Errorf("%s: colocation runs it solo, but attacks.Expected predicts a cache or bus leak", model)
		}
		differ := 0
		for _, n := range []int{2, 3, 4, 8, 16} {
			for _, target := range nf.Names {
				group := partnersFor(cfg, target, n, 1)[0]
				for _, size := range []uint64{64 << 10, 4 << 20} {
					full, err := r.runGroup(cfg, "", group, n, size, dev.CachePolicy(), dev.NewBusArbiter(n))
					if err != nil {
						t.Fatal(err)
					}
					solo, err := r.runGroup(cfg, "", group[:1], n, size, dev.CachePolicy(), dev.NewBusArbiter(n))
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(full[0]) == math.Float64bits(solo[0]) {
						continue
					}
					differ++
					if !leak {
						t.Errorf("%s %v at %s: group IPC %v, solo IPC %v", model, group, sizeLabel(size), full[0], solo[0])
					}
				}
			}
		}
		if leak && differ == 0 {
			t.Errorf("%s: attacks.Expected predicts a cache or bus leak, but the solo IPC matched the group's in every case", model)
		}
		t.Logf("%s: solo differs from group in %d of 60 cases", model, differ)
	}
}

// TestMeasuredWindowStartsWithIdleBus: the cores' clocks restart at 0
// after warm-up, so the bus must restart with them. One core alone on a
// FIFO bus never queues behind anyone, so across warm-up and the
// measured window it must record no bus wait at all.
func TestMeasuredWindowStartsWithIdleBus(t *testing.T) {
	cfg := smallFig5()
	cfg.defaults()
	reg := obs.NewRegistry()
	if _, err := simulateGroup(cfg, reg, "solo", []string{"FW"}, 1, 8<<10, cache.Shared, bus.NewFIFO()); err != nil {
		t.Fatal(err)
	}
	counter := func(name string) uint64 {
		return reg.Counter(obs.Label{Device: "solo", Owner: "dom0", Component: "bus/fifo", Name: name}).Value()
	}
	if counter("grants") == 0 {
		t.Fatal("no bus grants: the run never reached DRAM")
	}
	if wait := counter("stall_cycles"); wait != 0 {
		t.Errorf("one core on a FIFO bus waited %d cycles", wait)
	}
}
