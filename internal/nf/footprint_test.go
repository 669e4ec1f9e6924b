package nf

import (
	"testing"

	"snic/internal/sim"
	"snic/internal/trace"
)

// TestFixedFootprintHolds sends the same traffic to every NF through
// Process, whatever it declares, and compares its arena with an instance
// that received nothing. An NF that declares FixedFootprint must match
// exactly: Table 6/8 profiling sends it no packets, so a declaration
// that is wrong would silently change those tables. An NF that does not
// declare it must show the traffic, or profiling drives it for nothing.
func TestFixedFootprintHolds(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		cfg := TestScale(seed)
		// Some payloads carry a real DPI pattern (the ones New compiles
		// for this seed), so DPI's match path runs too.
		patterns := trace.DPIPatterns(sim.NewRand(seed), cfg.DPIPatterns)
		for _, name := range Names {
			idle, err := New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			f, err := New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := sim.NewRand(seed)
			pool := trace.NewICTF(rng.Fork(), 2000)
			matched := 0
			for i := 0; i < 5000; i++ {
				_, p := pool.NextPacketBuf(trace.IMIXLen(rng))
				if i%7 == 0 {
					p.Payload = append(p.Payload[:0:0], patterns[i%len(patterns)]...)
				}
				f.Process(&p)
				if d, ok := f.(*DPI); ok && len(d.auto.Scan(p.Payload, nil)) > 0 {
					matched++
				}
			}
			if _, ok := f.(*DPI); ok && matched == 0 {
				t.Fatalf("seed %d: no payload matched a DPI pattern; the match path went untested", seed)
			}

			same := f.Arena().Profile() == idle.Arena().Profile() && f.Arena().Live() == idle.Arena().Live()
			switch {
			case f.FixedFootprint() && !same:
				t.Errorf("seed %d: %s declares a fixed footprint, but traffic moved it: profile %+v live %d, idle %+v live %d",
					seed, name, f.Arena().Profile(), f.Arena().Live(), idle.Arena().Profile(), idle.Arena().Live())
			case !f.FixedFootprint() && same:
				t.Errorf("seed %d: %s does not declare a fixed footprint, but traffic left it unchanged", seed, name)
			}
		}
	}
}
