package bus

import (
	"testing"
	"testing/quick"
)

func TestFIFOSerializes(t *testing.T) {
	f := NewFIFO()
	if got := f.Request(0, 0, 10); got != 0 {
		t.Fatalf("first grant at %d", got)
	}
	if got := f.Request(1, 0, 10); got != 10 {
		t.Fatalf("second grant at %d", got)
	}
	if got := f.Request(0, 100, 10); got != 100 {
		t.Fatalf("idle grant at %d", got)
	}
}

func TestFIFOStarvation(t *testing.T) {
	// An attacker issuing back-to-back keeps the victim waiting ~forever:
	// this is the §3.3 Agilio DoS.
	f := NewFIFO()
	now := uint64(0)
	for i := 0; i < 1000; i++ {
		start := f.Request(0, now, 10)
		now = start // attacker re-requests the moment it is granted
	}
	victimStart := f.Request(1, 5, 10)
	if victimStart < 9000 {
		t.Fatalf("victim granted too early (%d): FIFO should not protect it", victimStart)
	}
}

func TestRoundRobinBoundsAttacker(t *testing.T) {
	// Budgeted RR gives the victim service within ~one window even under
	// a saturating attacker.
	r := NewRoundRobin(2, 1000)
	now := uint64(0)
	for i := 0; i < 200; i++ {
		start := r.Request(0, now, 10)
		now = start + 10
	}
	victimStart := r.Request(1, 0, 10)
	if victimStart > 2000 {
		t.Fatalf("victim starved until %d despite budgets", victimStart)
	}
}

func TestRoundRobinWorkConservingWhenAlone(t *testing.T) {
	r := NewRoundRobin(4, 1000)
	// A lone domain under its budget gets back-to-back service.
	s1 := r.Request(0, 0, 10)
	s2 := r.Request(0, 10, 10)
	if s1 != 0 || s2 != 10 {
		t.Fatalf("grants at %d,%d", s1, s2)
	}
}

func TestTemporalOwnEpochImmediate(t *testing.T) {
	tp := NewTemporal(2, 100, 20)
	// Cycle 0 belongs to domain 0.
	if got := tp.Request(0, 0, 10); got != 0 {
		t.Fatalf("grant at %d", got)
	}
	// Domain 1 must wait for its epoch at cycle 100.
	if got := tp.Request(1, 0, 10); got != 100 {
		t.Fatalf("grant at %d", got)
	}
}

func TestTemporalDeadTime(t *testing.T) {
	tp := NewTemporal(2, 100, 20)
	// Issue deadline for epoch [0,100) is cycle 80; a request at 85 rolls
	// to domain 0's next epoch at 200.
	if got := tp.Request(0, 85, 10); got != 200 {
		t.Fatalf("grant at %d", got)
	}
}

func TestTemporalTransactionsFitEpoch(t *testing.T) {
	tp := NewTemporal(4, 100, 20)
	for now := uint64(0); now < 10000; now += 37 {
		for d := 0; d < 4; d++ {
			start := tp.Request(d, now, 15)
			epochStart := (start / 100) * 100
			if int((start/100)%4) != d {
				t.Fatalf("domain %d granted in foreign epoch at %d", d, start)
			}
			if start+15 > epochStart+100 {
				t.Fatalf("transaction crosses epoch boundary: start %d", start)
			}
		}
	}
}

func TestTemporalRejectsOversizedTransaction(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized transaction accepted")
		}
	}()
	NewTemporal(2, 100, 20).Request(0, 0, 21)
}

func TestTemporalBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad config accepted")
		}
	}()
	NewTemporal(2, 100, 100)
}

// The central security property: under temporal partitioning, a domain's
// grant schedule is a pure function of its own request history, regardless
// of what other domains do.
func TestTemporalNonInterference(t *testing.T) {
	run := func(attacker bool) []uint64 {
		tp := NewTemporal(2, 100, 20)
		var grants []uint64
		now := uint64(0)
		for i := 0; i < 500; i++ {
			if attacker {
				// Domain 1 saturates its own epochs.
				an := uint64(0)
				for j := 0; j < 4; j++ {
					an = tp.Request(1, an, 19) + 19
				}
			}
			g := tp.Request(0, now, 10)
			grants = append(grants, g)
			now = g + 10
		}
		return grants
	}
	quiet := run(false)
	noisy := run(true)
	for i := range quiet {
		if quiet[i] != noisy[i] {
			t.Fatalf("grant %d moved from %d to %d due to attacker", i, quiet[i], noisy[i])
		}
	}
}

// FIFO, by contrast, must leak: the victim's grants shift when the
// attacker is active. (This is the observable the §3.3 DoS and timing
// side channels build on.)
func TestFIFOInterferes(t *testing.T) {
	run := func(attacker bool) []uint64 {
		f := NewFIFO()
		var grants []uint64
		now := uint64(0)
		for i := 0; i < 50; i++ {
			if attacker {
				f.Request(1, now, 10)
			}
			g := f.Request(0, now, 10)
			grants = append(grants, g)
			now = g + 10
		}
		return grants
	}
	quiet := run(false)
	noisy := run(true)
	moved := false
	for i := range quiet {
		if quiet[i] != noisy[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("FIFO unexpectedly non-interfering")
	}
}

func TestTrackerStats(t *testing.T) {
	tr := NewTracker(NewFIFO(), 2)
	tr.Request(0, 0, 10)
	tr.Request(1, 0, 10) // waits 10
	s0, s1 := tr.Stats(0), tr.Stats(1)
	if s0.Transactions != 1 || s0.WaitCycles != 0 {
		t.Fatalf("s0 = %+v", s0)
	}
	if s1.WaitCycles != 10 {
		t.Fatalf("s1 = %+v", s1)
	}
	tr.Reset()
	if tr.Stats(0).Transactions != 0 {
		t.Fatal("reset did not clear stats")
	}
}

// Property: all arbiters grant at or after the request time, and epoch
// ownership always holds for Temporal.
func TestGrantNeverBeforeRequest(t *testing.T) {
	f := func(seeds []uint16) bool {
		arbs := []Arbiter{NewFIFO(), NewRoundRobin(3, 512), NewTemporal(3, 128, 32)}
		for _, a := range arbs {
			now := uint64(0)
			for _, s := range seeds {
				d := int(s) % 3
				dur := uint64(s%16) + 1
				got := a.Request(d, now, dur)
				if got < now {
					return false
				}
				now = got
			}
			a.Reset()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNames(t *testing.T) {
	if NewFIFO().Name() != "fifo" ||
		NewRoundRobin(2, 100).Name() != "round-robin" ||
		NewTemporal(2, 100, 10).Name() != "temporal" {
		t.Fatal("arbiter names wrong")
	}
	tp := NewTemporal(2, 100, 10)
	if tp.epoch != 100 || tp.deadTime != 10 {
		t.Fatal("temporal parameters wrong")
	}
	// Config must tell apart every parameter that changes grants.
	configs := map[string]bool{}
	for _, a := range []Arbiter{
		NewFIFO(), NewRoundRobin(2, 100), NewRoundRobin(3, 100), NewRoundRobin(2, 200),
		NewTemporal(2, 100, 10), NewTemporal(3, 100, 10), NewTemporal(2, 120, 10), NewTemporal(2, 100, 20),
	} {
		if configs[a.Config()] {
			t.Errorf("two arbiters share Config %q", a.Config())
		}
		configs[a.Config()] = true
	}
	if got := NewTemporal(2, 60, 10).Config(); got != "temporal n=2 epoch=60 dead=10" {
		t.Errorf("temporal Config = %q", got)
	}
}
