package device

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"snic/internal/pkt"
	"snic/internal/pktio"
	"snic/internal/sim"
	"snic/internal/snic"
)

func testSpec(model string) Spec {
	return Spec{Model: model, Cores: 2, MemBytes: 16 << 20}
}

func build(t *testing.T, model string) NIC {
	t.Helper()
	dev, err := New(testSpec(model))
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func TestRegistry(t *testing.T) {
	models := Models()
	for _, want := range []string{"snic", "liquidio-ses", "liquidio-seum", "agilio", "bluefield"} {
		found := false
		for _, m := range models {
			if m == want {
				found = true
			}
		}
		if !found {
			t.Errorf("model %q not registered (have %v)", want, models)
		}
	}
	if !sortedStrings(models) {
		t.Errorf("Models() not sorted: %v", models)
	}
	_, err := New(Spec{Model: "connectx"})
	if err == nil {
		t.Fatal("unknown model accepted")
	}
	if !strings.Contains(err.Error(), "snic") {
		t.Errorf("unknown-model error does not list registered models: %v", err)
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}

// TestConformanceLifecycle: every model launches up to core exhaustion,
// tears down, and relaunches on the freed core.
func TestConformanceLifecycle(t *testing.T) {
	for _, model := range Models() {
		t.Run(model, func(t *testing.T) {
			dev := build(t, model)
			if dev.Model() != model {
				t.Fatalf("Model() = %q", dev.Model())
			}
			if dev.Cores() != 2 || dev.FreeCores() != 2 || dev.Live() != 0 {
				t.Fatalf("fresh device: cores=%d free=%d live=%d",
					dev.Cores(), dev.FreeCores(), dev.Live())
			}
			a, err := dev.Launch(FuncSpec{Name: "a", MemBytes: 256 << 10})
			if err != nil {
				t.Fatal(err)
			}
			b, err := dev.Launch(FuncSpec{Name: "b", MemBytes: 256 << 10})
			if err != nil {
				t.Fatal(err)
			}
			if a == b {
				t.Fatal("duplicate function IDs")
			}
			if dev.FreeCores() != 0 || dev.Live() != 2 {
				t.Fatalf("after 2 launches: free=%d live=%d", dev.FreeCores(), dev.Live())
			}
			if _, err := dev.Launch(FuncSpec{Name: "c", MemBytes: 256 << 10}); err == nil {
				t.Fatal("launch beyond core count succeeded")
			}
			if err := dev.Teardown(a); err != nil {
				t.Fatal(err)
			}
			if err := dev.Teardown(a); !errors.Is(err, ErrNoFunc) {
				t.Fatalf("double teardown: %v", err)
			}
			if dev.FreeCores() != 1 || dev.Live() != 1 {
				t.Fatalf("after teardown: free=%d live=%d", dev.FreeCores(), dev.Live())
			}
			if _, err := dev.Launch(FuncSpec{Name: "c", MemBytes: 256 << 10}); err != nil {
				t.Fatalf("relaunch on freed core: %v", err)
			}
		})
	}
}

// TestConformanceOwnerAccess: owner-scoped Read/Write round-trips and
// is bounds-checked on every model.
func TestConformanceOwnerAccess(t *testing.T) {
	for _, model := range Models() {
		t.Run(model, func(t *testing.T) {
			dev := build(t, model)
			id, err := dev.Launch(FuncSpec{Name: "nf", MemBytes: 256 << 10})
			if err != nil {
				t.Fatal(err)
			}
			want := []byte("owner-scoped state")
			if err := dev.Write(id, 9000, want); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(want))
			if err := dev.Read(id, 9000, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("roundtrip: got %q", got)
			}
			if err := dev.Write(id, (256<<10)-4, want); err == nil {
				t.Fatal("write past reservation succeeded")
			}
			if err := dev.Read(FuncID(250), 0, got); !errors.Is(err, ErrNoFunc) {
				t.Fatalf("read from unknown function: %v", err)
			}
			if _, ok := dev.Region(id); !ok {
				t.Fatal("no region for live function")
			}
		})
	}
}

// TestConformanceIsolation: whether a co-tenant probe or a management
// read reaches a victim's memory must match the capability flags.
func TestConformanceIsolation(t *testing.T) {
	for _, model := range Models() {
		t.Run(model, func(t *testing.T) {
			dev := build(t, model)
			victim, err := dev.Launch(FuncSpec{Name: "victim", MemBytes: 256 << 10})
			if err != nil {
				t.Fatal(err)
			}
			attacker, err := dev.Launch(FuncSpec{Name: "attacker", MemBytes: 256 << 10})
			if err != nil {
				t.Fatal(err)
			}
			secret := []byte("victim flow table")
			const off = 12288
			if err := dev.Write(victim, off, secret); err != nil {
				t.Fatal(err)
			}
			region, ok := dev.Region(victim)
			if !ok {
				t.Fatal("victim has no region")
			}

			probe := make([]byte, len(secret))
			probed := dev.ProbeRead(attacker, region.Start+off, probe) == nil &&
				bytes.Equal(probe, secret)
			if want := !dev.Caps().Has(SingleOwnerRAM); probed != want {
				t.Errorf("co-tenant probe reached victim=%v, capability says %v", probed, want)
			}

			mgmt := make([]byte, len(secret))
			snooped := dev.MgmtRead(region.Start+off, mgmt) == nil &&
				bytes.Equal(mgmt, secret)
			if want := !dev.Caps().Has(MgmtIsolated); snooped != want {
				t.Errorf("management read reached victim=%v, capability says %v", snooped, want)
			}
		})
	}
}

// TestConformanceSteering: frames steer by the launch rules and round-
// trip unmodified through every model's RX path.
func TestConformanceSteering(t *testing.T) {
	for _, model := range Models() {
		t.Run(model, func(t *testing.T) {
			dev := build(t, model)
			id, err := dev.Launch(FuncSpec{
				Name: "web", MemBytes: 256 << 10,
				Rules: []pktio.MatchSpec{{Proto: pkt.ProtoTCP, DstPortLo: 443, DstPortHi: 443}},
			})
			if err != nil {
				t.Fatal(err)
			}
			frame := (&pkt.Packet{
				Tuple:   pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 9, DstPort: 443, Proto: pkt.ProtoTCP},
				Payload: []byte("tls client hello"),
			}).Marshal()
			to, err := dev.Inject(frame)
			if err != nil {
				t.Fatal(err)
			}
			if to != id {
				t.Fatalf("frame steered to %d, want %d", to, id)
			}
			got, err := dev.Retrieve(id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, frame) {
				t.Fatal("frame modified in flight")
			}
			if _, err := dev.Retrieve(id); !errors.Is(err, ErrNoFrame) {
				t.Fatalf("retrieve from empty queue: %v", err)
			}
		})
	}
}

// TestConformanceAttest: attestation works exactly where the capability
// flag says it does.
func TestConformanceAttest(t *testing.T) {
	for _, model := range Models() {
		t.Run(model, func(t *testing.T) {
			dev := build(t, model)
			id, err := dev.Launch(FuncSpec{Name: "nf", MemBytes: 256 << 10})
			if err != nil {
				t.Fatal(err)
			}
			_, err = dev.Attest(id, []byte("nonce"))
			if dev.Caps().Has(Attestation) {
				if err != nil {
					t.Fatalf("attestation failed on attesting device: %v", err)
				}
			} else if !errors.Is(err, ErrUnsupported) {
				t.Fatalf("attest on non-attesting device: %v", err)
			}
		})
	}
}

// TestConformanceChurn: RunChurn leaves every model, cold and fast, as
// it found it — nothing live, every core free, the fast-path
// configuration restored — attests every launch where the capability
// exists (cold; batched runs quote a subset), times nothing on models
// without a latency model, and is a pure function of its seed.
func TestConformanceChurn(t *testing.T) {
	type sample struct {
		phase ChurnPhase
		ms    float64
		n     int
	}
	run := func(t *testing.T, model string, fast bool) (NIC, ChurnCounts, []sample) {
		t.Helper()
		n, err := New(Spec{Model: model, Cores: 4, MemBytes: 16 << 20})
		if err != nil {
			t.Fatal(err)
		}
		sn, isSNIC := n.(*SNIC)
		var before snic.FastPaths
		if isSNIC {
			before = sn.dev.FastPathConfig()
		}
		rng := sim.NewRand(7)
		var seen []sample
		c, err := RunChurn(n, Churn{
			Events: 60, Target: 3, Batch: 2, Fast: fast,
			Func: func(seq int) FuncSpec {
				return FuncSpec{Name: fmt.Sprintf("fn-%d-%d", seq, rng.Intn(100)), MemBytes: 256 << 10}
			},
			Observe: func(p ChurnPhase, ms float64, k int) { seen = append(seen, sample{p, ms, k}) },
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if isSNIC && sn.dev.FastPathConfig() != before {
			t.Errorf("fast paths %+v after the run, want %+v restored", sn.dev.FastPathConfig(), before)
		}
		return n, c, seen
	}
	for _, model := range Models() {
		for _, fast := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/fast=%v", model, fast), func(t *testing.T) {
				n, c, seen := run(t, model, fast)
				if n.Live() != 0 || n.FreeCores() != n.Cores() {
					t.Errorf("after the run: %d live, %d/%d cores free", n.Live(), n.FreeCores(), n.Cores())
				}
				if c.Launches == 0 || c.Launches != c.Teardowns {
					t.Errorf("launches %d, teardowns %d", c.Launches, c.Teardowns)
				}
				_, isSNIC := n.(*SNIC)
				attested := 0
				for _, s := range seen {
					if s.phase == ChurnAttest {
						attested += s.n
					}
				}
				switch {
				case !n.Caps().Has(Attestation):
				case isSNIC && fast:
					// A batch member torn down before its batch fills is
					// never quoted, so batched runs attest a subset.
					if c.Attests == 0 || c.Attests > c.Launches || uint64(attested) != c.Attests {
						t.Errorf("batched attests %d (observed %d) of %d launches", c.Attests, attested, c.Launches)
					}
				case c.Attests != c.Launches:
					t.Errorf("attests %d, want one per launch (%d)", c.Attests, c.Launches)
				}
				if !isSNIC && len(seen) != 0 {
					t.Errorf("model without a latency model observed %d samples", len(seen))
				}
				if isSNIC && fast && c.PoolHits == 0 {
					t.Errorf("fast path served no launch from the warm pool: %+v", c)
				}
				_, c2, seen2 := run(t, model, fast)
				if c2 != c || !slices.Equal(seen2, seen) {
					t.Errorf("same seed diverged: %+v vs %+v (%d vs %d samples)", c, c2, len(seen), len(seen2))
				}
			})
		}
	}
}

// TestConformanceDeterminism: equal Specs build devices that assign the
// same IDs and regions for the same launch sequence.
func TestConformanceDeterminism(t *testing.T) {
	for _, model := range Models() {
		t.Run(model, func(t *testing.T) {
			d1, d2 := build(t, model), build(t, model)
			for i := 0; i < 2; i++ {
				id1, err1 := d1.Launch(FuncSpec{Name: "nf", MemBytes: 256 << 10})
				id2, err2 := d2.Launch(FuncSpec{Name: "nf", MemBytes: 256 << 10})
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("launch %d diverged: %v vs %v", i, err1, err2)
				}
				if id1 != id2 {
					t.Fatalf("launch %d: ids %d vs %d", i, id1, id2)
				}
				r1, _ := d1.Region(id1)
				r2, _ := d2.Region(id2)
				if r1 != r2 {
					t.Fatalf("launch %d: regions %+v vs %+v", i, r1, r2)
				}
			}
		})
	}
}

func TestCapabilityString(t *testing.T) {
	if Capability(0).String() != "none" {
		t.Fatalf("zero caps = %q", Capability(0).String())
	}
	s := (SingleOwnerRAM | LockedTLB).String()
	if !strings.Contains(s, "single-owner-ram") || !strings.Contains(s, "locked-tlb") {
		t.Fatalf("caps string = %q", s)
	}
	if SingleOwnerRAM.Has(LockedTLB) {
		t.Fatal("Has() broken")
	}
	if !(SingleOwnerRAM | LockedTLB).Has(LockedTLB) {
		t.Fatal("Has() broken")
	}
}

func TestSpecString(t *testing.T) {
	s := testSpec("snic")
	if s.String() == "" {
		t.Fatal("empty spec render")
	}
}

func TestConformanceResources(t *testing.T) {
	for _, model := range Models() {
		t.Run(model, func(t *testing.T) {
			dev := build(t, model)
			r := dev.Resources()
			if r.Cores != dev.Cores() {
				t.Fatalf("Resources().Cores = %d, Cores() = %d", r.Cores, dev.Cores())
			}
			if r.MemBytes != dev.MemBytes() {
				t.Fatalf("Resources().MemBytes = %d, MemBytes() = %d", r.MemBytes, dev.MemBytes())
			}
			if r.TLBEntries != dev.Cores()*TLBEntriesPerCore {
				t.Fatalf("Resources().TLBEntries = %d", r.TLBEntries)
			}
			if r.CacheWays != DefaultCacheWays {
				t.Fatalf("Resources().CacheWays = %d", r.CacheWays)
			}
			if r.AccelClusters <= 0 {
				t.Fatalf("Resources().AccelClusters = %d", r.AccelClusters)
			}
		})
	}
}

func TestResourcesVector(t *testing.T) {
	cap := Resources{Cores: 4, MemBytes: 1 << 20, TLBEntries: 64, CacheWays: 16, AccelClusters: 8}
	d := Resources{Cores: 1, MemBytes: 1 << 10, TLBEntries: 8, CacheWays: 2, AccelClusters: 1}
	if !cap.Fits(d) {
		t.Fatal("demand should fit")
	}
	if cap.Fits(Resources{Cores: 5}) {
		t.Fatal("core overcommit should not fit")
	}
	rem := cap.Sub(d)
	if rem.Cores != 3 || rem.TLBEntries != 56 || rem.CacheWays != 14 {
		t.Fatalf("Sub wrong: %+v", rem)
	}
	if back := rem.Add(d); back != cap {
		t.Fatalf("Add(Sub) != identity: %+v", back)
	}
	if !(Resources{}).IsZero() || d.IsZero() {
		t.Fatal("IsZero wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Sub underflow should panic")
		}
	}()
	_ = d.Sub(cap)
}
