package device

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"snic/internal/obs"
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
// tears down, and relaunches on the freed core, where the new function
// reads none of its predecessor's state.
func TestConformanceLifecycle(t *testing.T) {
	for _, model := range Models() {
		t.Run(model, func(t *testing.T) {
			dev := build(t, model)
			if dev.Model() != model {
				t.Fatalf("Model() = %q", dev.Model())
			}
			if dev.Resources().Cores != 2 || dev.FreeCores() != 2 {
				t.Fatalf("fresh device: cores=%d free=%d", dev.Resources().Cores, dev.FreeCores())
			}
			a, err := dev.Launch(FuncSpec{Name: "a", MemBytes: 256 << 10})
			if err != nil {
				t.Fatal(err)
			}
			secret := []byte("tenant-A NAT translation table")
			if err := dev.Write(a, 8192, secret); err != nil {
				t.Fatal(err)
			}
			b, err := dev.Launch(FuncSpec{Name: "b", MemBytes: 256 << 10})
			if err != nil {
				t.Fatal(err)
			}
			if a == b {
				t.Fatal("duplicate function IDs")
			}
			if dev.FreeCores() != 0 {
				t.Fatalf("after 2 launches: free=%d", dev.FreeCores())
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
			if dev.FreeCores() != 1 {
				t.Fatalf("after teardown: free=%d", dev.FreeCores())
			}
			c, err := dev.Launch(FuncSpec{Name: "c", MemBytes: 256 << 10})
			if err != nil {
				t.Fatalf("relaunch on freed core: %v", err)
			}
			probe := make([]byte, len(secret))
			if err := dev.Read(c, 8192, probe); err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(probe, secret) {
				t.Fatal("relaunched function read its predecessor's secret")
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
// read reaches a victim's memory, or a probe write changes it, must
// match the capability flags.
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

			// Isolated models refuse the write; the read-back decides.
			_ = dev.ProbeWrite(attacker, region.Start+off, []byte("OWNED"))
			if err := dev.Read(victim, off, probe); err != nil {
				t.Fatal(err)
			}
			overwrote := string(probe) == "OWNEDm flow table"
			if want := !dev.Caps().Has(SingleOwnerRAM); overwrote != want {
				t.Errorf("co-tenant probe overwrote victim=%v, capability says %v", overwrote, want)
			}
		})
	}
}

// TestConformanceSteering: frames steer by the launch rules and round-
// trip unmodified through every model's RX path, and co-tenants never
// see each other's frames.
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

	// Co-tenants on one device each receive exactly their own flows,
	// keyed by port or by VXLAN network identifier (§4.4), and a frame no
	// rule matches reaches nobody. The VNI tenants use the same inner
	// 5-tuple, as overlapping private address spaces do.
	inner := pkt.FiveTuple{SrcIP: 0x0A000001, DstIP: 0x0A000002, SrcPort: 1234, DstPort: 80, Proto: pkt.ProtoTCP}
	byPort := func(port uint16) pktio.MatchSpec {
		return pktio.MatchSpec{Proto: pkt.ProtoTCP, DstPortLo: port, DstPortHi: port}
	}
	withPort := func(port uint16) pkt.FiveTuple {
		tuple := inner
		tuple.DstPort = port
		return tuple
	}
	for _, tc := range []struct {
		name   string
		rules  [2]pktio.MatchSpec
		frames [3]pkt.Packet // tenant 0's, tenant 1's, and a stray
	}{
		{"port", [2]pktio.MatchSpec{byPort(8080), byPort(8081)}, [3]pkt.Packet{
			{Tuple: withPort(8080), Payload: []byte("tenant-A private payload")},
			{Tuple: withPort(8081), Payload: []byte("tenant-B private payload")},
			{Tuple: withPort(8083), Payload: []byte("stray")},
		}},
		{"vni", [2]pktio.MatchSpec{{VNI: 1001}, {VNI: 2002}}, [3]pkt.Packet{
			{Tuple: inner, Payload: []byte("green secret"), VNI: 1001},
			{Tuple: inner, Payload: []byte("blue secret"), VNI: 2002},
			{Tuple: inner, Payload: []byte("stray tenant"), VNI: 3003},
		}},
	} {
		for _, model := range Models() {
			t.Run(tc.name+"/"+model, func(t *testing.T) {
				dev := build(t, model)
				var ids [2]FuncID
				for i, rule := range tc.rules {
					id, err := dev.Launch(FuncSpec{
						Name: fmt.Sprintf("tenant-%d", i), MemBytes: 256 << 10,
						Rules: []pktio.MatchSpec{rule},
					})
					if err != nil {
						t.Fatal(err)
					}
					ids[i] = id
				}
				for i, p := range tc.frames {
					want := FuncID(0)
					if i < len(ids) {
						want = ids[i]
					}
					owner, err := dev.Inject(p.Marshal())
					if err != nil {
						t.Fatal(err)
					}
					if owner != want {
						t.Fatalf("frame %d (%q) steered to %d, want %d", i, p.Payload, owner, want)
					}
				}
				for i, id := range ids {
					raw, err := dev.Retrieve(id)
					if err != nil {
						t.Fatal(err)
					}
					got, err := pkt.Parse(raw)
					if err != nil {
						t.Fatal(err)
					}
					if want := tc.frames[i]; string(got.Payload) != string(want.Payload) || got.VNI != want.VNI {
						t.Errorf("tenant %d decapsulated VNI %d payload %q, want VNI %d %q",
							i, got.VNI, got.Payload, want.VNI, want.Payload)
					}
					if _, err := dev.Retrieve(id); !errors.Is(err, ErrNoFrame) {
						t.Errorf("tenant %d holds a frame it does not own: %v", i, err)
					}
				}
			})
		}
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
				if cores := n.Resources().Cores; n.FreeCores() != cores {
					t.Errorf("after the run: %d/%d cores free", n.FreeCores(), cores)
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
			r, spec := dev.Resources(), testSpec(model)
			if r.Cores != spec.Cores {
				t.Fatalf("Resources().Cores = %d, spec %d", r.Cores, spec.Cores)
			}
			if r.MemBytes != spec.MemBytes {
				t.Fatalf("Resources().MemBytes = %d, spec %d", r.MemBytes, spec.MemBytes)
			}
			if r.TLBEntries != spec.Cores*TLBEntriesPerCore {
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

// TestConformanceObserve: attaching instrumentation never panics, a nil
// registry is a no-op, commodity models register no series, and S-NIC
// reports its counters and trusted-instruction spans.
func TestConformanceObserve(t *testing.T) {
	empty := obs.NewRegistry()
	for _, model := range Models() {
		t.Run(model, func(t *testing.T) {
			dev := build(t, model)
			dev.Observe(nil, "conf")
			reg := obs.NewRegistry()
			dev.Observe(reg, "conf")
			id, err := dev.Launch(FuncSpec{Name: "a", MemBytes: 256 << 10})
			if err != nil {
				t.Fatal(err)
			}
			if err := dev.Teardown(id); err != nil {
				t.Fatal(err)
			}
			metrics, trace := reg.DumpMetrics(), reg.TraceText()
			if _, native := dev.(*SNIC); !native {
				if metrics != empty.DumpMetrics() || trace != empty.TraceText() {
					t.Fatalf("commodity model registered series:\n%s%s", metrics, trace)
				}
				return
			}
			if metrics == empty.DumpMetrics() {
				t.Fatal("S-NIC registered no metric series")
			}
			if !strings.Contains(trace, "track conf") {
				t.Fatalf("S-NIC trace has no conf track:\n%s", trace)
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
	defer func() {
		if recover() == nil {
			t.Fatal("Sub underflow should panic")
		}
	}()
	_ = d.Sub(cap)
}
