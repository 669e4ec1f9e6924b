package pktio

import (
	"bytes"
	"strconv"
	"testing"

	"snic/internal/mem"
	"snic/internal/obs"
	"snic/internal/pkt"
	"snic/internal/tlb"
)

const page = 128 << 10

func setup(t *testing.T) (*mem.Physical, *Switch) {
	t.Helper()
	pm, err := mem.NewPhysical(32<<20, page)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSwitch(pm, 2<<20, 1<<20)
	s.Observe(obs.NewRegistry(), "nic")
	return pm, s
}

// counter reads one of the switch's pktio counters: a tenant's for an
// NF owner, the device-wide one for mem.Free.
func counter(s *Switch, owner mem.Owner, name string) uint64 {
	tenant := "-"
	if owner != mem.Free {
		tenant = "nf" + strconv.Itoa(int(owner))
	}
	return s.obsReg.Counter(obs.Label{Device: "nic", Owner: tenant, Component: "pktio", Name: name}).Value()
}

// makeVPP allocates a ring for owner and creates its VPP.
func makeVPP(t *testing.T, pm *mem.Physical, s *Switch, owner mem.Owner) (*VPP, mem.Range) {
	t.Helper()
	r, err := pm.AllocBytes(owner, page)
	if err != nil {
		t.Fatal(err)
	}
	entries := []tlb.Entry{{VA: 0, PA: r.Start, Size: page, Perm: tlb.PermRW}}
	v, err := s.CreateVPP(owner, 256<<10, 256<<10, entries, 0, 16, 2048)
	if err != nil {
		t.Fatal(err)
	}
	return v, r
}

func frameFor(dstPort uint16, payload string) []byte {
	p := pkt.Packet{
		Tuple: pkt.FiveTuple{
			SrcIP: 0x0A000001, DstIP: 0x0A000002,
			SrcPort: 1111, DstPort: dstPort, Proto: pkt.ProtoTCP,
		},
		Payload: []byte(payload),
	}
	return p.Marshal()
}

func TestDeliverToMatchingVPP(t *testing.T) {
	pm, s := setup(t)
	v, r := makeVPP(t, pm, s, mem.FirstNF)
	if err := s.AddRule(Rule{
		Spec:   MatchSpec{Proto: pkt.ProtoTCP, DstPortLo: 80, DstPortHi: 80},
		Target: mem.FirstNF,
	}); err != nil {
		t.Fatal(err)
	}
	owner, err := s.Deliver(frameFor(80, "hello nf"))
	if err != nil {
		t.Fatal(err)
	}
	if owner != mem.FirstNF || counter(s, owner, "rx_packets") != 1 {
		t.Fatalf("owner=%d delivered=%d", owner, counter(s, owner, "rx_packets"))
	}
	d, ok := v.Pop()
	if !ok {
		t.Fatal("no descriptor")
	}
	// The frame must be present in the NF's own DRAM.
	raw := make([]byte, d.Len)
	pm.Read(r.Start+mem.Addr(uint64(d.VA)), raw)
	got, err := pkt.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "hello nf" {
		t.Fatalf("payload = %q", got.Payload)
	}
}

func TestNoMatchDropped(t *testing.T) {
	pm, s := setup(t)
	makeVPP(t, pm, s, mem.FirstNF)
	s.AddRule(Rule{Spec: MatchSpec{DstPortLo: 80, DstPortHi: 80}, Target: mem.FirstNF})
	owner, err := s.Deliver(frameFor(443, "x"))
	if err != nil || owner != mem.Free {
		t.Fatalf("owner=%d err=%v", owner, err)
	}
	if n := counter(s, mem.Free, "no_match"); n != 1 {
		t.Fatalf("no_match = %d", n)
	}
}

func TestRuleOrderFirstMatchWins(t *testing.T) {
	pm, s := setup(t)
	vA, _ := makeVPP(t, pm, s, mem.FirstNF)
	vB, _ := makeVPP(t, pm, s, mem.FirstNF+1)
	s.AddRule(Rule{Spec: MatchSpec{DstPortLo: 80, DstPortHi: 80}, Target: mem.FirstNF})
	s.AddRule(Rule{Spec: MatchSpec{}, Target: mem.FirstNF + 1}) // catch-all
	s.Deliver(frameFor(80, "a"))
	s.Deliver(frameFor(443, "b"))
	a, b := counter(s, vA.Owner, "rx_packets"), counter(s, vB.Owner, "rx_packets")
	if a != 1 || b != 1 {
		t.Fatalf("deliveries: %d, %d", a, b)
	}
}

func TestVNISteering(t *testing.T) {
	pm, s := setup(t)
	v42, _ := makeVPP(t, pm, s, mem.FirstNF)
	v43, _ := makeVPP(t, pm, s, mem.FirstNF+1)
	s.AddRule(Rule{Spec: MatchSpec{VNI: 42}, Target: mem.FirstNF})
	s.AddRule(Rule{Spec: MatchSpec{VNI: 43}, Target: mem.FirstNF + 1})
	mk := func(vni uint32) []byte {
		p := pkt.Packet{
			Tuple:   pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: pkt.ProtoTCP},
			Payload: []byte("tenant"),
			VNI:     vni,
		}
		return p.Marshal()
	}
	s.Deliver(mk(42))
	s.Deliver(mk(43))
	s.Deliver(mk(44))
	a, b, none := counter(s, v42.Owner, "rx_packets"), counter(s, v43.Owner, "rx_packets"), counter(s, mem.Free, "no_match")
	if a != 1 || b != 1 || none != 1 {
		t.Fatalf("deliveries %d/%d nomatch %d", a, b, none)
	}
}

func TestRingTailDrop(t *testing.T) {
	pm, s := setup(t)
	r, _ := pm.AllocBytes(mem.FirstNF, page)
	entries := []tlb.Entry{{VA: 0, PA: r.Start, Size: page, Perm: tlb.PermRW}}
	v, err := s.CreateVPP(mem.FirstNF, 256<<10, 256<<10, entries, 0, 2, 2048)
	if err != nil {
		t.Fatal(err)
	}
	s.AddRule(Rule{Spec: MatchSpec{}, Target: mem.FirstNF})
	for i := 0; i < 5; i++ {
		s.Deliver(frameFor(80, "x"))
	}
	delivered, dropped := counter(s, v.Owner, "rx_packets"), counter(s, v.Owner, "rx_dropped_full")
	if delivered != 2 || dropped != 3 {
		t.Fatalf("delivered=%d dropped=%d", delivered, dropped)
	}
}

func TestBufferReservationExhaustion(t *testing.T) {
	pm, s := setup(t) // 2MB RX capacity
	r, _ := pm.AllocBytes(mem.FirstNF, page)
	entries := []tlb.Entry{{VA: 0, PA: r.Start, Size: page, Perm: tlb.PermRW}}
	if _, err := s.CreateVPP(mem.FirstNF, 2<<20, 1<<10, entries, 0, 4, 2048); err != nil {
		t.Fatal(err)
	}
	r2, _ := pm.AllocBytes(mem.FirstNF+1, page)
	entries2 := []tlb.Entry{{VA: 0, PA: r2.Start, Size: page, Perm: tlb.PermRW}}
	if _, err := s.CreateVPP(mem.FirstNF+1, 1<<10, 1<<10, entries2, 0, 4, 2048); err == nil {
		t.Fatal("RX overcommit accepted")
	}
	// Destroying the first frees the space.
	if !s.DestroyVPP(mem.FirstNF) {
		t.Fatal("destroy failed")
	}
	if _, err := s.CreateVPP(mem.FirstNF+1, 1<<10, 1<<10, entries2, 0, 4, 2048); err != nil {
		t.Fatalf("after destroy: %v", err)
	}
}

func TestDestroyRemovesRules(t *testing.T) {
	pm, s := setup(t)
	makeVPP(t, pm, s, mem.FirstNF)
	s.AddRule(Rule{Spec: MatchSpec{}, Target: mem.FirstNF})
	s.DestroyVPP(mem.FirstNF)
	owner, err := s.Deliver(frameFor(80, "x"))
	if err != nil || owner != mem.Free {
		t.Fatalf("owner=%d err=%v", owner, err)
	}
}

func TestRuleWithoutVPPRejected(t *testing.T) {
	_, s := setup(t)
	if err := s.AddRule(Rule{Target: mem.FirstNF}); err == nil {
		t.Fatal("dangling rule accepted")
	}
}

func TestDuplicateVPPRejected(t *testing.T) {
	pm, s := setup(t)
	makeVPP(t, pm, s, mem.FirstNF)
	r, _ := pm.AllocBytes(mem.FirstNF, page)
	entries := []tlb.Entry{{VA: 0, PA: r.Start, Size: page, Perm: tlb.PermRW}}
	if _, err := s.CreateVPP(mem.FirstNF, 1, 1, entries, 0, 4, 2048); err == nil {
		t.Fatal("duplicate VPP accepted")
	}
}

func TestTransmit(t *testing.T) {
	pm, s := setup(t)
	_, r := makeVPP(t, pm, s, mem.FirstNF)
	frame := frameFor(80, "egress")
	pm.Write(r.Start+mem.Addr(4096), frame)
	var wire []byte
	err := s.Transmit(mem.FirstNF, tlb.VAddr(4096), len(frame), func(f []byte) { wire = f })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire, frame) {
		t.Fatal("transmitted frame mismatch")
	}
}

func TestTransmitEnforcesReservation(t *testing.T) {
	pm, s := setup(t)
	makeVPP(t, pm, s, mem.FirstNF)
	if err := s.Transmit(mem.FirstNF, 0, 1<<20, nil); err == nil {
		t.Fatal("oversized transmit accepted")
	}
	if err := s.Transmit(mem.FirstNF+9, 0, 64, nil); err == nil {
		t.Fatal("transmit without VPP accepted")
	}
}

func TestSchedulerTLBConfinesWrites(t *testing.T) {
	// The scheduler can only write within the mapped ring page: a ring
	// that claims to extend beyond its mapping faults rather than
	// scribbling on someone else's memory.
	pm, s := setup(t)
	r, _ := pm.AllocBytes(mem.FirstNF, page)
	entries := []tlb.Entry{{VA: 0, PA: r.Start, Size: page, Perm: tlb.PermRW}}
	_, err := s.CreateVPP(mem.FirstNF, 256<<10, 256<<10, entries, tlb.VAddr(page-1024), 8, 2048)
	if err != nil {
		t.Fatal(err)
	}
	s.AddRule(Rule{Spec: MatchSpec{}, Target: mem.FirstNF})
	big := make([]byte, 1400) // frame crosses the mapping's last page
	for i := range big {
		big[i] = 'A'
	}
	if _, err := s.Deliver(frameFor(80, string(big))); err == nil {
		t.Fatal("out-of-mapping scheduler write succeeded")
	}
}

func TestMatchSpecWildcards(t *testing.T) {
	p := pkt.Packet{Tuple: pkt.FiveTuple{SrcIP: 0x01020304, DstIP: 0x05060708, DstPort: 443, Proto: 6}}
	if !(MatchSpec{}).Matches(&p) {
		t.Fatal("empty spec should match everything")
	}
	if !(MatchSpec{DstIP: 0x05060000, DstMask: 0xFFFF0000}).Matches(&p) {
		t.Fatal("prefix match failed")
	}
	if (MatchSpec{Proto: 17}).Matches(&p) {
		t.Fatal("proto wildcard wrong")
	}
}
