package nf

import (
	"testing"

	"snic/internal/mem"
	"snic/internal/pkt"
	"snic/internal/sim"
	"snic/internal/trace"
)

func testPool(seed uint64) *trace.Pool {
	return trace.NewICTF(sim.NewRand(seed), 500)
}

func mkPacket(t pkt.FiveTuple, payload string) pkt.Packet {
	return pkt.Packet{Tuple: t, Payload: []byte(payload), TTL: 64}
}

func TestSuiteBuildsAllSix(t *testing.T) {
	s, err := Suite(TestScale(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 6 {
		t.Fatalf("suite has %d NFs", len(s))
	}
	for _, name := range Names {
		f, ok := s[name]
		if !ok {
			t.Fatalf("missing %s", name)
		}
		if f.Name() != name {
			t.Fatalf("name mismatch: %s vs %s", f.Name(), name)
		}
		if f.Arena().Peak() == 0 {
			t.Fatalf("%s has no memory profile", name)
		}
	}
}

func TestUnknownNF(t *testing.T) {
	if _, err := New("bogus", TestScale(1)); err == nil {
		t.Fatal("unknown NF accepted")
	}
	if _, err := PaperProfile("bogus"); err == nil {
		t.Fatal("unknown paper profile accepted")
	}
	if _, err := PaperUsedBytes("bogus"); err == nil {
		t.Fatal("unknown used bytes accepted")
	}
}

func TestPaperProfilesMatchPublishedTotals(t *testing.T) {
	// Table 6's published totals, in MB.
	totals := map[string]float64{
		"FW": 17.20, "DPI": 51.14, "NAT": 43.88, "LB": 13.80, "LPM": 68.33, "Mon": 360.54,
	}
	for name, want := range totals {
		p, err := PaperProfile(name)
		if err != nil {
			t.Fatal(err)
		}
		got := mem.MB(p.Total())
		if got < want-0.02 || got > want+0.02 {
			t.Errorf("%s total = %.2f MB, want %.2f", name, got, want)
		}
	}
}

func TestFirewallCachesDecisions(t *testing.T) {
	rng := sim.NewRand(2)
	fw := NewFirewall(trace.FirewallRules(rng, 64))
	p := mkPacket(pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}, "x")
	v1 := fw.Process(&p)
	if fw.CacheLen() != 1 {
		t.Fatalf("cache len = %d", fw.CacheLen())
	}
	v2 := fw.Process(&p)
	if v1 != v2 {
		t.Fatal("cached verdict differs")
	}
	if fw.Hits != 1 {
		t.Fatalf("hits = %d", fw.Hits)
	}
}

func TestFirewallDropsMatchingRule(t *testing.T) {
	rule := trace.FirewallRule{
		SrcIP: 0, SrcMask: 0, DstIP: 0, DstMask: 0,
		SrcPortLo: 0, SrcPortHi: 65535, DstPortLo: 0, DstPortHi: 65535,
		Proto: 0, Drop: true,
	}
	fw := NewFirewall([]trace.FirewallRule{rule})
	p := mkPacket(pkt.FiveTuple{Proto: 6}, "x")
	if v := fw.Process(&p); v != Drop {
		t.Fatalf("verdict = %v", v)
	}
	// A port rule drops only its port: telnet is blocked, HTTPS passes.
	telnet := trace.FirewallRule{SrcPortHi: 65535, DstPortLo: 23, DstPortHi: 23, Proto: pkt.ProtoTCP, Drop: true}
	fw = NewFirewall([]trace.FirewallRule{telnet})
	for port, want := range map[uint16]Verdict{23: Drop, 443: Pass} {
		p := mkPacket(pkt.FiveTuple{SrcPort: 40000, DstPort: port, Proto: pkt.ProtoTCP}, "x")
		if v := fw.Process(&p); v != want {
			t.Errorf("port %d: verdict = %v, want %v", port, v, want)
		}
	}
}

func TestFirewallCacheLimit(t *testing.T) {
	fw := NewFirewall(nil)
	// With no rules everything passes; the cache must respect its cap.
	for i := 0; i < 100; i++ {
		p := mkPacket(pkt.FiveTuple{SrcIP: uint32(i), Proto: 6}, "x")
		fw.Process(&p)
	}
	if fw.CacheLen() != 100 {
		t.Fatalf("cache len = %d", fw.CacheLen())
	}
}

func TestDPIDetects(t *testing.T) {
	d, err := NewDPI([][]byte{[]byte("EVIL"), []byte("exploit")}, true)
	if err != nil {
		t.Fatal(err)
	}
	bad := mkPacket(pkt.FiveTuple{Proto: 6}, "contains EVIL bytes")
	good := mkPacket(pkt.FiveTuple{Proto: 6}, "harmless")
	if d.Process(&bad) != Drop {
		t.Fatal("attack passed")
	}
	if d.Process(&good) != Pass {
		t.Fatal("clean packet dropped")
	}
	if d.Matches != 1 || d.Scanned != 2 {
		t.Fatalf("stats: %d matches %d scanned", d.Matches, d.Scanned)
	}
}

func TestDPIReportOnlyMode(t *testing.T) {
	d, _ := NewDPI([][]byte{[]byte("EVIL")}, false)
	bad := mkPacket(pkt.FiveTuple{Proto: 6}, "EVIL")
	if d.Process(&bad) != Pass {
		t.Fatal("IDS mode dropped")
	}
	if len(d.Alerts) != 1 {
		t.Fatalf("alerts = %d", len(d.Alerts))
	}
}

func TestNATTranslatesAndReverses(t *testing.T) {
	n := NewNAT(0xC6336401)
	orig := pkt.FiveTuple{SrcIP: 0x0A000001, DstIP: 0x08080808, SrcPort: 5555, DstPort: 80, Proto: 6}
	p := mkPacket(orig, "x")
	if v := n.Process(&p); v != Modified {
		t.Fatalf("outbound verdict %v", v)
	}
	if p.Tuple.SrcIP != 0xC6336401 || p.Tuple.SrcPort == 5555 {
		t.Fatalf("not translated: %+v", p.Tuple)
	}
	extPort := p.Tuple.SrcPort

	// Reply comes back to (external, extPort).
	reply := mkPacket(pkt.FiveTuple{
		SrcIP: 0x08080808, DstIP: 0xC6336401,
		SrcPort: 80, DstPort: extPort, Proto: 6,
	}, "y")
	if v := n.Process(&reply); v != Modified {
		t.Fatalf("inbound verdict %v", v)
	}
	if reply.Tuple.DstIP != orig.SrcIP || reply.Tuple.DstPort != orig.SrcPort {
		t.Fatalf("reverse translation wrong: %+v", reply.Tuple)
	}
}

func TestNATStableMapping(t *testing.T) {
	n := NewNAT(0xC6336401)
	orig := pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}
	p1 := mkPacket(orig, "a")
	p2 := mkPacket(orig, "b")
	n.Process(&p1)
	n.Process(&p2)
	if p1.Tuple.SrcPort != p2.Tuple.SrcPort {
		t.Fatal("same flow mapped to different ports")
	}
	if n.Flows() != 1 {
		t.Fatalf("flows = %d", n.Flows())
	}
}

func TestNATDropsUnsolicitedInbound(t *testing.T) {
	n := NewNAT(0xC6336401)
	p := mkPacket(pkt.FiveTuple{SrcIP: 9, DstIP: 0xC6336401, SrcPort: 1, DstPort: 9999, Proto: 6}, "x")
	if v := n.Process(&p); v != Drop {
		t.Fatalf("verdict = %v", v)
	}
}

func TestNATPortExhaustion(t *testing.T) {
	n := NewNAT(0xC6336401)
	n.maxFlows = 3
	for i := 0; i < 5; i++ {
		p := mkPacket(pkt.FiveTuple{SrcIP: uint32(i + 1), DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}, "x")
		n.Process(&p)
	}
	if n.Exhausted != 2 {
		t.Fatalf("exhausted = %d", n.Exhausted)
	}
}

func TestLBStickyAndBalanced(t *testing.T) {
	l, err := NewLB(trace.Backends(8))
	if err != nil {
		t.Fatal(err)
	}
	pool := testPool(3)
	chosen := map[uint32]int{}
	for i := 0; i < pool.NumFlows(); i++ {
		p := mkPacket(pool.Flow(i), "x")
		if l.Process(&p) != Modified {
			t.Fatal("LB did not rewrite")
		}
		first := p.Tuple.DstIP
		chosen[first]++
		// Same flow again must go to the same backend (connection table).
		q := mkPacket(pool.Flow(i), "y")
		l.Process(&q)
		if q.Tuple.DstIP != first {
			t.Fatal("flow not sticky")
		}
	}
	if len(chosen) != 8 {
		t.Fatalf("only %d backends used", len(chosen))
	}
}

func TestLPMRoutesAndDrops(t *testing.T) {
	routes := []trace.Route{{Prefix: 0x0A000000, Length: 8, NextHop: 7}}
	l, err := NewLPM(routes)
	if err != nil {
		t.Fatal(err)
	}
	in := mkPacket(pkt.FiveTuple{SrcIP: 1, DstIP: 0x0A010203, Proto: 6}, "x")
	if v := l.Process(&in); v != Modified {
		t.Fatalf("verdict %v", v)
	}
	if l.LastHop != 7 || in.TTL != 63 {
		t.Fatalf("hop=%d ttl=%d", l.LastHop, in.TTL)
	}
	out := mkPacket(pkt.FiveTuple{SrcIP: 1, DstIP: 0x0B010203, Proto: 6}, "x")
	if v := l.Process(&out); v != Drop {
		t.Fatalf("unroutable verdict %v", v)
	}
}

func TestMonitorCounts(t *testing.T) {
	m := NewMonitor(nil)
	a := pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}
	b := pkt.FiveTuple{SrcIP: 5, DstIP: 6, SrcPort: 7, DstPort: 8, Proto: 17}
	for i := 0; i < 5; i++ {
		p := mkPacket(a, "x")
		m.Process(&p)
	}
	p := mkPacket(b, "y")
	m.Process(&p)
	if m.Count(a) != 5 || m.Count(b) != 1 || m.Flows() != 2 {
		t.Fatalf("counts: %d %d flows %d", m.Count(a), m.Count(b), m.Flows())
	}
}

func TestMonitorMemoryGrowsWithFlows(t *testing.T) {
	var series []uint64
	m := NewMonitor(func(live uint64) { series = append(series, live) })
	base := m.Arena().Live()
	rng := sim.NewRand(4)
	for i := 0; i < 50000; i++ {
		p := mkPacket(pkt.FiveTuple{SrcIP: rng.Uint32(), DstIP: rng.Uint32(), Proto: 6}, "x")
		m.Process(&p)
	}
	if m.Arena().Live() <= base {
		t.Fatal("no growth")
	}
	// The startup staging spike must appear in the series before growth.
	var sawSpike bool
	for i := 1; i < len(series); i++ {
		if series[i] < series[i-1] {
			sawSpike = true
			break
		}
	}
	if !sawSpike {
		t.Fatal("no transient spike in memory series")
	}
}

func TestStreamsProduceOps(t *testing.T) {
	s, err := Suite(TestScale(5))
	if err != nil {
		t.Fatal(err)
	}
	pool := testPool(6)
	for _, name := range Names {
		st := s[name].NewStream(sim.NewRand(7), pool, mem.Addr(1)<<30)
		loads, stores, computes := 0, 0, 0
		for i := 0; i < 2000; i++ {
			op, ok := st.Next()
			if !ok {
				t.Fatalf("%s stream ended", name)
			}
			switch op.Kind {
			case 1:
				loads++
			case 2:
				stores++
			default:
				computes++
			}
		}
		if loads == 0 || stores == 0 || computes == 0 {
			t.Fatalf("%s op mix: %d/%d/%d", name, loads, stores, computes)
		}
	}
}

func TestStreamDeterminism(t *testing.T) {
	s1, _ := New("NAT", TestScale(9))
	s2, _ := New("NAT", TestScale(9))
	a := s1.NewStream(sim.NewRand(1), testPool(1), 0)
	b := s2.NewStream(sim.NewRand(1), testPool(1), 0)
	for i := 0; i < 5000; i++ {
		x, _ := a.Next()
		y, _ := b.Next()
		if x != y {
			t.Fatalf("streams diverge at op %d", i)
		}
	}
}

func TestVerdictString(t *testing.T) {
	if Pass.String() != "pass" || Drop.String() != "drop" || Modified.String() != "modified" {
		t.Fatal("verdict names")
	}
}

func TestFirewallEvictsOldestAtCapacity(t *testing.T) {
	fw := NewFirewall(nil)
	// Shrink the limit via direct fill: exercise eviction with 100 flows
	// over the real cap would be slow, so fill to the cap boundary using
	// the real constant only if small; instead simulate by filling then
	// checking eviction bookkeeping on overflow of a few entries.
	for i := 0; i < FirewallCacheLimit+50; i++ {
		p := mkPacket(pkt.FiveTuple{SrcIP: uint32(i), DstIP: 1, SrcPort: 2, DstPort: 3, Proto: 6}, "x")
		fw.Process(&p)
	}
	if fw.CacheLen() != FirewallCacheLimit {
		t.Fatalf("cache len = %d, want cap %d", fw.CacheLen(), FirewallCacheLimit)
	}
	if fw.Evicted != 50 {
		t.Fatalf("evicted = %d", fw.Evicted)
	}
	// The newest flows are cached; the very first is not.
	oldest := mkPacket(pkt.FiveTuple{SrcIP: 0, DstIP: 1, SrcPort: 2, DstPort: 3, Proto: 6}, "x")
	h := fw.Hits
	fw.Process(&oldest)
	if fw.Hits != h {
		t.Fatal("evicted flow still cached")
	}
}

func TestMonitorTopK(t *testing.T) {
	m := NewMonitor(nil)
	heavy := pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}
	mid := pkt.FiveTuple{SrcIP: 5, DstIP: 6, SrcPort: 7, DstPort: 8, Proto: 6}
	light := pkt.FiveTuple{SrcIP: 9, DstIP: 10, SrcPort: 11, DstPort: 12, Proto: 6}
	for i := 0; i < 10; i++ {
		p := mkPacket(heavy, "x")
		m.Process(&p)
	}
	for i := 0; i < 5; i++ {
		p := mkPacket(mid, "x")
		m.Process(&p)
	}
	p := mkPacket(light, "x")
	m.Process(&p)
	top := m.TopK(2)
	if len(top) != 2 || top[0].Count != 10 || top[1].Count != 5 {
		t.Fatalf("top2 = %+v", top)
	}
	if top[0].Key != heavy.Key() {
		t.Fatal("wrong heavy hitter")
	}
	if m.TopK(0) != nil {
		t.Fatal("TopK(0) should be nil")
	}
	if len(m.TopK(100)) != 3 {
		t.Fatal("TopK over-count")
	}
}
