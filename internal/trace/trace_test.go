package trace

import (
	"bytes"
	"encoding/binary"
	"testing"

	"snic/internal/pkt"
	"snic/internal/sim"
)

func TestPoolFlowsDistinct(t *testing.T) {
	p := NewPoolTemplate(sim.NewRand(1), 1000, 1.1).Pool()
	seen := map[[16]byte]bool{}
	for i := 0; i < len(p.flows); i++ {
		k := p.Flow(i).Key()
		if seen[k] {
			t.Fatal("duplicate flow in pool")
		}
		seen[k] = true
	}
}

func TestPoolZipfSkew(t *testing.T) {
	p := NewICTF(sim.NewRand(2), 10000)
	counts := make([]int, len(p.flows))
	for i := 0; i < 200000; i++ {
		counts[p.NextFlow()]++
	}
	if counts[0] < 10*counts[999] {
		t.Fatalf("skew too weak: rank0=%d rank999=%d", counts[0], counts[999])
	}
}

func TestICTFDefaultSize(t *testing.T) {
	p := NewICTF(sim.NewRand(3), 0)
	if len(p.flows) != 100000 {
		t.Fatalf("default pool = %d flows", len(p.flows))
	}
}

func TestNextPacketParsable(t *testing.T) {
	p := NewICTF(sim.NewRand(4), 100)
	for i := 0; i < 50; i++ {
		idx, pk := p.NextPacket(IMIXLen(sim.NewRand(uint64(i + 1))))
		if idx < 0 || idx >= len(p.flows) {
			t.Fatalf("flow index %d", idx)
		}
		got, err := pkt.Parse(pk.Marshal())
		if err != nil {
			t.Fatalf("packet %d unparsable: %v", i, err)
		}
		if got.Tuple != p.Flow(idx) {
			t.Fatal("packet tuple mismatch")
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := NewICTF(sim.NewRand(7), 500)
	b := NewICTF(sim.NewRand(7), 500)
	for i := 0; i < 100; i++ {
		if a.NextFlow() != b.NextFlow() {
			t.Fatal("pools diverge under same seed")
		}
	}
}

// drain exhausts the advanced horizon and returns the packet count.
func drain(c *CAIDAStream) int {
	n := 0
	for {
		if _, _, ok := c.Next(); !ok {
			return n
		}
		n++
	}
}

func TestCAIDAFlowRate(t *testing.T) {
	c := NewCAIDA(sim.NewRand(5), 1000)
	c.Advance(10, 1)
	drain(c)
	if c.TotalFlows() != 10000 {
		t.Fatalf("flows = %d, want 10000", c.TotalFlows())
	}
}

func TestCAIDADefaultRate(t *testing.T) {
	c := NewCAIDA(sim.NewRand(5), 0)
	c.Advance(60, 1) // one minute at the CAIDA-like default rate
	drain(c)
	got := float64(c.TotalFlows())
	if got < 26.7e6/60*0.99 || got > 26.7e6/60*1.01 {
		t.Fatalf("minute of flows = %v, want ~445k", got)
	}
}

func TestCAIDAPerFlowPackets(t *testing.T) {
	c := NewCAIDA(sim.NewRand(6), 100)
	c.Advance(1, 3)
	if got := drain(c); got != 300 {
		t.Fatalf("packets = %d", got)
	}
	if c.Pos() != 300 {
		t.Fatalf("pos = %d", c.Pos())
	}
}

func TestCAIDAIncrementalAdvanceMatchesOneShot(t *testing.T) {
	// Draining in many small Advance steps must yield the same tuple
	// sequence as one big step: the horizon only controls when Next stops,
	// never what it generates.
	one := NewCAIDA(sim.NewRand(9), 500)
	one.Advance(10, 2)
	inc := NewCAIDA(sim.NewRand(9), 500)
	for step := 0; step < 100; step++ {
		inc.Advance(0.1, 2)
		for {
			wantIdx, wantPkt, ok := inc.Next()
			if !ok {
				break
			}
			gotIdx, gotPkt, ok := one.Next()
			if !ok {
				t.Fatal("one-shot stream exhausted early")
			}
			if gotIdx != wantIdx || gotPkt.Tuple != wantPkt.Tuple {
				t.Fatalf("diverged at pos %d", one.Pos())
			}
		}
	}
	if one.Pos() != inc.Pos() || one.TotalFlows() != inc.TotalFlows() {
		t.Fatalf("pos %d vs %d, flows %d vs %d", one.Pos(), inc.Pos(), one.TotalFlows(), inc.TotalFlows())
	}
}

func TestCAIDABudgetShares(t *testing.T) {
	var sum uint64
	for i := 0; i < 7; i++ {
		c := CAIDAShard(42, "window", i, 7, 1000, 3)
		if got := drain(c); got != int(ShardShare(1000, i, 7))*3 {
			t.Fatalf("shard %d drained %d packets", i, got)
		}
		sum += c.TotalFlows()
	}
	if sum != 1000 {
		t.Fatalf("shards cover %d flows, want 1000", sum)
	}
}

func TestCAIDAShardsAreDecorrelated(t *testing.T) {
	a := CAIDAShard(42, "window", 0, 4, 400, 1)
	b := CAIDAShard(42, "window", 1, 4, 400, 1)
	same := 0
	for {
		_, pa, ok := a.Next()
		if !ok {
			break
		}
		_, pb, ok := b.Next()
		if !ok {
			break
		}
		if pa.Tuple == pb.Tuple {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("%d identical tuples across shards", same)
	}
}

func TestFirewallRulesShape(t *testing.T) {
	rules := FirewallRules(sim.NewRand(8), 643)
	if len(rules) != 643 {
		t.Fatalf("%d rules", len(rules))
	}
	drops := 0
	for _, r := range rules {
		if r.Drop {
			drops++
		}
	}
	if drops < 300 || drops > 600 {
		t.Fatalf("drop mix = %d/643", drops)
	}
}

func TestFirewallRuleMatching(t *testing.T) {
	r := FirewallRule{
		SrcIP: 0x0A000000, SrcMask: 0xFF000000,
		DstIP: 0, DstMask: 0,
		SrcPortLo: 0, SrcPortHi: 65535,
		DstPortLo: 80, DstPortHi: 80,
		Proto: 6,
	}
	if !r.Matches(0x0A010203, 0x01020304, 1234, 80, 6) {
		t.Fatal("expected match")
	}
	if r.Matches(0x0B010203, 0x01020304, 1234, 80, 6) {
		t.Fatal("src prefix ignored")
	}
	if r.Matches(0x0A010203, 0x01020304, 1234, 81, 6) {
		t.Fatal("dst port ignored")
	}
	if r.Matches(0x0A010203, 0x01020304, 1234, 80, 17) {
		t.Fatal("proto ignored")
	}
}

func TestDPIPatternsShape(t *testing.T) {
	pats := DPIPatterns(sim.NewRand(9), 2000)
	if len(pats) != 2000 {
		t.Fatalf("%d patterns", len(pats))
	}
	seen := map[string]bool{}
	for _, p := range pats {
		if len(p) < 4 || len(p) > 64 {
			t.Fatalf("pattern length %d", len(p))
		}
		if seen[string(p)] {
			t.Fatal("duplicate pattern")
		}
		seen[string(p)] = true
	}
}

func TestRoutesShape(t *testing.T) {
	routes := Routes(sim.NewRand(10), 16000)
	if len(routes) != 16000 {
		t.Fatalf("%d routes", len(routes))
	}
	seen := map[uint64]bool{}
	for _, r := range routes {
		if r.Length < 8 || r.Length > 32 {
			t.Fatalf("length %d", r.Length)
		}
		if r.Prefix&^maskOf(r.Length) != 0 {
			t.Fatal("prefix has host bits set")
		}
		k := uint64(r.Prefix)<<8 | uint64(r.Length)
		if seen[k] {
			t.Fatal("duplicate route")
		}
		seen[k] = true
	}
}

func TestBackends(t *testing.T) {
	b := Backends(300)
	if len(b) != 300 || b[0] == b[299] {
		t.Fatal("backend naming broken")
	}
}

func TestIMIXLenValues(t *testing.T) {
	rng := sim.NewRand(11)
	small, med, large := 0, 0, 0
	for i := 0; i < 10000; i++ {
		switch IMIXLen(rng) {
		case 26:
			small++
		case 536:
			med++
		case 1400:
			large++
		default:
			t.Fatal("unexpected IMIX length")
		}
	}
	if small < med || med < large {
		t.Fatalf("IMIX mix off: %d/%d/%d", small, med, large)
	}
}

func TestRecordReplayRoundTrip(t *testing.T) {
	pool := NewICTF(sim.NewRand(21), 200)
	frames := pool.Frames(500)
	var buf bytes.Buffer
	if err := SaveFrames(&buf, frames); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFrames(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(frames) {
		t.Fatalf("replayed %d frames", len(got))
	}
	for i := range frames {
		if !bytes.Equal(got[i], frames[i]) {
			t.Fatalf("frame %d differs", i)
		}
	}
	// Replayed frames still parse.
	for _, f := range got[:20] {
		if _, err := pkt.Parse(f); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLoadFramesRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("NOTATRACE"),
		append(append([]byte{}, recMagic[:]...), 0xFF, 0xFF, 0xFF, 0xFF), // count, no data
	}
	for i, c := range cases {
		if _, err := LoadFrames(bytes.NewReader(c)); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
	// Oversized frame length rejected.
	var buf bytes.Buffer
	buf.Write(recMagic[:])
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], 1)
	buf.Write(n[:])
	binary.LittleEndian.PutUint32(n[:], 1<<30)
	buf.Write(n[:])
	if _, err := LoadFrames(&buf); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestSaveFramesRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveFrames(&buf, [][]byte{make([]byte, maxFrame+1)}); err == nil {
		t.Fatal("oversized frame saved")
	}
}

func TestSaveEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveFrames(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFrames(&buf)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty trace: %d frames, %v", len(got), err)
	}
}
