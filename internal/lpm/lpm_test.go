package lpm

import (
	"testing"
	"testing/quick"

	"snic/internal/sim"
	"snic/internal/trace"
)

func ip(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}

func TestBasicLookup(t *testing.T) {
	tbl := New()
	if err := tbl.Insert(ip(10, 0, 0, 0), 8, 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(ip(10, 1, 0, 0), 16, 2); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		addr uint32
		nh   uint16
		ok   bool
	}{
		{ip(10, 0, 0, 1), 1, true},
		{ip(10, 1, 2, 3), 2, true}, // longer prefix wins
		{ip(10, 255, 0, 1), 1, true},
		{ip(11, 0, 0, 1), 0, false},
	}
	for _, c := range cases {
		nh, ok := tbl.Lookup(c.addr)
		if ok != c.ok || (ok && nh != c.nh) {
			t.Errorf("Lookup(%x) = %d,%v want %d,%v", c.addr, nh, ok, c.nh, c.ok)
		}
	}
}

func TestLongPrefixesUseTBL8(t *testing.T) {
	tbl := New()
	tbl.Insert(ip(192, 168, 1, 0), 24, 10)
	tbl.Insert(ip(192, 168, 1, 128), 25, 20)
	tbl.Insert(ip(192, 168, 1, 200), 30, 30)
	checks := []struct {
		addr uint32
		nh   uint16
	}{
		{ip(192, 168, 1, 5), 10},
		{ip(192, 168, 1, 129), 20},
		{ip(192, 168, 1, 201), 30},
		{ip(192, 168, 1, 255), 20},
	}
	for _, c := range checks {
		nh, ok := tbl.Lookup(c.addr)
		if !ok || nh != c.nh {
			t.Errorf("Lookup(%x) = %d,%v want %d", c.addr, nh, ok, c.nh)
		}
	}
}

func TestHostRoute(t *testing.T) {
	tbl := New()
	tbl.Insert(ip(1, 2, 3, 4), 32, 7)
	if nh, ok := tbl.Lookup(ip(1, 2, 3, 4)); !ok || nh != 7 {
		t.Fatal("host route missed")
	}
	if _, ok := tbl.Lookup(ip(1, 2, 3, 5)); ok {
		t.Fatal("host route overmatched")
	}
}

func TestInsertOrderIndependence(t *testing.T) {
	a, b := New(), New()
	a.Insert(ip(10, 0, 0, 0), 8, 1)
	a.Insert(ip(10, 1, 0, 0), 16, 2)
	a.Insert(ip(10, 1, 1, 128), 25, 3)
	b.Insert(ip(10, 1, 1, 128), 25, 3)
	b.Insert(ip(10, 1, 0, 0), 16, 2)
	b.Insert(ip(10, 0, 0, 0), 8, 1)
	for _, addr := range []uint32{ip(10, 0, 5, 5), ip(10, 1, 9, 9), ip(10, 1, 1, 129), ip(10, 1, 1, 1)} {
		na, oka := a.Lookup(addr)
		nb, okb := b.Lookup(addr)
		if na != nb || oka != okb {
			t.Fatalf("order dependence at %x: %d,%v vs %d,%v", addr, na, oka, nb, okb)
		}
	}
}

func TestDefaultRoute(t *testing.T) {
	tbl := New()
	tbl.Insert(0, 0, 99)
	if nh, ok := tbl.Lookup(ip(203, 0, 113, 7)); !ok || nh != 99 {
		t.Fatal("default route missed")
	}
}

func TestBadLengthRejected(t *testing.T) {
	tbl := New()
	if err := tbl.Insert(0, 33, 1); err == nil {
		t.Fatal("length 33 accepted")
	}
	if err := tbl.Insert(0, -1, 1); err == nil {
		t.Fatal("negative length accepted")
	}
}

func TestReinsertOverwrites(t *testing.T) {
	tbl := New()
	tbl.Insert(ip(10, 0, 0, 0), 8, 1)
	tbl.Insert(ip(10, 0, 0, 0), 8, 5)
	if nh, _ := tbl.Lookup(ip(10, 9, 9, 9)); nh != 5 {
		t.Fatalf("nh = %d", nh)
	}
	if tbl.Len() != 1 {
		t.Fatalf("len = %d", tbl.Len())
	}
}

func TestMemoryBytesDominatedByTBL24(t *testing.T) {
	tbl := New()
	if tbl.MemoryBytes() < (1<<24)*EntryBytes {
		t.Fatal("TBL24 not accounted")
	}
}

// TestMemoryBytesChargesDIR248 pins the modelled footprint the Table 6
// LPM heap and the LPM stream's region are read from: 4 B per TBL24
// entry, 1 KB per TBL8 pool (one per /24 holding a longer route), and
// 16 B per route.
func TestMemoryBytesChargesDIR248(t *testing.T) {
	const tbl24 = (1 << 24) * EntryBytes
	hand := New()
	hand.Insert(ip(10, 1, 1, 0), 25, 1)
	hand.Insert(ip(10, 1, 1, 128), 25, 2) // same /24: no second pool
	hand.Insert(ip(10, 2, 0, 0), 16, 3)   // /24 or shorter: no pool
	hand.Insert(ip(10, 3, 3, 0), 24, 4)
	if got, want := hand.MemoryBytes(), uint64(tbl24+1024+4*16); got != want {
		t.Errorf("two /25s in one /24 plus a /16 and a /24: MemoryBytes = %d, want %d", got, want)
	}
	for _, c := range []struct {
		n    int
		want uint64
	}{{4000, 67704320}, {16000, 69614592}} {
		tbl := New()
		for _, r := range trace.Routes(sim.NewRand(1), c.n) {
			if err := tbl.Insert(r.Prefix, r.Length, r.NextHop); err != nil {
				t.Fatal(err)
			}
		}
		if got := tbl.MemoryBytes(); got != c.want {
			t.Errorf("trace.Routes(NewRand(1), %d): MemoryBytes = %d, want %d", c.n, got, c.want)
		}
	}
}

// naive reference: linear scan for the longest matching prefix.
type refRoute struct {
	prefix uint32
	length int
	nh     uint16
}

func refLookup(routes []refRoute, addr uint32) (uint16, bool) {
	best := -1
	var nh uint16
	for _, r := range routes {
		if addr&prefixMask(r.length) == r.prefix&prefixMask(r.length) && r.length > best {
			best = r.length
			nh = r.nh
		}
	}
	return nh, best >= 0
}

// Property: DIR-24-8 agrees with the naive longest-prefix scan.
func TestMatchesNaiveProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		// Random routes clustered so overlaps actually happen.
		n := 1 + rng.Intn(20)
		routes := make([]refRoute, 0, n)
		tbl := New()
		for i := 0; i < n; i++ {
			length := rng.Intn(33)
			prefix := (uint32(rng.Intn(4))<<24 | uint32(rng.Uint32())&0x00FFFFFF) & prefixMask(length)
			nh := uint16(rng.Intn(100))
			// Deduplicate prefixes in the reference the same way Insert does.
			replaced := false
			for j := range routes {
				if routes[j].prefix == prefix && routes[j].length == length {
					routes[j].nh = nh
					replaced = true
					break
				}
			}
			if !replaced {
				routes = append(routes, refRoute{prefix, length, nh})
			}
			if err := tbl.Insert(prefix, length, nh); err != nil {
				return false
			}
		}
		for trial := 0; trial < 200; trial++ {
			addr := uint32(rng.Intn(4))<<24 | uint32(rng.Uint32())&0x00FFFFFF
			wantNH, wantOK := refLookup(routes, addr)
			gotNH, gotOK := tbl.Lookup(addr)
			if wantOK != gotOK || (wantOK && wantNH != gotNH) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookup(b *testing.B) {
	tbl := New()
	rng := sim.NewRand(1)
	for i := 0; i < 16000; i++ {
		length := 8 + rng.Intn(25)
		tbl.Insert(rng.Uint32()&prefixMask(length), length, uint16(rng.Intn(256)))
	}
	addrs := make([]uint32, 1024)
	for i := range addrs {
		addrs[i] = rng.Uint32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Lookup(addrs[i&1023])
	}
}
