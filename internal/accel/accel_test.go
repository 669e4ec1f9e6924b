package accel

import (
	"errors"
	"testing"

	"snic/internal/mem"
	"snic/internal/tlb"
)

const page = 128 << 10

// free returns how many clusters are unbound.
func free(a *Accelerator) int { return a.NumClusters() - int(a.boundClusters()) }

// locked reports whether b refuses new mappings.
func locked(b *tlb.Bank) bool {
	return errors.Is(b.Install(tlb.Entry{VA: 1 << 40, Size: page, Perm: tlb.PermRead}), tlb.ErrLocked)
}

func setup(t *testing.T) (*mem.Physical, *Accelerator) {
	t.Helper()
	pm, err := mem.NewPhysical(64<<20, page)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(DPI, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	return pm, a
}

// mapRegion allocates n bytes for owner and returns TLB entries mapping
// them at va 0.
func mapRegion(t *testing.T, pm *mem.Physical, owner mem.Owner, n uint64) (mem.Range, []tlb.Entry) {
	t.Helper()
	r, err := pm.AllocBytes(owner, n)
	if err != nil {
		t.Fatal(err)
	}
	var entries []tlb.Entry
	for i := uint64(0); i < r.Frames; i++ {
		entries = append(entries, tlb.Entry{
			VA:   tlb.VAddr(i * page),
			PA:   r.Start + mem.Addr(i*page),
			Size: page,
			Perm: tlb.PermRW,
		})
	}
	return r, entries
}

func TestGeometryValidation(t *testing.T) {
	if _, err := New(DPI, 64, 0); err == nil {
		t.Fatal("zero cluster size accepted")
	}
	if _, err := New(DPI, 64, 48); err == nil {
		t.Fatal("non-dividing cluster size accepted")
	}
	a, _ := New(ZIP, 64, 8)
	if a.NumClusters() != 8 || free(a) != 8 {
		t.Fatalf("clusters = %d free = %d", a.NumClusters(), free(a))
	}
}

func TestAllocBindsAndReleases(t *testing.T) {
	pm, a := setup(t)
	_, entries := mapRegion(t, pm, mem.FirstNF, 2*page)
	cs, err := a.Alloc(mem.FirstNF, 2, entries)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 || free(a) != 2 {
		t.Fatalf("bound %d, free %d", len(cs), free(a))
	}
	for _, c := range cs {
		if c.owner != mem.FirstNF || !locked(c.TLB) {
			t.Fatal("cluster not bound/locked")
		}
	}
	if n := a.Release(mem.FirstNF); n != 2 {
		t.Fatalf("released %d", n)
	}
	if free(a) != 4 {
		t.Fatal("release did not free")
	}
}

func TestAllocInsufficientClusters(t *testing.T) {
	pm, a := setup(t)
	_, entries := mapRegion(t, pm, mem.FirstNF, page)
	if _, err := a.Alloc(mem.FirstNF, 5, entries); err == nil {
		t.Fatal("overallocation accepted")
	}
	if free(a) != 4 {
		t.Fatal("failed alloc leaked clusters")
	}
}

func TestAllocAtomicUnwind(t *testing.T) {
	pm, a := setup(t)
	_, good := mapRegion(t, pm, mem.FirstNF, page)
	bad := append(good, tlb.Entry{VA: 12345, PA: 0, Size: page, Perm: tlb.PermRW}) // unaligned
	if _, err := a.Alloc(mem.FirstNF, 2, bad); err == nil {
		t.Fatal("bad entries accepted")
	}
	if free(a) != 4 {
		t.Fatal("failed alloc left clusters bound")
	}
}

// TestClusterTLBTranslatesOwnMemoryOnly is the accelerator half of the
// isolation claim (Figure 3b): a bound cluster reaches memory only
// through its locked TLB bank, which translates the owner's VAs and
// faults (a fatal miss) on anything else, so NF A cannot point its
// cluster at NF B. After release the bank translates nothing.
func TestClusterTLBTranslatesOwnMemoryOnly(t *testing.T) {
	pm, a := setup(t)
	rA, entA := mapRegion(t, pm, mem.FirstNF, page)
	csA, err := a.Alloc(mem.FirstNF, 1, entA)
	if err != nil {
		t.Fatal(err)
	}
	bank := csA[0].TLB
	for _, va := range []tlb.VAddr{0, page - 1} {
		pa, err := bank.Translate(va, tlb.PermRead)
		if err != nil || pa != rA.Start+mem.Addr(va) {
			t.Fatalf("own VA %#x -> %#x, %v; want %#x", va, pa, err, rA.Start+mem.Addr(va))
		}
	}
	// NF B's page sits next to A's in DRAM, but no VA of A's cluster
	// reaches it: the VA past A's page faults, and the locked bank takes
	// no new mapping.
	rB, _ := mapRegion(t, pm, mem.FirstNF+1, page)
	if _, err := bank.Translate(tlb.VAddr(page), tlb.PermRead); !errors.Is(err, tlb.ErrMiss) {
		t.Fatalf("foreign VA translated: %v", err)
	}
	if err := bank.Install(tlb.Entry{VA: tlb.VAddr(page), PA: rB.Start, Size: page, Perm: tlb.PermRW}); !errors.Is(err, tlb.ErrLocked) {
		t.Fatalf("locked bank took a mapping of NF B's page: %v", err)
	}
	a.Release(mem.FirstNF)
	if csA[0].owner != mem.Free {
		t.Fatal("release left the cluster bound")
	}
	if _, err := csA[0].TLB.Translate(0, tlb.PermRead); !errors.Is(err, tlb.ErrMiss) {
		t.Fatalf("released cluster still translates: %v", err)
	}
}

// TestUnboundClusterRefusesWork: a cluster no NF holds has an empty,
// unlocked TLB bank, so it reaches no memory at all.
func TestUnboundClusterRefusesWork(t *testing.T) {
	pm, a := setup(t)
	mapRegion(t, pm, mem.FirstNF, page)
	for _, c := range a.clusters {
		if c.owner != mem.Free {
			t.Fatalf("cluster %d bound before any Alloc", c.ID)
		}
		if _, err := c.TLB.Translate(0, tlb.PermRead); !errors.Is(err, tlb.ErrMiss) {
			t.Fatalf("unbound cluster %d translated VA 0: %v", c.ID, err)
		}
	}
}

func TestThroughputModelShape(t *testing.T) {
	p := DefaultDPIPerf()
	const reqs = 2000
	// More threads help large frames.
	big16 := SimulateThroughput(p, 16, 9000, reqs)
	big48 := SimulateThroughput(p, 48, 9000, reqs)
	if big48 < 2.5*big16 {
		t.Fatalf("9KB frames: 48 threads %.0f vs 16 threads %.0f — should scale ~3x", big48, big16)
	}
	// Small frames are dispatcher-bound: threads help much less.
	small16 := SimulateThroughput(p, 16, 64, reqs)
	small48 := SimulateThroughput(p, 48, 64, reqs)
	if small48 > 1.5*small16 {
		t.Fatalf("64B frames: 48 threads %.0f vs 16 threads %.0f — dispatcher should cap", small48, small16)
	}
	// Larger frames are always slower in pps.
	if big16 >= small16 {
		t.Fatal("9KB frames faster than 64B frames?")
	}
	// Absolute calibration: 64B at 16+ threads lands near the paper's
	// ~1.1-1.2 Mpps ceiling.
	if m := Mpps(small48); m < 0.9 || m > 1.4 {
		t.Fatalf("64B/48thr = %.2f Mpps, want ~1.2", m)
	}
}

func TestThroughputDegenerate(t *testing.T) {
	p := DefaultDPIPerf()
	if SimulateThroughput(p, 0, 64, 10) != 0 || SimulateThroughput(p, 4, 64, 0) != 0 {
		t.Fatal("degenerate inputs should yield 0")
	}
}

func TestKindString(t *testing.T) {
	if DPI.String() != "DPI" || ZIP.String() != "ZIP" || RAID.String() != "RAID" {
		t.Fatal("kind names")
	}
	if CRYPTO.String() != "CRYPTO" || Kind(9).String() != "kind(9)" {
		t.Fatal("kind names")
	}
	if TLBEntriesFor(DPI) != 54 || TLBEntriesFor(ZIP) != 70 || TLBEntriesFor(RAID) != 5 {
		t.Fatal("Table 7 TLB sizes")
	}
}
