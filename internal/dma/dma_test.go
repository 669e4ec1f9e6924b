package dma

import (
	"bytes"
	"testing"

	"snic/internal/mem"
	"snic/internal/sim"
	"snic/internal/tlb"
)

const page = 128 << 10

func setup(t *testing.T) (*mem.Physical, *Controller, mem.Range, *HostRegion) {
	t.Helper()
	pm, err := mem.NewPhysical(16<<20, page)
	if err != nil {
		t.Fatal(err)
	}
	c := NewController(4)
	r, err := pm.AllocBytes(mem.FirstNF, page)
	if err != nil {
		t.Fatal(err)
	}
	host := NewHostRegion(64 << 10)
	entries := []tlb.Entry{{VA: 0, PA: r.Start, Size: page, Perm: tlb.PermRW}}
	if err := c.Bank(0).Bind(mem.FirstNF, entries, host); err != nil {
		t.Fatal(err)
	}
	return pm, c, r, host
}

func TestRoundTrip(t *testing.T) {
	pm, c, r, host := setup(t)
	data := make([]byte, 8000)
	sim.NewRand(1).Bytes(data)
	pm.Write(r.Start+100, data)

	b := c.Bank(0)
	if err := b.ToHost(pm, 100, len(data), 500); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(host.Bytes()[500:500+len(data)], data) {
		t.Fatal("ToHost mismatch")
	}
	// Mutate on host, pull back down.
	host.Bytes()[500] ^= 0xFF
	if err := b.FromHost(pm, 500, len(data), 20000); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	pm.Read(r.Start+20000, got)
	if got[0] != data[0]^0xFF || !bytes.Equal(got[1:], data[1:]) {
		t.Fatal("FromHost mismatch")
	}
}

func TestHostWindowEnforced(t *testing.T) {
	pm, c, _, host := setup(t)
	b := c.Bank(0)
	if err := b.ToHost(pm, 0, 128, host.Len()-64); err == nil {
		t.Fatal("host window overrun accepted")
	}
	if err := b.FromHost(pm, -1, 64, 0); err == nil {
		t.Fatal("negative host offset accepted")
	}
}

func TestNICSideTLBEnforced(t *testing.T) {
	pm, c, r, host := setup(t)
	b := c.Bank(0)
	// VA beyond the single mapped page faults: the host cannot reach
	// arbitrary NIC memory through the function's bank.
	if err := b.FromHost(pm, 0, 64, tlb.VAddr(2*page)); err == nil {
		t.Fatal("out-of-mapping NIC write accepted")
	}
	if err := b.ToHost(pm, tlb.VAddr(2*page), 64, 0); err == nil {
		t.Fatal("out-of-mapping NIC read accepted")
	}
	// A transfer whose tail runs off the mapping faults before it moves
	// a byte: the in-mapping head is not written either.
	for i := range host.Bytes()[:2048] {
		host.Bytes()[i] = 0xAB
	}
	if err := b.FromHost(pm, 0, 2048, tlb.VAddr(page-1024)); err == nil {
		t.Fatal("NIC write past the mapping accepted")
	}
	head := make([]byte, 1024)
	pm.Read(r.Start+page-1024, head)
	if !bytes.Equal(head, make([]byte, 1024)) {
		t.Fatal("faulting FromHost wrote the in-mapping head")
	}
}

func TestUnboundBankRefuses(t *testing.T) {
	pm, c, _, _ := setup(t)
	b := c.Bank(1)
	if err := b.ToHost(pm, 0, 8, 0); err == nil {
		t.Fatal("unbound bank transferred")
	}
}

func TestDoubleBindRejected(t *testing.T) {
	pm, c, r, host := setup(t)
	_ = pm
	entries := []tlb.Entry{{VA: 0, PA: r.Start, Size: page, Perm: tlb.PermRW}}
	if err := c.Bank(0).Bind(mem.FirstNF+1, entries, host); err == nil {
		t.Fatal("double bind accepted")
	}
}

func TestUnbindThenRebind(t *testing.T) {
	pm, c, r, host := setup(t)
	b := c.Bank(0)
	b.Unbind()
	if b.owner != mem.Free {
		t.Fatal("owner not cleared")
	}
	if err := b.ToHost(pm, 0, 8, 0); err == nil {
		t.Fatal("unbound bank still works")
	}
	entries := []tlb.Entry{{VA: 0, PA: r.Start, Size: page, Perm: tlb.PermRW}}
	if err := b.Bind(mem.FirstNF+2, entries, host); err != nil {
		t.Fatal(err)
	}
	if b.owner != mem.FirstNF+2 {
		t.Fatal("rebind failed")
	}
}
