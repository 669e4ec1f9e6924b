package nicos

import (
	"testing"

	"snic/internal/attest"
	"snic/internal/snic"
)

func newOS(t *testing.T) *OS {
	t.Helper()
	v, err := attest.NewVendor("V", nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := snic.New(snic.Config{Cores: 4, MemBytes: 16 << 20}, v)
	if err != nil {
		t.Fatal(err)
	}
	return New(d)
}

func spec(mask uint64) snic.LaunchSpec {
	return snic.LaunchSpec{CoreMask: mask, Image: []byte("img"), MemBytes: 1 << 20}
}

func TestCreateDestroyLifecycle(t *testing.T) {
	o := newOS(t)
	id, rep, err := o.NFCreate("firewall", spec(0b01))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalMS() <= 0 || o.dev.NF(id) == nil {
		t.Fatalf("rep=%+v launched=%v", rep, o.dev.NF(id) != nil)
	}
	tr, err := o.NFDestroy(id)
	if err != nil {
		t.Fatal(err)
	}
	if tr.TotalMS() <= 0 || o.dev.NF(id) != nil {
		t.Fatalf("tr=%+v still launched=%v", tr, o.dev.NF(id) != nil)
	}
}

func TestCreateFailurePropagates(t *testing.T) {
	o := newOS(t)
	if _, _, err := o.NFCreate("bad", spec(0)); err == nil {
		t.Fatal("empty mask accepted")
	}
	if o.dev.FreeCores() != o.dev.Cores() {
		t.Fatal("failed create left cores bound")
	}
}

func TestDestroyUnknownFails(t *testing.T) {
	o := newOS(t)
	if _, err := o.NFDestroy(99); err == nil {
		t.Fatal("unknown destroy accepted")
	}
}

func TestMultiTenant(t *testing.T) {
	o := newOS(t)
	a, _, err := o.NFCreate("nf-a", spec(0b01))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := o.NFCreate("nf-b", spec(0b10))
	if err != nil {
		t.Fatal(err)
	}
	if a == b || o.dev.NF(a) == nil || o.dev.NF(b) == nil {
		t.Fatal("tenants collide")
	}
	// The OS cannot map tenant memory through its device even though it
	// created the NFs.
	vn := o.dev.NF(a)
	if err := o.dev.MgmtMap(0, vn.Mem.Start, 128<<10); err == nil {
		t.Fatal("NIC OS mapped tenant memory")
	}
}
