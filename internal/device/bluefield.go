package device

import (
	"errors"
	"fmt"

	"snic/internal/mem"
)

func init() {
	Register("bluefield", func(spec Spec) (NIC, error) { return newBlueField(spec) })
}

// errTrustZone is the address-space controller's refusal of a
// normal-world access to secure memory.
var errTrustZone = errors.New("device: TrustZone blocks normal-world access to secure memory")

// blueField models the TrustZone-based BlueField: the top quarter of
// DRAM is the secure world, and function state lives there in
// trustlets. The normal world (and so any co-tenant function issuing
// raw-physical probes) is blocked from it by the address-space
// controller, but the secure-world management OS (commBase's MgmtRead)
// reads everything, trustlets included — the §3.2 finding that
// "BlueField does not isolate a network function from the secure-world
// management OS". The Linux kernel demand-pages normal-world processes,
// so the controlled-channel prerequisite holds.
type blueField struct {
	commBase
	secureBase mem.Addr // the carve-out is [secureBase, MemBytes)
	nextSecure mem.Addr // bump-only secure allocator: OP-TEE never reuses
}

func newBlueField(spec Spec) (*blueField, error) {
	c, err := newCommBase("bluefield", SingleOwnerRAM|DemandPaging, spec)
	if err != nil {
		return nil, err
	}
	base := mem.Addr(c.pm.Size() - c.pm.Size()/4)
	return &blueField{commBase: c, secureBase: base, nextSecure: base}, nil
}

func (d *blueField) Launch(spec FuncSpec) (FuncID, error) {
	spec.defaults()
	core, err := d.cores.pick()
	if err != nil {
		return 0, err
	}
	// Create the trustlet: its state goes into the secure carve-out.
	if uint64(d.nextSecure)+spec.MemBytes > d.pm.Size() {
		return 0, fmt.Errorf("device: bluefield secure region exhausted")
	}
	fs := d.pm.FrameSize()
	region := mem.Range{Start: d.nextSecure, Frames: (spec.MemBytes + fs - 1) / fs}
	d.nextSecure += mem.Addr(mem.AlignUp(spec.MemBytes, 64))
	if err := d.pm.Write(region.Start, spec.Image); err != nil {
		return 0, err
	}
	return d.register(spec, region, core), nil
}

// normalWorld is the address-space controller's check on a
// normal-world access of n bytes at pa.
func (d *blueField) normalWorld(pa mem.Addr, n int) error {
	if pa >= d.secureBase || uint64(pa)+uint64(n) > uint64(d.secureBase) {
		return errTrustZone
	}
	return nil
}

// ProbeRead: a malicious co-tenant function runs in the normal world,
// and the TrustZone address-space controller blocks it from secure
// memory — BlueField's one isolation property that holds.
func (d *blueField) ProbeRead(id FuncID, pa mem.Addr, buf []byte) error {
	if _, ok := d.funcs[id]; !ok {
		return ErrNoFunc
	}
	if err := d.normalWorld(pa, len(buf)); err != nil {
		return err
	}
	return d.pm.Read(pa, buf)
}

func (d *blueField) ProbeWrite(id FuncID, pa mem.Addr, data []byte) error {
	if _, ok := d.funcs[id]; !ok {
		return ErrNoFunc
	}
	if err := d.normalWorld(pa, len(data)); err != nil {
		return err
	}
	return d.pm.Write(pa, data)
}
