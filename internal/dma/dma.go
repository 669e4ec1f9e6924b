// Package dma models S-NIC's multi-bank DMA controller (§4.2): one bank
// per programmable core, each with locked TLB entries for the upstream
// (NIC→host) and downstream (host→NIC) directions. "The host should only
// be able to transfer data to a specific on-NIC RAM location that is owned
// by the function; the function should only be able to transfer data to a
// host-sanctioned region in host RAM" — both constraints are enforced
// here, in the style of SR-IOV DMA engines.
package dma

import (
	"fmt"

	"snic/internal/mem"
	"snic/internal/tlb"
)

// HostRegion is a host-sanctioned window of host RAM (the host side pins
// and grants this region when the function is created).
type HostRegion struct {
	buf []byte
}

// NewHostRegion allocates an n-byte sanctioned host window.
func NewHostRegion(n int) *HostRegion { return &HostRegion{buf: make([]byte, n)} }

// Len returns the window size.
func (h *HostRegion) Len() int { return len(h.buf) }

// Bytes exposes the window (host-side software view).
func (h *HostRegion) Bytes() []byte { return h.buf }

// Bank is one per-core DMA engine.
type Bank struct {
	Core int
	// nicTLB maps the device-visible VA space onto the owning NF's NIC
	// DRAM (2 entries per Table 4: packet buffer + instruction queue).
	nicTLB *tlb.Bank
	host   *HostRegion
	owner  mem.Owner
}

// Controller is the multi-bank DMA engine.
type Controller struct {
	banks []*Bank
}

// NewController builds one bank per core.
func NewController(cores int) *Controller {
	c := &Controller{}
	for i := 0; i < cores; i++ {
		c.banks = append(c.banks, &Bank{Core: i, nicTLB: tlb.NewBank(2)})
	}
	return c
}

// Bank returns the bank for a core.
func (c *Controller) Bank(core int) *Bank { return c.banks[core] }

// Bind configures a bank for owner: TLB entries covering the NF's DMA-
// visible NIC memory, plus the host-sanctioned region. The TLB locks
// immediately (nf_launch semantics).
func (b *Bank) Bind(owner mem.Owner, entries []tlb.Entry, host *HostRegion) error {
	if b.owner != mem.Free {
		return fmt.Errorf("dma: bank %d already bound to %d", b.Core, b.owner)
	}
	// Hardware sizes this bank at 2 entries under 2 MB pages (Table 4);
	// the simulator may run with smaller frames, so size to the mapping.
	capEntries := len(entries)
	if capEntries < 2 {
		capEntries = 2
	}
	bank := tlb.NewBank(capEntries)
	for _, e := range entries {
		if err := bank.Install(e); err != nil {
			return err
		}
	}
	bank.Lock()
	b.nicTLB = bank
	b.host = host
	b.owner = owner
	return nil
}

// Unbind clears the bank (nf_teardown semantics).
func (b *Bank) Unbind() {
	b.owner = mem.Free
	b.host = nil
	b.nicTLB = tlb.NewBank(2)
}

// ToHost copies n bytes from the NF's NIC memory at nicVA into the
// sanctioned host window at hostOff.
func (b *Bank) ToHost(pm *mem.Physical, nicVA tlb.VAddr, n int, hostOff int) error {
	if b.owner == mem.Free {
		return fmt.Errorf("dma: bank %d unbound", b.Core)
	}
	if hostOff < 0 || n < 0 || hostOff+n > len(b.host.buf) {
		return fmt.Errorf("dma: host window violation [%d,+%d) of %d", hostOff, n, len(b.host.buf))
	}
	dst := b.host.buf[hostOff : hostOff+n]
	if err := b.nicTLB.Span(nicVA, n, tlb.PermRead, func(pa mem.Addr, off, k int) error {
		return pm.Read(pa, dst[off:off+k])
	}); err != nil {
		return fmt.Errorf("dma: NIC-side fault: %w", err)
	}
	return nil
}

// FromHost copies n bytes from the sanctioned host window at hostOff into
// the NF's NIC memory at nicVA.
func (b *Bank) FromHost(pm *mem.Physical, hostOff int, n int, nicVA tlb.VAddr) error {
	if b.owner == mem.Free {
		return fmt.Errorf("dma: bank %d unbound", b.Core)
	}
	if hostOff < 0 || n < 0 || hostOff+n > len(b.host.buf) {
		return fmt.Errorf("dma: host window violation [%d,+%d) of %d", hostOff, n, len(b.host.buf))
	}
	src := b.host.buf[hostOff : hostOff+n]
	if err := b.nicTLB.Span(nicVA, n, tlb.PermWrite, func(pa mem.Addr, off, k int) error {
		return pm.Write(pa, src[off:off+k])
	}); err != nil {
		return fmt.Errorf("dma: NIC-side fault: %w", err)
	}
	return nil
}
