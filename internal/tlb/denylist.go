package tlb

import (
	"fmt"

	"snic/internal/mem"
	"snic/internal/obs"
)

// Denylist is the hardware-private page table that records physical frames
// the management core must not map (§4.2). The list itself lives in
// hardware-private memory; the NIC OS cannot read or modify it. Only the
// trusted instructions (nf_launch / nf_teardown) mutate it.
type Denylist struct {
	frameSize uint64
	denied    map[uint64]mem.Owner // frame index -> NF that owns it
}

// NewDenylist creates an empty denylist at the given frame granularity.
func NewDenylist(frameSize uint64) *Denylist {
	if frameSize == 0 {
		panic("tlb: zero denylist frame size")
	}
	return &Denylist{frameSize: frameSize, denied: make(map[uint64]mem.Owner)}
}

// Deny records that the byte range [pa, pa+n) belongs to owner and must be
// invisible to the management core.
func (d *Denylist) Deny(pa mem.Addr, n uint64, owner mem.Owner) {
	first := uint64(pa) / d.frameSize
	last := (uint64(pa) + n - 1) / d.frameSize
	for f := first; f <= last; f++ {
		d.denied[f] = owner
	}
}

// AllowOwner removes every frame recorded for owner (the "allowlisting"
// step of nf_destroy in Figure 6), returning how many frames were
// allowlisted.
func (d *Denylist) AllowOwner(owner mem.Owner) int {
	n := 0
	for f, o := range d.denied {
		if o == owner {
			delete(d.denied, f)
			n++
		}
	}
	return n
}

// Denied reports whether any byte of [pa, pa+n) is denylisted.
func (d *Denylist) Denied(pa mem.Addr, n uint64) bool {
	if n == 0 {
		n = 1
	}
	first := uint64(pa) / d.frameSize
	last := (uint64(pa) + n - 1) / d.frameSize
	for f := first; f <= last; f++ {
		if _, ok := d.denied[f]; ok {
			return true
		}
	}
	return false
}

// Len returns the number of denylisted frames.
func (d *Denylist) Len() int { return len(d.denied) }

// GuardedBank wraps a normal (software-managed) TLB bank with a denylist
// dual-walk: this is the management core's MMU. The NIC OS may install
// whatever mappings it likes — except ones whose physical target is
// denylisted, which the trusted hardware rejects at fill time.
type GuardedBank struct {
	Bank     *Bank
	Denylist *Denylist
	// obsDenied counts denylist rejections (fill-time and use-time); nil
	// until Observe attaches a collector.
	obsDenied *obs.Counter
}

// NewGuardedBank builds the management-core MMU.
func NewGuardedBank(capacity int, d *Denylist) *GuardedBank {
	return &GuardedBank{Bank: NewBank(capacity), Denylist: d}
}

// Observe attaches the inner bank's counters plus a deny_rejections
// counter to reg. A nil reg leaves the MMU detached.
func (g *GuardedBank) Observe(reg *obs.Registry, device, owner string) {
	if reg == nil {
		return
	}
	g.Bank.Observe(reg, device, owner)
	g.obsDenied = reg.Counter(obs.Label{Device: device, Owner: owner, Component: "tlb", Name: "deny_rejections"})
}

// Install dual-walks the denylist before accepting the mapping, exactly as
// §4.2 describes: "When the management core tries to install a
// virtual-to-physical mapping, the trusted hardware uses the physical
// address in the new mapping to walk the denylist page table."
func (g *GuardedBank) Install(e Entry) error {
	if g.Denylist.Denied(e.PA, e.Size) {
		g.obsDenied.Inc()
		return fmt.Errorf("%w: PA [%#x,+%#x)", ErrDenied, e.PA, e.Size)
	}
	return g.Bank.Install(e)
}

// Span is Bank.Span for the management core: a piece is also refused if
// any frame in it has been denylisted since the mapping was installed (a
// live NF now owns it). The trusted hardware re-checks on use, closing
// the race between an old mapping and a new nf_launch.
func (g *GuardedBank) Span(va VAddr, n int, need Perm, move func(pa mem.Addr, off, n int) error) error {
	return g.Bank.span(va, n, need, g, move)
}

// Evict removes the entry mapping va, modelling a software TLB flush. The
// management bank is never locked, so eviction is always allowed.
func (g *GuardedBank) Evict(va VAddr) bool {
	for i, e := range g.Bank.entries {
		if e.contains(va) {
			g.Bank.entries = append(g.Bank.entries[:i], g.Bank.entries[i+1:]...)
			return true
		}
	}
	return false
}
