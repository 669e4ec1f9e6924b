// Package tlb models the translation hardware S-NIC places in front of
// programmable cores, accelerator clusters, packet schedulers, and DMA
// banks (§4.2–§4.4 of the paper).
//
// Two mechanisms matter for isolation:
//
//   - Locked TLB banks. nf_launch installs a small number of
//     variable-page-size entries covering exactly the NF's memory, then
//     locks the bank read-only. Any later miss is treated as a fatal NF
//     bug ("any subsequent TLB misses represent a bug in the network
//     function, and cause S-NIC to destroy the function").
//
//   - Denylist page tables. The management core keeps its normal page
//     table, but every attempt to install a virtual→physical mapping is
//     dual-walked (EPT-style) against a hardware-private denylist; if the
//     physical page belongs to a live NF, the fill is rejected. This is
//     how the untrusted NIC OS is excluded from NF memory without
//     trusting the NIC OS's own paging code.
package tlb

import (
	"fmt"
	"sort"

	"snic/internal/mem"
	"snic/internal/obs"
)

// Perm is a permission bitmask for a mapping.
type Perm uint8

// Permission bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
	PermRW = PermRead | PermWrite
)

// VAddr is a virtual address in an NF's (or device's) address space.
type VAddr uint64

// Entry maps a contiguous virtual page to a physical page.
type Entry struct {
	VA   VAddr    // virtual base, aligned to Size
	PA   mem.Addr // physical base, aligned to Size
	Size uint64   // page size in bytes (variable: 128 KB .. 128 MB)
	Perm Perm
}

func (e Entry) contains(va VAddr) bool {
	return va >= e.VA && uint64(va-e.VA) < e.Size
}

// Errors returned by the TLB hardware.
var (
	ErrMiss      = fmt.Errorf("tlb: miss (fatal for a locked S-NIC bank)")
	ErrPerm      = fmt.Errorf("tlb: permission violation")
	ErrLocked    = fmt.Errorf("tlb: bank is locked")
	ErrFull      = fmt.Errorf("tlb: bank is full")
	ErrDenied    = fmt.Errorf("tlb: physical page is denylisted")
	ErrBadEntry  = fmt.Errorf("tlb: malformed entry")
	ErrNotLocked = fmt.Errorf("tlb: bank must be locked before use")
)

// Bank is a fully-associative TLB with a fixed number of entries.
// S-NIC banks are filled by nf_launch and then locked.
type Bank struct {
	capacity int
	entries  []Entry
	locked   bool
	// obs handles; nil until Observe attaches a collector.
	obsFills, obsMisses, obsLockedFaults *obs.Counter
}

// NewBank returns an empty bank with the given entry capacity.
func NewBank(capacity int) *Bank {
	return &Bank{capacity: capacity}
}

// Len returns the number of installed entries.
func (b *Bank) Len() int { return len(b.entries) }

// Observe attaches fill/miss/locked-fault counters to reg under the
// given device and owner labels (component "tlb"). A nil reg leaves the
// bank detached.
func (b *Bank) Observe(reg *obs.Registry, device, owner string) {
	if reg == nil {
		return
	}
	b.obsFills = reg.Counter(obs.Label{Device: device, Owner: owner, Component: "tlb", Name: "fills"})
	b.obsMisses = reg.Counter(obs.Label{Device: device, Owner: owner, Component: "tlb", Name: "misses"})
	b.obsLockedFaults = reg.Counter(obs.Label{Device: device, Owner: owner, Component: "tlb", Name: "locked_faults"})
}

// Install adds an entry. It fails if the bank is locked, full, the entry
// is malformed, or it overlaps an existing virtual range.
func (b *Bank) Install(e Entry) error {
	if b.locked {
		return ErrLocked
	}
	if len(b.entries) >= b.capacity {
		return ErrFull
	}
	if e.Size == 0 || uint64(e.VA)%e.Size != 0 || uint64(e.PA)%e.Size != 0 || e.Perm == 0 {
		return ErrBadEntry
	}
	// Ranges are compared by their inclusive last bytes: VA+Size wraps to
	// 0 for an entry that ends at 2^64, VA+Size-1 does not.
	last := uint64(e.VA) + (e.Size - 1)
	if last < uint64(e.VA) {
		return ErrBadEntry // runs past the top of the address space
	}
	for _, x := range b.entries {
		if uint64(e.VA) <= uint64(x.VA)+(x.Size-1) && uint64(x.VA) <= last {
			return fmt.Errorf("%w: VA overlap [%#x,+%#x)", ErrBadEntry, e.VA, e.Size)
		}
	}
	b.entries = append(b.entries, e)
	sort.Slice(b.entries, func(i, j int) bool { return b.entries[i].VA < b.entries[j].VA })
	b.obsFills.Inc()
	return nil
}

// Lock makes the bank read-only. After Lock, Install fails and misses are
// fatal errors surfaced to the device.
func (b *Bank) Lock() { b.locked = true }

// Translate resolves va with the required permission, returning the
// physical address.
func (b *Bank) Translate(va VAddr, need Perm) (mem.Addr, error) {
	i := b.lookup(va)
	if i < 0 {
		return 0, b.miss()
	}
	e := b.entries[i]
	if e.Perm&need != need {
		return 0, ErrPerm
	}
	return e.PA + mem.Addr(uint64(va-e.VA)), nil
}

// Span moves the n bytes at [va, va+n) through the bank: every byte must
// translate with permission need. The whole span is checked before any
// byte moves, so a span that faults returns the fault and never calls
// move. Otherwise move runs once per entry the span crosses, in order,
// with the piece's physical base, its offset into the span, and its
// length. This is the one path every TLB-checked transfer takes: an
// access running past its mapping is a fault, never a window onto the
// next frame.
func (b *Bank) Span(va VAddr, n int, need Perm, move func(pa mem.Addr, off, n int) error) error {
	return b.span(va, n, need, nil, move)
}

// span is Span with an optional denylist re-check (g non-nil): pass 0
// validates every piece, pass 1 copies them.
func (b *Bank) span(va VAddr, n int, need Perm, g *GuardedBank, move func(pa mem.Addr, off, n int) error) error {
	for pass := 0; pass < 2; pass++ {
		i := b.lookup(va)
		for off := 0; off < n; i++ {
			cur := va + VAddr(off)
			if i < 0 || i >= len(b.entries) || !b.entries[i].contains(cur) {
				return b.miss()
			}
			e := &b.entries[i]
			if e.Perm&need != need {
				return ErrPerm
			}
			pa := e.PA + mem.Addr(uint64(cur-e.VA))
			k := int(min(uint64(n-off), e.Size-uint64(cur-e.VA)))
			if pass == 1 {
				if err := move(pa, off, k); err != nil {
					return err
				}
			} else if g != nil && g.Denylist.Denied(pa, uint64(k)) {
				g.obsDenied.Inc()
				return ErrDenied
			}
			off += k
		}
	}
	return nil
}

// lookup returns the index of the entry containing va, or -1.
func (b *Bank) lookup(va VAddr) int {
	// Binary search over sorted, non-overlapping entries.
	lo, hi := 0, len(b.entries)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		e := b.entries[mid]
		switch {
		case e.contains(va):
			return mid
		case va < e.VA:
			hi = mid - 1
		default:
			lo = mid + 1
		}
	}
	return -1
}

// miss counts a failed translation and returns ErrMiss.
func (b *Bank) miss() error {
	b.obsMisses.Inc()
	if b.locked {
		// On a locked S-NIC bank a miss is a fatal fault, not a refill.
		b.obsLockedFaults.Inc()
	}
	return ErrMiss
}

// Entries returns a copy of the installed entries (for attestation
// hashing and tests).
func (b *Bank) Entries() []Entry {
	return append([]Entry(nil), b.entries...)
}
