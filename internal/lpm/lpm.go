// Package lpm models DIR-24-8 longest-prefix matching [Gupta, Lin &
// McKeown, INFOCOM 1998] — the route-lookup structure inside the paper's
// LPM network function (§5.1). The classic layout:
//
//   - TBL24: 2^24 entries indexed by the top 24 address bits, holding
//     either a direct next hop or a pointer into a TBL8 pool.
//   - TBL8 pools: 256-entry second-level tables, one per /24 that holds
//     a prefix longer than /24.
//
// The simulator needs only that layout's footprint (MemoryBytes, Table 6)
// and its access pattern (the LPM NF's stream), so the host keeps one
// route map keyed by prefix and length, not the 2^24-entry arrays. Lookup
// probes the lengths in use from longest to shortest; the answer is the
// same longest-prefix match DIR-24-8 gives, and inserts stay incremental
// and order-independent.
//
// The modelled 2^24 x 4 B base table is 64 MB, which is what gives the
// LPM NF its ~68 MB heap in Table 6.
package lpm

import (
	"fmt"
	"math/bits"
)

const tbl24Size = 1 << 24

// Table is a longest-prefix-match table with DIR-24-8 accounting.
// NextHop values are 16-bit.
type Table struct {
	routes  map[uint64]uint16   // next hop by prefix<<8 | length
	lengths uint64              // bit n set when some route has length n
	pooled  map[uint32]struct{} // /24 indices DIR-24-8 gives a TBL8 pool
}

// New returns an empty table.
func New() *Table {
	return &Table{routes: map[uint64]uint16{}, pooled: map[uint32]struct{}{}}
}

// Insert adds a route for prefix/length -> nexthop. Longest prefix wins on
// lookup. Re-inserting a prefix overwrites its next hop.
func (t *Table) Insert(prefix uint32, length int, nexthop uint16) error {
	if length < 0 || length > 32 {
		return fmt.Errorf("lpm: bad prefix length %d", length)
	}
	prefix &= prefixMask(length)
	t.routes[uint64(prefix)<<8|uint64(length)] = nexthop
	t.lengths |= 1 << length
	if length > 24 {
		t.pooled[prefix>>8] = struct{}{}
	}
	return nil
}

// Lookup returns the next hop for addr and whether any route matched.
// DIR-24-8 answers in one memory access, or two for /25+ prefixes; the
// stream model charges those, not this probe sequence.
func (t *Table) Lookup(addr uint32) (uint16, bool) {
	for ls := t.lengths; ls != 0; {
		length := bits.Len64(ls) - 1
		ls &^= 1 << length
		if nh, ok := t.routes[uint64(addr&prefixMask(length))<<8|uint64(length)]; ok {
			return nh, true
		}
	}
	return 0, false
}

// Len returns the number of installed routes.
func (t *Table) Len() int { return len(t.routes) }

// EntryBytes is the modelled per-TBL24-entry size. The paper's LPM NF
// stores 4 B per entry (64 MB base table; ~68 MB total heap in Table 6).
const EntryBytes = 4

// MemoryBytes reports the modelled DIR-24-8 DRAM footprint: the TBL24,
// one 256-entry pool per pooled /24, and 16 B per route.
func (t *Table) MemoryBytes() uint64 {
	return uint64(tbl24Size)*EntryBytes +
		uint64(len(t.pooled))*256*EntryBytes +
		uint64(len(t.routes))*16
}

func prefixMask(length int) uint32 {
	if length == 0 {
		return 0
	}
	return ^uint32(0) << (32 - length)
}
