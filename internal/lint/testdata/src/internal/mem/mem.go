// Package mem is a miniature stub of the real snic/internal/mem, giving
// the fixture tree the Physical arena type the isolation-boundary check
// resolves raw-port calls against.
package mem

// Addr is a physical byte address.
type Addr uint64

// Physical stands in for the raw backing arena.
type Physical struct{ size uint64 }

// Size is a geometry reader — deliberately not a sink (it leaks no
// tenant data), though untrusted code cannot reach it anyway without
// first obtaining the handle, which is flagged.
func (p *Physical) Size() uint64 { return p.size }

// Read is a raw data port — a sink outside the trusted layer.
func (p *Physical) Read(pa Addr, buf []byte) error { return nil }

// Write is a raw data port — a sink outside the trusted layer.
func (p *Physical) Write(pa Addr, data []byte) error { return nil }

// ReleaseAll is an ownership operation — a sink outside the trusted layer.
func (p *Physical) ReleaseAll(owner int) uint64 { return 0 }
