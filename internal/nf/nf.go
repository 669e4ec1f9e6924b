// Package nf implements the six network functions the paper evaluates
// (§5.1): a stateful Firewall, an Aho–Corasick DPI, a MazuNAT-style NAT,
// Google's Maglev load balancer, DIR-24-8 LPM routing, and a per-flow
// Monitor. Each NF has:
//
//   - a real data plane (Process) operating on parsed packets,
//   - deterministic memory accounting through a mem.Arena, so Table 6/8
//     profiles and the Figure 7 time series come from actual structure
//     growth, and
//   - a cpu.Stream generator that turns its per-packet work into the
//     compute/load/store mix the timing simulator (Figure 5) executes.
//
// The four NFs the paper takes from NetBricks (FW, NAT, LB, LPM) follow
// those implementations' structure; DPI and Monitor are, as in the paper,
// our own.
package nf

import (
	"fmt"

	"snic/internal/cpu"
	"snic/internal/mem"
	"snic/internal/pkt"
	"snic/internal/sim"
	"snic/internal/trace"
)

// Verdict is the outcome of processing one packet.
type Verdict int

// Verdicts.
const (
	Pass     Verdict = iota // forward unchanged
	Drop                    // discard
	Modified                // forward with rewritten headers/payload
)

func (v Verdict) String() string {
	switch v {
	case Pass:
		return "pass"
	case Drop:
		return "drop"
	case Modified:
		return "modified"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// NF is a deployable network function.
type NF interface {
	// Name is the short name used in the paper's tables (FW, DPI, ...).
	Name() string
	// Process runs the data plane on one packet, possibly mutating it.
	Process(p *pkt.Packet) Verdict
	// Arena exposes the NF's memory accounting.
	Arena() *mem.Arena
	// FixedFootprint reports whether Process never touches the arena,
	// so that no traffic can change the NF's Table 6/8 rows.
	FixedFootprint() bool
	// NewStream builds the instruction stream this NF presents to the
	// timing simulator, with its memory placed at base.
	NewStream(rng *sim.Rand, pool *trace.Pool, base mem.Addr) cpu.Stream
}

// Binary-image segment sizes charged by every NF at construction: the
// paper profiles text/data/code separately from heap (Table 6); these
// model the Rust binary plus runtime libraries. Heap comes from real
// structure growth.
const (
	textBytes = 880 << 10  // ~0.86 MB
	dataBytes = 56 << 10   // ~0.05 MB
	codeBytes = 2550 << 10 // ~2.49 MB of runtime/library code
)

func chargeImage(a *mem.Arena) {
	a.Alloc(mem.SegText, textBytes)
	a.Alloc(mem.SegData, dataBytes)
	a.Alloc(mem.SegCode, codeBytes)
}

// Names lists the six NFs in the paper's table order.
var Names = []string{"FW", "DPI", "NAT", "LB", "LPM", "Mon"}

// PaperProfile returns the published Table 6 memory profile (bytes per
// segment) for an NF name. These exact values feed the TLB sizing tables
// (2 and 5) so those reproduce the paper bit-for-bit; Table 6 additionally
// reports our own measured profiles next to them.
func PaperProfile(name string) (mem.Profile, error) {
	mb := func(v float64) uint64 { return uint64(v * float64(uint64(1)<<20)) }
	switch name {
	case "FW":
		return mem.Profile{Text: mb(0.87), Data: mb(0.08), Code: mb(2.50), Heap: mb(13.75)}, nil
	case "DPI":
		return mem.Profile{Text: mb(1.34), Data: mb(0.56), Code: mb(2.59), Heap: mb(46.65)}, nil
	case "NAT":
		return mem.Profile{Text: mb(0.86), Data: mb(0.05), Code: mb(2.49), Heap: mb(40.48)}, nil
	case "LB":
		return mem.Profile{Text: mb(0.86), Data: mb(0.05), Code: mb(2.49), Heap: mb(10.40)}, nil
	case "LPM":
		return mem.Profile{Text: mb(0.86), Data: mb(0.06), Code: mb(2.51), Heap: mb(64.90)}, nil
	case "Mon":
		return mem.Profile{Text: mb(0.85), Data: mb(0.05), Code: mb(2.48), Heap: mb(357.15)}, nil
	}
	return mem.Profile{}, fmt.Errorf("nf: unknown NF %q", name)
}

// PaperUsedBytes returns the published steady-state ("Mem. used") bytes of
// Table 8 for MUR computation.
func PaperUsedBytes(name string) (uint64, error) {
	mb := func(v float64) uint64 { return uint64(v * float64(uint64(1)<<20)) }
	switch name {
	case "FW":
		return mb(17.20), nil
	case "DPI":
		return mb(51.14), nil
	case "NAT":
		return mb(31.72), nil
	case "LB":
		return mb(4.16), nil
	case "LPM":
		return mb(68.33), nil
	case "Mon":
		return mb(246.31), nil
	}
	return 0, fmt.Errorf("nf: unknown NF %q", name)
}
