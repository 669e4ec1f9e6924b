// Package ac implements the Aho–Corasick multi-pattern string-matching
// automaton [Aho & Corasick, CACM 1975] from scratch. It is the matching
// engine behind both the DPI network function (§5.1, which the paper backs
// with the aho_corasick Rust crate) and the DPI hardware accelerator
// (§4.3, a "regular-expression engine" that walks a finite-automata graph
// stored in DRAM).
//
// The automaton is a trie with breadth-first failure links, built directly
// in a dense goto table with *byte-class compression*: every byte value
// that appears in no pattern behaves identically from every state, so the
// alphabet collapses to (distinct pattern bytes + 1) classes. This is the
// same trick production matchers (and the Rust crate's DFA) use. The
// synthetic 33,471-pattern set compiles to 509,345 states over 96
// classes, a 199.8 MB graph, where a raw 256-way table would need about
// 0.5 GB; the paper reports 97.28 MB for its rule set, and Table 7 uses
// that figure.
package ac

import (
	"bytes"
	"fmt"
	"slices"
)

// Automaton is a compiled pattern set.
type Automaton struct {
	// classOf maps a byte to its equivalence class.
	classOf [256]uint16
	// nclasses is the number of byte classes.
	nclasses int
	// next[state*nclasses+class] is the goto function with failure links
	// pre-resolved, so matching never backtracks.
	next []int32
	// out[state] lists pattern indices terminating at state.
	out [][]int32
	// footprint is the graph's DRAM footprint, summed once by Compile.
	footprint uint64
}

// Match reports one pattern occurrence.
type Match struct {
	Pattern int // index into the compiled pattern list
	End     int // byte offset one past the match in the scanned input
}

// Compile builds the automaton for the given patterns. Empty patterns are
// rejected; duplicate patterns are allowed (each gets its own index).
func Compile(patterns [][]byte) (*Automaton, error) {
	for i, p := range patterns {
		if len(p) == 0 {
			return nil, fmt.Errorf("ac: pattern %d is empty", i)
		}
	}
	a := &Automaton{}
	// Byte classes: class 0 = "appears in no pattern"; each distinct
	// pattern byte gets its own class.
	used := [256]bool{}
	for _, p := range patterns {
		for _, b := range p {
			used[b] = true
		}
	}
	nc := 1
	for b := 0; b < 256; b++ {
		if used[b] {
			a.classOf[b] = uint16(nc)
			nc++
		}
	}
	a.nclasses = nc

	// Phase 1: the trie, built in place in the goto table; -1 marks a
	// missing edge. States are numbered in insertion order, and the table
	// is allocated once at its final size, so no growth slack stays behind.
	states := trieStates(patterns)
	next := make([]int32, states*nc)
	for i := range next {
		next[i] = -1
	}
	out := make([][]int32, states)
	n := int32(1)
	for pi, p := range patterns {
		cur := int32(0)
		for _, b := range p {
			e := int(cur)*nc + int(a.classOf[b])
			if next[e] < 0 {
				next[e] = n
				n++
			}
			cur = next[e]
		}
		out[cur] = append(out[cur], int32(pi))
	}
	// Phase 2: failure links, breadth first with each state's children in
	// ascending class order, so the out-list concatenation order is a pure
	// function of the pattern set. A state's failure target is shallower,
	// so its row is already resolved when the state is reached, and every
	// missing edge copies the failure target's entry.
	fail := make([]int32, states)
	queue := make([]int32, 1, states)
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		row, frow := int(u)*nc, int(fail[u])*nc
		for cl := 0; cl < nc; cl++ {
			v := next[row+cl]
			switch {
			case v < 0 && u == 0:
				next[row+cl] = 0
			case v < 0:
				next[row+cl] = next[frow+cl]
			default:
				if u != 0 {
					fail[v] = next[frow+cl]
				}
				out[v] = append(out[v], out[fail[v]]...)
				queue = append(queue, v)
			}
		}
	}
	a.next, a.out = next, out
	a.footprint = uint64(len(next))*4 + 256*2
	for _, o := range out {
		a.footprint += 8 + uint64(len(o))*4
	}
	return a, nil
}

// MemoryBytes estimates the DRAM footprint of the flattened graph: the
// class-compressed transition table, the byte-class map, and the output
// lists. This is the "Graph" entry of Table 7.
func (a *Automaton) MemoryBytes() uint64 { return a.footprint }

// Scan runs the automaton over input, appending matches to dst (which may
// be nil) and returning it. The traversal touches one table row per input
// byte — the access pattern the DPI accelerator model charges DRAM
// bandwidth for.
func (a *Automaton) Scan(input []byte, dst []Match) []Match {
	s := int32(0)
	nc := a.nclasses
	for i, b := range input {
		s = a.next[int(s)*nc+int(a.classOf[b])]
		if outs := a.out[s]; len(outs) > 0 {
			for _, p := range outs {
				dst = append(dst, Match{Pattern: int(p), End: i + 1})
			}
		}
	}
	return dst
}

// trieStates counts the trie's states — one per distinct pattern prefix,
// plus the root — from the patterns in sorted order, where each pattern
// adds the bytes it does not share with its predecessor.
func trieStates(patterns [][]byte) int {
	sorted := slices.Clone(patterns)
	slices.SortFunc(sorted, bytes.Compare)
	n := 1
	var prev []byte
	for _, p := range sorted {
		shared := 0
		for shared < len(p) && shared < len(prev) && p[shared] == prev[shared] {
			shared++
		}
		n += len(p) - shared
		prev = p
	}
	return n
}
