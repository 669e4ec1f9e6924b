// Package ac implements the Aho–Corasick multi-pattern string-matching
// automaton [Aho & Corasick, CACM 1975] from scratch. It is the matching
// engine behind both the DPI network function (§5.1, which the paper backs
// with the aho_corasick Rust crate) and the DPI hardware accelerator
// (§4.3, a "regular-expression engine" that walks a finite-automata graph
// stored in DRAM).
//
// The automaton is a trie with breadth-first failure links, flattened into
// a dense goto table with *byte-class compression*: every byte value that
// appears in no pattern behaves identically from every state, so the
// alphabet collapses to (distinct pattern bytes + 1) classes. This is the
// same trick production matchers (and the Rust crate's DFA) use, and it is
// what keeps the 33 K-rule graph near the ~100 MB the paper reports in
// Table 7 rather than the ~0.5 GB a raw 256-way table would need.
package ac

import (
	"fmt"
	"sort"
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

	type node struct {
		children map[uint16]int32 // by class
		fail     int32
		out      []int32
	}
	nodes := []*node{{children: map[uint16]int32{}}}
	// Phase 1: trie over classes.
	for pi, p := range patterns {
		cur := int32(0)
		for _, b := range p {
			cl := a.classOf[b]
			nxt, ok := nodes[cur].children[cl]
			if !ok {
				nxt = int32(len(nodes))
				nodes = append(nodes, &node{children: map[uint16]int32{}})
				nodes[cur].children[cl] = nxt
			}
			cur = nxt
		}
		nodes[cur].out = append(nodes[cur].out, int32(pi))
	}
	// Phase 2: BFS failure links. Children are visited in ascending class
	// order so the queue — and with it the out-list concatenation order —
	// is a pure function of the pattern set, not of map iteration.
	sortedChildren := func(n *node) []uint16 {
		cls := make([]uint16, 0, len(n.children))
		for cl := range n.children {
			cls = append(cls, cl)
		}
		sort.Slice(cls, func(i, j int) bool { return cls[i] < cls[j] })
		return cls
	}
	queue := make([]int32, 0, len(nodes))
	for _, cl := range sortedChildren(nodes[0]) {
		c := nodes[0].children[cl]
		nodes[c].fail = 0
		queue = append(queue, c)
	}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for _, cl := range sortedChildren(nodes[u]) {
			v := nodes[u].children[cl]
			queue = append(queue, v)
			f := nodes[u].fail
			for {
				if w, ok := nodes[f].children[cl]; ok && w != v {
					nodes[v].fail = w
					break
				}
				if f == 0 {
					if w, ok := nodes[0].children[cl]; ok && w != v {
						nodes[v].fail = w
					} else {
						nodes[v].fail = 0
					}
					break
				}
				f = nodes[f].fail
			}
			nodes[v].out = append(nodes[v].out, nodes[nodes[v].fail].out...)
		}
	}
	// Phase 3: dense goto table over classes with failures resolved.
	a.next = make([]int32, len(nodes)*nc)
	a.out = make([][]int32, len(nodes))
	order := append([]int32{0}, queue...)
	for _, s := range order {
		n := nodes[s]
		a.out[s] = n.out
		row := int(s) * nc
		for cl := 0; cl < nc; cl++ {
			if c, ok := n.children[uint16(cl)]; ok {
				a.next[row+cl] = c
			} else if s == 0 {
				a.next[cl] = 0
			} else {
				a.next[row+cl] = a.next[int(n.fail)*nc+cl]
			}
		}
	}
	return a, nil
}

// States returns the number of automaton states.
func (a *Automaton) States() int { return len(a.out) }

// Classes returns the number of byte equivalence classes.
func (a *Automaton) Classes() int { return a.nclasses }

// MemoryBytes estimates the DRAM footprint of the flattened graph: the
// class-compressed transition table, the byte-class map, and the output
// lists. This is the "Graph" entry of Table 7.
func (a *Automaton) MemoryBytes() uint64 {
	n := uint64(len(a.next))*4 + 256*2
	for _, o := range a.out {
		n += 8 + uint64(len(o))*4
	}
	return n
}

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

// Contains reports whether any pattern occurs in input (early exit).
func (a *Automaton) Contains(input []byte) bool {
	s := int32(0)
	nc := a.nclasses
	for _, b := range input {
		s = a.next[int(s)*nc+int(a.classOf[b])]
		if len(a.out[s]) > 0 {
			return true
		}
	}
	return false
}

// StateWalk returns the state sequence length (equal to len(input)) and
// final state; used by the accelerator model to meter graph-cache traffic
// deterministically without allocating matches.
func (a *Automaton) StateWalk(input []byte) (visited int, final int32) {
	s := int32(0)
	nc := a.nclasses
	for _, b := range input {
		s = a.next[int(s)*nc+int(a.classOf[b])]
	}
	return len(input), s
}
