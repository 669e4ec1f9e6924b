// Package maglev implements Google's Maglev consistent-hashing lookup
// table [Eisenbud et al., NSDI 2016] — the algorithm inside the paper's
// Load Balancer NF (§5.1). Each backend fills the table via its own
// permutation of preference slots; lookups are a single table index, and
// backend churn moves only ~1/N of the keys.
package maglev

import (
	"fmt"
	"sort"
)

// DefaultTableSize is a prime near the 65537 the Maglev paper uses for
// small pools. Table size must be prime and > #backends.
const DefaultTableSize = 65537

// Table is a built Maglev lookup table.
type Table struct {
	backends []string
	entries  []int32 // slot -> backend index
}

// New builds a table of size m (must be prime; DefaultTableSize works) for
// the given backend names. Backends are deduplicated and sorted so the
// table depends only on the set, not the argument order.
func New(backends []string, m int) (*Table, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("maglev: no backends")
	}
	if m <= len(backends) {
		return nil, fmt.Errorf("maglev: table size %d too small for %d backends", m, len(backends))
	}
	if !isPrime(m) {
		return nil, fmt.Errorf("maglev: table size %d is not prime", m)
	}
	uniq := map[string]bool{}
	var names []string
	for _, b := range backends {
		if !uniq[b] {
			uniq[b] = true
			names = append(names, b)
		}
	}
	sort.Strings(names)

	n := len(names)
	offsets := make([]uint64, n)
	skips := make([]uint64, n)
	for i, name := range names {
		h1 := hashString(name, 0x9E3779B97F4A7C15)
		h2 := hashString(name, 0xC2B2AE3D27D4EB4F)
		offsets[i] = h1 % uint64(m)
		skips[i] = h2%uint64(m-1) + 1
	}
	entries := make([]int32, m)
	for i := range entries {
		entries[i] = -1
	}
	nexts := make([]uint64, n)
	filled := 0
	for filled < m {
		for i := 0; i < n && filled < m; i++ {
			// Walk backend i's permutation to its next free slot.
			for {
				c := (offsets[i] + nexts[i]*skips[i]) % uint64(m)
				nexts[i]++
				if entries[c] == -1 {
					entries[c] = int32(i)
					filled++
					break
				}
			}
		}
	}
	return &Table{backends: names, entries: entries}, nil
}

// LookupIndex returns the backend index for a flow hash.
func (t *Table) LookupIndex(flowHash uint64) int {
	return int(t.entries[flowHash%uint64(len(t.entries))])
}

// Backends returns the (sorted, deduplicated) backend names.
func (t *Table) Backends() []string { return append([]string(nil), t.backends...) }

// MemoryBytes reports the table footprint (4 bytes/slot plus names),
// feeding the LB NF's memory profile.
func (t *Table) MemoryBytes() uint64 {
	n := uint64(len(t.entries)) * 4
	for _, b := range t.backends {
		n += uint64(len(b)) + 16
	}
	return n
}

func hashString(s string, seed uint64) uint64 {
	h := seed ^ 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return h
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for i := 2; i*i <= n; i++ {
		if n%i == 0 {
			return false
		}
	}
	return true
}
