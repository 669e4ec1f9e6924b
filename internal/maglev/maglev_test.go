package maglev

import (
	"fmt"
	"math"
	"testing"

	"snic/internal/sim"
)

// disruption counts the fraction of slots that map to different backends
// between two tables: the consistent-hashing property the tests verify.
func disruption(a, b *Table) float64 {
	if len(a.entries) != len(b.entries) {
		return 1
	}
	moved := 0
	for i := range a.entries {
		if a.backends[a.entries[i]] != b.backends[b.entries[i]] {
			moved++
		}
	}
	return float64(moved) / float64(len(a.entries))
}

func backends(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("backend-%02d", i)
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 65537); err == nil {
		t.Fatal("empty backends accepted")
	}
	if _, err := New(backends(3), 3); err == nil {
		t.Fatal("tiny table accepted")
	}
	if _, err := New(backends(3), 100); err == nil {
		t.Fatal("composite table size accepted")
	}
	if _, err := New(backends(3), 101); err != nil {
		t.Fatal(err)
	}
}

func TestAllSlotsFilled(t *testing.T) {
	tbl, err := New(backends(5), 65537)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tbl.entries {
		if tbl.LookupIndex(uint64(i)) < 0 {
			t.Fatalf("slot %d unfilled", i)
		}
	}
}

func TestBalance(t *testing.T) {
	// The Maglev paper's headline property: near-perfect balance.
	n := 7
	tbl, err := New(backends(n), 65537)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for i := range tbl.entries {
		counts[tbl.LookupIndex(uint64(i))]++
	}
	want := float64(len(tbl.entries)) / float64(n)
	for b, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.02 {
			t.Fatalf("imbalance: backend %d has %d slots, want ~%.0f", b, c, want)
		}
	}
}

func TestDeterministicAndOrderIndependent(t *testing.T) {
	a, _ := New([]string{"x", "y", "z"}, 65537)
	b, _ := New([]string{"z", "x", "y"}, 65537)
	if disruption(a, b) != 0 {
		t.Fatal("table depends on backend order")
	}
}

func TestDuplicateBackendsDeduplicated(t *testing.T) {
	a, _ := New([]string{"x", "y", "x"}, 65537)
	if len(a.Backends()) != 2 {
		t.Fatalf("backends = %v", a.Backends())
	}
}

func TestConsistency(t *testing.T) {
	// Removing one of N backends must disrupt ~1/N of the keyspace, far
	// less than a modulo hash would (which disrupts ~ (N-1)/N).
	n := 10
	before, _ := New(backends(n), 65537)
	after, _ := New(backends(n)[:n-1], 65537)
	d := disruption(before, after)
	if d > 0.25 {
		t.Fatalf("removal disrupted %.2f of slots", d)
	}
	if d < 0.05 {
		t.Fatalf("removal disrupted only %.3f — dead backend's slots must move", d)
	}
}

func TestLookupStability(t *testing.T) {
	tbl, _ := New(backends(4), 65537)
	rng := sim.NewRand(5)
	for i := 0; i < 1000; i++ {
		h := rng.Uint64()
		if tbl.LookupIndex(h) != tbl.LookupIndex(h) {
			t.Fatal("lookup not deterministic")
		}
	}
}

func TestMemoryBytes(t *testing.T) {
	tbl, _ := New(backends(4), 65537)
	if tbl.MemoryBytes() < 65537*4 {
		t.Fatalf("memory = %d", tbl.MemoryBytes())
	}
}

func TestDisruptionSizeMismatch(t *testing.T) {
	a, _ := New(backends(2), 101)
	b, _ := New(backends(2), 65537)
	if disruption(a, b) != 1 {
		t.Fatal("size mismatch should report full disruption")
	}
}

func BenchmarkLookup(b *testing.B) {
	tbl, _ := New(backends(16), 65537)
	for i := 0; i < b.N; i++ {
		tbl.LookupIndex(uint64(i) * 0x9E3779B97F4A7C15)
	}
}
