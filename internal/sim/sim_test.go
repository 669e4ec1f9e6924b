package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced degenerate stream")
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		n := 1 + r.Intn(100)
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn(%d) = %d out of range", n, v)
		}
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRandFloat64Mean(t *testing.T) {
	r := NewRand(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestRandBytes(t *testing.T) {
	r := NewRand(5)
	for _, n := range []int{0, 1, 7, 8, 9, 31, 64, 1000} {
		b := make([]byte, n)
		r.Bytes(b)
		if n >= 32 {
			allZero := true
			for _, v := range b {
				if v != 0 {
					allZero = false
					break
				}
			}
			if allZero {
				t.Fatalf("Bytes(%d) produced all zeros", n)
			}
		}
	}
}

func TestRandForkIndependence(t *testing.T) {
	parent := NewRand(99)
	child := parent.Fork()
	// The child stream must differ from the parent's subsequent stream.
	same := 0
	for i := 0; i < 64; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("fork stream matches parent %d/64 draws", same)
	}
}

func TestZipfRanks(t *testing.T) {
	z := NewZipf(NewRand(1), 1000, 1.1)
	for i := 0; i < 100000; i++ {
		v := z.Next()
		if v < 0 || v >= 1000 {
			t.Fatalf("Zipf rank %d out of range", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	// Rank 0 must be sampled far more often than rank 999 with s=1.1.
	z := NewZipf(NewRand(2), 1000, 1.1)
	counts := make([]int, 1000)
	const n = 500000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	if counts[0] < 20*counts[99] {
		t.Fatalf("insufficient skew: rank0=%d rank99=%d", counts[0], counts[99])
	}
	// Empirical frequency of rank 0 should be near its analytic
	// probability, the first step of the CDF.
	want := z.cdf[0]
	got := float64(counts[0]) / n
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("rank-0 frequency %v, want ~%v", got, want)
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	z := NewZipf(NewRand(3), 10, 0)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-n/10) > n/10*0.15 {
			t.Fatalf("s=0 not uniform: rank %d count %d", i, c)
		}
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	z := NewZipf(NewRand(4), 257, 1.1)
	sum, prev := 0.0, 0.0
	for _, c := range z.cdf {
		sum += c - prev
		prev = c
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{3, 1, 2})
	if s.Median != 2 || s.N != 3 || s.Mean != 2 {
		t.Fatalf("bad summary %+v", s)
	}
	if s.P1 > s.Median || s.Median > s.P99 {
		t.Fatalf("percentiles out of order: %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s != (Summary{}) {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestMedianEvenCount(t *testing.T) {
	if m := Median([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestPercentileEndpoints(t *testing.T) {
	xs := []float64{5, 1, 9, 3}
	if Percentile(xs, 0) != 1 || Percentile(xs, 1) != 9 {
		t.Fatal("percentile endpoints wrong")
	}
}

func TestPercentileMonotonic(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.1 {
			q := Percentile(xs, p)
			if q < prev {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{9, 1, 5}
	Summarize(xs)
	if xs[0] != 9 || xs[1] != 1 || xs[2] != 5 {
		t.Fatal("Summarize mutated its input")
	}
}

func TestDeriveSeedLabelBoundaries(t *testing.T) {
	// ("ab","c") and ("a","bc") concatenate identically; the separator
	// must still distinguish them.
	if DeriveSeed(1, "ab", "c") == DeriveSeed(1, "a", "bc") {
		t.Fatal("label boundary lost")
	}
	if DeriveSeed(1, "x") == DeriveSeed(1, "x", "") {
		t.Fatal("trailing empty label lost")
	}
	if DeriveSeed(1) == DeriveSeed(2) {
		t.Fatal("base seed ignored")
	}
	if DeriveSeed(1, "x") != DeriveSeed(1, "x") {
		t.Fatal("derivation not stable")
	}
}

func TestDeriveRandStreamsDecorrelated(t *testing.T) {
	// Streams for adjacent job keys must not collide or track each other.
	a := DeriveRand(7, "exp", "job0")
	b := DeriveRand(7, "exp", "job1")
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("%d collisions between sibling streams", same)
	}
}

func TestDeriveRandIndependentOfCallOrder(t *testing.T) {
	// Unlike Fork, derivation must not depend on other draws: consuming
	// one stream first cannot move a sibling's stream.
	first := DeriveRand(7, "exp", "a").Uint64()
	burn := DeriveRand(7, "exp", "b")
	for i := 0; i < 100; i++ {
		burn.Uint64()
	}
	if got := DeriveRand(7, "exp", "a").Uint64(); got != first {
		t.Fatalf("stream moved: %x != %x", got, first)
	}
}

// fullSearch is the sampler's original lookup, kept as the oracle for
// the guide-table search: a binary search over the whole CDF for the
// first entry >= u.
func fullSearch(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestZipfGuideMatchesFullSearch pins that the guide table changes no
// draw: a million random u and every edge value in [0, 1) (0, each
// exact CDF entry and its neighbours, each bucket boundary, the value
// next to 1) map to the rank the full binary search finds, for several
// sizes and skews.
func TestZipfGuideMatchesFullSearch(t *testing.T) {
	for _, tc := range []struct {
		n int
		s float64
	}{{1, 1.1}, {2, 1.1}, {10, 0}, {257, 1.1}, {1000, 0.2}, {100000, 1.1}} {
		z := NewZipf(NewRand(5), tc.n, tc.s)
		check := func(u float64) {
			if got, want := z.rank(u), fullSearch(z.cdf, u); got != want {
				t.Fatalf("n=%d s=%v u=%v: guide search %d, full search %d", tc.n, tc.s, u, got, want)
			}
		}
		edges := []float64{0, math.SmallestNonzeroFloat64, math.Nextafter(1, 0)}
		for _, c := range z.cdf {
			edges = append(edges, c, math.Nextafter(c, 0), math.Nextafter(c, 2))
		}
		for b := 0; b < len(z.guide); b++ {
			edges = append(edges, float64(b)/float64(len(z.guide)-1))
		}
		for _, u := range edges {
			if u < 1 {
				check(u)
			}
		}
		rng := NewRand(6)
		for i := 0; i < 1_000_000; i++ {
			check(rng.Float64())
		}
	}
}
