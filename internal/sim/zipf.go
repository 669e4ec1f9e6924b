package sim

import (
	"math"
	"math/bits"
)

// Zipf samples ranks in [0, N) with probability proportional to
// 1/(rank+1)^s. The paper's ICTF workload pools 100,000 flows with a Zipf
// skewness of 1.1 (§5.3); this sampler reproduces that distribution
// deterministically via an inverted CDF.
type Zipf struct {
	cdf []float64 // cumulative, cdf[len-1] == 1
	// guide[k] is the first rank whose cdf entry is >= k/K, for the
	// K = len(guide)-1 equal buckets of [0, 1] (K a power of two, so u*K
	// and k/K are exact). A draw u in bucket k lies in
	// [guide[k], guide[k+1]], so Next searches only that span.
	guide []int32
	rng   *Rand
}

// NewZipf builds a sampler over n ranks with exponent s using rng.
// It panics if n <= 0 or s < 0.
func NewZipf(rng *Rand, n int, s float64) *Zipf {
	if n <= 0 {
		panic("sim: Zipf with non-positive n")
	}
	if s < 0 {
		panic("sim: Zipf with negative skew")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1 // guard against FP rounding

	k := 1 << bits.Len(uint(n-1)) // buckets: the smallest power of two >= n
	guide := make([]int32, k+1)
	i := 0
	for b := range guide {
		t := float64(b) / float64(k)
		for cdf[i] < t {
			i++
		}
		guide[b] = int32(i)
	}
	return &Zipf{cdf: cdf, guide: guide, rng: rng}
}

// WithRand returns a sampler that shares z's (immutable) CDF and guide
// table but draws from rng. The CDF is the expensive part — O(n)
// math.Pow calls — so memoized workload pools build it once and stamp
// out per-run samplers with this method.
func (z *Zipf) WithRand(rng *Rand) *Zipf { return &Zipf{cdf: z.cdf, guide: z.guide, rng: rng} }

// Next returns the next sampled rank in [0, N).
func (z *Zipf) Next() int { return z.rank(z.rng.Float64()) }

// rank returns the first rank whose cdf entry is >= u, for u in [0, 1),
// searching only u's guide bucket: the same rank a binary search over
// the whole CDF finds, in a few steps instead of log2(N).
func (z *Zipf) rank(u float64) int {
	b := int(u * float64(len(z.guide)-1))
	lo, hi := int(z.guide[b]), int(z.guide[b+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
