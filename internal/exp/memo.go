package exp

import (
	"snic/internal/memo"
	"snic/internal/nf"
	"snic/internal/sim"
	"snic/internal/trace"
)

// The Figure 5 sweeps run thousands of colocation points that all build
// the same inputs: the NF models for one suite config and the ICTF pool
// for one (seed, size). Both are pure functions of their keys, so they
// are memoized process-wide and shared read-only across engine jobs —
// job independence and worker-count invariance are preserved because a
// cache hit returns exactly the value the job would have built itself.

// nfKey identifies one NF model build. nf.SuiteConfig is comparable by
// design (plain ints + seed).
type nfKey struct {
	name string
	cfg  nf.SuiteConfig
}

type nfResult struct {
	f   nf.NF
	err error
}

var nfMemo memo.Cache[nfKey, nfResult]

// suiteNF returns the memoized NF model for (name, cfg). The returned NF
// is shared across jobs: its tables are immutable after construction and
// NewStream keeps all mutable state (RNG, packet queue) in the stream.
func suiteNF(name string, cfg nf.SuiteConfig) (nf.NF, error) {
	r := nfMemo.Get(nfKey{name: name, cfg: cfg}, func() nfResult {
		f, err := nf.New(name, cfg)
		return nfResult{f: f, err: err}
	})
	return r.f, r.err
}

type poolKey struct {
	seed  uint64
	flows int
}

var ictfMemo memo.Cache[poolKey, *trace.PoolTemplate]

// ictfTemplate returns the ICTF pool template for (seed, flows), built
// once per key as
//
//	rng := sim.NewRand(seed); trace.NewICTFTemplate(rng.Fork(), flows)
//
// Figure 5 instantiates one pool per co-located domain from it (see
// simulateGroup), each with its own seeds.
func ictfTemplate(seed uint64, flows int) *trace.PoolTemplate {
	return ictfMemo.Get(poolKey{seed: seed, flows: flows}, func() *trace.PoolTemplate {
		rng := sim.NewRand(seed)
		return trace.NewICTFTemplate(rng.Fork(), flows)
	})
}

// ictfForkMemo caches templates keyed by an already-forked seed — the
// value rng.ForkSeed() returned — whereas ictfMemo's key is the seed of
// the parent stream that forks. The two derivations differ by one fork,
// so they must not share a cache.
var ictfForkMemo memo.Cache[poolKey, *trace.PoolTemplate]

// ictfPoolFork returns a fresh ICTF pool whose streams start from an
// already-forked seed. It matches the pre-memoization derivation
//
//	pool := trace.NewICTF(rng.Fork(), flows)
//
// when called as ictfPoolFork(rng.ForkSeed(), flows): ForkSeed consumes
// the same single draw Fork did, and NewRand(forkSeed) is exactly the
// generator Fork would have handed to NewICTF. Table 6/8's profiling
// jobs use this so the driven per-NF jobs (and every benchmark iteration)
// share one flow set + CDF build per (seed, flows).
func ictfPoolFork(forkSeed uint64, flows int) *trace.Pool {
	t := ictfForkMemo.Get(poolKey{seed: forkSeed, flows: flows}, func() *trace.PoolTemplate {
		return trace.NewICTFTemplate(sim.NewRand(forkSeed), flows)
	})
	return t.Pool()
}
