// Package sim provides the deterministic simulation kernel shared by every
// component of the S-NIC model: a seeded random-number generator, a Zipf
// flow-popularity sampler, and order statistics used to report experiment
// results the way the paper does (median with p1/p99 error bars).
//
// Nothing in this package (or anything built on it) consults wall-clock
// time: simulated time is counted in cycles and bytes over calibrated
// rates, so every experiment is exactly reproducible from its seed.
package sim

// Rand is a small, fast, deterministic PRNG (xorshift64* by Vigna).
// It is NOT safe for concurrent use; give each simulated component its own.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. A zero seed is remapped so
// the generator never degenerates to the all-zero fixed point.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bytes fills b with pseudorandom bytes.
func (r *Rand) Bytes(b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		v := r.Uint64()
		b[i] = byte(v)
		b[i+1] = byte(v >> 8)
		b[i+2] = byte(v >> 16)
		b[i+3] = byte(v >> 24)
		b[i+4] = byte(v >> 32)
		b[i+5] = byte(v >> 40)
		b[i+6] = byte(v >> 48)
		b[i+7] = byte(v >> 56)
	}
	if i < len(b) {
		v := r.Uint64()
		for ; i < len(b); i++ {
			b[i] = byte(v)
			v >>= 8
		}
	}
}

// State returns the generator's internal state so a caller can capture
// the stream position as a plain uint64 (resumable cursors serialize
// it). SetState(State()) restores the stream exactly: the next draw
// after a restore equals the next draw the captured generator would
// have made.
func (r *Rand) State() uint64 { return r.state }

// SetState restores a state captured with State. A zero state is
// remapped the same way NewRand remaps a zero seed, so a decoded
// zero-value cursor can never wedge the generator at its fixed point.
func (r *Rand) SetState(state uint64) {
	if state == 0 {
		state = 0x9E3779B97F4A7C15
	}
	r.state = state
}

// ForkSeed draws the seed a Fork call would use, without building the
// child generator. It lets callers capture a fork point as a plain
// uint64 (e.g. to rebuild the identical child stream later) while
// consuming exactly one draw from r, the same as Fork.
func (r *Rand) ForkSeed() uint64 {
	// SplitMix64 step over a fresh draw decorrelates the child stream.
	z := r.Uint64() + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Fork derives an independent generator from r's stream, so components can
// be given decorrelated sub-streams without sharing mutable state.
func (r *Rand) Fork() *Rand { return NewRand(r.ForkSeed()) }

// DeriveSeed hashes a base seed plus a list of labels — conventionally
// (experiment, jobKey) — into a stable 64-bit seed. Unlike Fork, the
// derivation depends only on its inputs, never on how many draws some
// other component made first, so a job scheduled on any worker at any
// time gets exactly the stream a serial run would have given it. The
// labels are FNV-1a-folded with a separator (so ("ab","c") and ("a","bc")
// differ) and finished with the SplitMix64 avalanche so adjacent keys
// ("FW", "FW2") land in decorrelated streams.
func DeriveSeed(base uint64, labels ...string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(base >> (8 * i)))
		h *= prime64
	}
	for _, l := range labels {
		for i := 0; i < len(l); i++ {
			h ^= uint64(l[i])
			h *= prime64
		}
		h ^= 0xFF // label separator
		h *= prime64
	}
	h += 0x9E3779B97F4A7C15
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	return h ^ (h >> 31)
}

// DeriveRand returns a generator seeded with DeriveSeed(base, labels...).
func DeriveRand(base uint64, labels ...string) *Rand {
	return NewRand(DeriveSeed(base, labels...))
}
