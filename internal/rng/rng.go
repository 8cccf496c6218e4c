// Package rng provides a small, deterministic pseudo-random number generator
// and the sampling primitives the simulator needs.
//
// Every experiment in this repository must be reproducible from a single
// integer seed, across platforms and Go releases. The standard library's
// math/rand is deterministic for a fixed Source but its top-level helpers
// are not seedable per-experiment and math/rand/v2 changes algorithms between
// releases. Implementing xoshiro256** (public domain, Blackman & Vigna)
// keeps the stream stable forever and costs ~40 lines.
package rng

import "math"

// RNG is a xoshiro256** generator. It is NOT safe for concurrent use; give
// each goroutine (or each simulated component) its own stream via Split.
type RNG struct {
	s         [4]uint64
	haveSpare bool
	spare     float64
}

// New returns a generator seeded from seed via splitmix64, which guarantees
// a well-mixed non-zero internal state for any seed, including zero.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives an independent child generator. The child's stream is a
// deterministic function of the parent state; the parent advances once.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xa0761d6478bd642f)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// next is xoshiro256**'s state transition.
func next(s0, s1, s2, s3 uint64) (uint64, uint64, uint64, uint64) {
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return s0, s1, s2, rotl(s3, 45)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	r.s[0], r.s[1], r.s[2], r.s[3] = next(r.s[0], r.s[1], r.s[2], r.s[3])
	return result
}

// Skip advances the generator past n values, as n calls of Uint64 would: a
// caller that knows how many draws it does not need can leave the stream
// where drawing them would have. The state stays in locals across the loop,
// which runs about twice as fast as n Uint64 calls.
func (r *RNG) Skip(n int) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for ; n > 0; n-- {
		s0, s1, s2, s3 = next(s0, s1, s2, s3)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless method would be faster; modulo bias for
	// n ≪ 2^64 is below 2^-40 and irrelevant for simulation workloads.
	return int(r.Uint64() % uint64(n))
}

// IntRange returns a uniform value in [lo, hi] inclusive. It panics if
// hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// NormFloat64 returns a standard normal variate (Box–Muller; one value per
// call, the pair's second value is cached).
func (r *RNG) NormFloat64() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * f
	r.haveSpare = true
	return u * f
}

// LogNormal returns exp(N(mu, sigma)).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// ExpFloat64 returns an exponential variate with rate 1 (mean 1).
func (r *RNG) ExpFloat64() float64 {
	// Inverse CDF; 1-Float64() avoids log(0).
	return -math.Log(1 - r.Float64())
}

// Exp returns an exponential variate with the given mean. Used for Poisson
// inter-arrival times.
func (r *RNG) Exp(mean float64) float64 {
	return mean * r.ExpFloat64()
}

// Categorical draws an index with probability proportional to weights[i].
// It panics if weights is empty or sums to a non-positive value.
func (r *RNG) Categorical(weights []float64) int {
	var sum float64
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative categorical weight")
		}
		sum += w
	}
	if len(weights) == 0 || sum <= 0 {
		panic("rng: categorical with no mass")
	}
	x := r.Float64() * sum
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// State captures internals so tests can assert determinism cheaply.
func (r *RNG) State() [4]uint64 { return r.s }
