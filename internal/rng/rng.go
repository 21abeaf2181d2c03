// Package rng provides a small, fast, deterministic pseudo-random number
// generator used by every stochastic component of the WATS reproduction.
//
// All randomness in the simulator and the workload generators flows through
// explicitly seeded instances of rng.Source so that every experiment is
// reproducible bit-for-bit across runs and platforms. The generator is
// xoshiro256**, seeded through splitmix64, following the reference
// implementations by Blackman and Vigna. The stdlib math/rand/v2 would also
// work, but a local implementation keeps the sequence stable regardless of
// Go release and lets the simulator embed sources without locking.
package rng

import "math"

// Source is a deterministic xoshiro256** generator. It is NOT safe for
// concurrent use; each simulated core or generator owns its own Source.
type Source struct {
	s [4]uint64
}

// splitmix64 advances the seed and returns the next splitmix64 output.
// It is used to expand a single 64-bit seed into the 256-bit xoshiro state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given 64-bit seed. Distinct seeds
// give statistically independent streams.
func New(seed uint64) *Source {
	r := &Source{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from a single 64-bit seed.
func (r *Source) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro must not be seeded with an all-zero state; splitmix64 of any
	// seed cannot produce four zero words, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation would be faster, but
	// modulo over 64 bits has negligible bias for the small n used here.
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the polar Box-Muller method.
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1.
func (r *Source) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a random permutation of [0, n) using Fisher-Yates.
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements through swap.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Split derives a new independent Source from this one. Useful for giving
// each simulated core its own stream while keeping a single root seed.
func (r *Source) Split() *Source {
	return New(r.Uint64())
}
