// Package rng provides the deterministic randomness substrate used by the
// whole repository.
//
// The k-machine model (paper §1.1) assumes every machine has a private
// source of true random bits. We substitute deterministic SplitMix64
// streams, one per machine, derived from a single run seed. This keeps
// every simulation bit-reproducible (the same seed yields the same
// partition, the same token walks and the same round counts) while
// preserving the statistical properties the algorithms rely on:
// SplitMix64 passes BigCrush and its outputs are independent across
// distinct stream seeds for all practical purposes.
//
// The package also implements the exact discrete samplers the paper's
// algorithms need: Bernoulli, Binomial (Algorithm 1 line 5 terminates
// tokens with probability eps via Binomial(tokens, eps)), geometric
// skips, uniform integers without modulo bias, Fisher-Yates shuffles and
// alias tables for O(1) sampling from fixed discrete distributions
// (Algorithm 1 line 23 samples destination machines proportionally to
// n_{j,u}/d_u).
package rng

import (
	"math"
	"math/bits"
)

// RNG is a SplitMix64 pseudo-random generator. The zero value is a valid
// generator seeded with 0; prefer New to derive independent streams.
type RNG struct {
	state uint64
}

// New returns a generator for the given seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// NewStream derives an independent stream from a run seed and a stream
// index (e.g. one stream per machine). The derivation hashes both values
// so that nearby (seed, stream) pairs yield uncorrelated sequences.
func NewStream(seed uint64, stream uint64) *RNG {
	return &RNG{state: Mix(seed) ^ Mix(stream*0x9e3779b97f4a7c15+0x2545f4914f6cdd1d)}
}

// Mix is the SplitMix64 finalizer: a bijective mixing function with good
// avalanche behaviour, also used as the repository's integer hash.
func Mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// State returns the generator's internal state word. Together with
// SetState it makes an RNG checkpointable: a machine restored from a
// snapshot resumes the exact random sequence it would have drawn, which
// is what makes replayed supersteps bit-identical (core's checkpoint
// subsystem is the consumer).
func (r *RNG) State() uint64 { return r.state }

// SetState overwrites the generator's internal state word, resuming the
// sequence a State() call captured.
func (r *RNG) SetState(s uint64) { r.state = s }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Lemire's nearly-divisionless method.
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := (-n) % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Binomial samples from Binomial(n, p).
//
// Three regimes:
//   - tiny n: direct Bernoulli trials;
//   - moderate mean: geometric-skip ("first success") counting, exact,
//     with expected time O(n*p + 1);
//   - large mean (n*p*(1-p) > normalCutoff): a clamped normal
//     approximation. The approximation error is far below the noise floor
//     of the Monte-Carlo processes that consume these samples (the paper's
//     Algorithm 1 only needs concentration, not exactness).
func (r *RNG) Binomial(n int64, p float64) int64 {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if p > 0.5 {
		return n - r.Binomial(n, 1-p)
	}
	const normalCutoff = 4096
	np := float64(n) * p
	if np*(1-p) > normalCutoff {
		x := math.Round(np + math.Sqrt(np*(1-p))*r.NormFloat64())
		if x < 0 {
			x = 0
		}
		if x > float64(n) {
			x = float64(n)
		}
		return int64(x)
	}
	if n <= 32 {
		var c int64
		for i := int64(0); i < n; i++ {
			if r.Float64() < p {
				c++
			}
		}
		return c
	}
	// Geometric skips: positions of successes are separated by
	// Geometric(p) gaps.
	var count, pos int64
	lq := math.Log1p(-p)
	for {
		g := int64(math.Floor(math.Log(1-r.Float64())/lq)) + 1
		pos += g
		if pos > n {
			return count
		}
		count++
	}
}

// Geometric returns the number of failures before the first success in
// Bernoulli(p) trials (support {0, 1, 2, ...}). It panics if p <= 0 or p > 1.
func (r *RNG) Geometric(p float64) int64 {
	if p <= 0 || p > 1 {
		panic("rng: Geometric needs 0 < p <= 1")
	}
	if p == 1 {
		return 0
	}
	return int64(math.Floor(math.Log(1-r.Float64()) / math.Log1p(-p)))
}

// Perm returns a uniformly random permutation of [0, n) (Fisher-Yates).
func (r *RNG) Perm(n int) []int {
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

// Shuffle permutes xs uniformly at random in place.
func Shuffle[T any](r *RNG, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// Sample returns m distinct integers drawn uniformly from [0, n) in
// selection order (partial Fisher-Yates when m is a large fraction of n,
// rejection hashing otherwise). It panics if m > n.
func (r *RNG) Sample(n, m int) []int {
	if m > n {
		panic("rng: Sample with m > n")
	}
	if m*4 >= n {
		p := r.Perm(n)
		return p[:m]
	}
	seen := make(map[int]struct{}, m)
	out := make([]int, 0, m)
	for len(out) < m {
		v := r.Intn(n)
		if _, ok := seen[v]; ok {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}
