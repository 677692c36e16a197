package sim

import "math"

// Rand is a small, fast, seedable PRNG (SplitMix64) used everywhere the
// simulator needs randomness: placements, link degradation, run-to-run
// jitter, random bisections. We avoid math/rand so that the stream is
// identical across Go releases.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed.
func NewRand(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics when n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Geometric draws from a geometric distribution with success probability p:
// the number of trials until (and including) the first success, so the
// result is >= 1. The paper's clustered placement draws node strides this
// way with p = 0.8.
func (r *Rand) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("sim: Geometric needs 0 < p <= 1")
	}
	if p == 1 {
		return 1
	}
	u := r.Float64()
	// Inverse CDF: ceil(ln(1-u) / ln(1-p)).
	k := int(math.Ceil(math.Log(1-u) / math.Log(1-p)))
	if k < 1 {
		k = 1
	}
	return k
}

// Perm returns a random permutation of [0, n), Fisher-Yates.
func (r *Rand) Perm(n int) []int {
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

// Shuffle permutes s in place.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Normal returns a draw from N(mu, sigma) via Box-Muller.
func (r *Rand) Normal(mu, sigma float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mu + sigma*z
}

// LogNormalFactor returns exp(N(0, sigma)): a multiplicative jitter factor
// with median 1, used to model run-to-run variability.
func (r *Rand) LogNormalFactor(sigma float64) float64 {
	return math.Exp(r.Normal(0, sigma))
}
