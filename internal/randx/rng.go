// Package randx provides the random-variate substrate for the
// reproduction: a splittable deterministic RNG plus every distribution
// the paper's experiments draw from — Gaussian, Laplace, log-normal,
// Student-t, logistic, log-logistic, log-gamma, Pareto — and the Gumbel
// variates used to sample the exponential mechanism.
//
// All distributions satisfy the Dist interface so workload generators can
// be configured by name; heavy-tailed laws (infinite higher moments)
// report NaN for undefined moments rather than panicking.
package randx

import (
	"math"
	"math/rand"
)

// RNG wraps math/rand with deterministic splitting so that parallel
// trials and per-coordinate streams are reproducible regardless of
// scheduling. Its generator is source: math/rand's, output for output,
// with a faster Seed. It is not safe for concurrent use; Split off one
// RNG per goroutine instead.
type RNG struct {
	src *rand.Rand
}

// New returns an RNG seeded deterministically: the stream
// rand.New(rand.NewSource(seed)) produces.
func New(seed int64) *RNG {
	s := new(source)
	s.Seed(seed)
	return &RNG{src: rand.New(s)}
}

// Split derives an independent child stream. Children produced from the
// same parent state differ, and reproducing the parent's call sequence
// reproduces the children.
func (r *RNG) Split() *RNG {
	return New(r.src.Int63())
}

// SplitInto re-seeds child in place to the stream Split would have
// returned, without allocating: child.SplitInto-after-warm-up is the
// zero-allocation Split used by the reusable iteration workspaces. A
// nil child allocates once (the warm-up path).
func (r *RNG) SplitInto(child *RNG) *RNG {
	seed := r.src.Int63()
	if child == nil {
		return New(seed)
	}
	child.Reseed(seed)
	return child
}

// Reseed resets the RNG in place to the state New(seed) would start
// from, so a pooled RNG can be recycled without allocating.
func (r *RNG) Reseed(seed int64) {
	r.src.Seed(seed)
}

// Float64 returns a uniform variate in [0,1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// Intn returns a uniform integer in [0,n).
func (r *RNG) Intn(n int) int { return r.src.Intn(n) }

// Int63 returns a uniform 63-bit integer.
func (r *RNG) Int63() int64 { return r.src.Int63() }

// Perm returns a uniform random permutation of [0,n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Shuffle randomizes the order of n elements via swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// Normal returns a standard normal variate.
func (r *RNG) Normal() float64 { return r.src.NormFloat64() }

// Uniform returns a uniform variate on (lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.src.Float64()
}

// Exponential returns an Exp(rate) variate (mean 1/rate).
func (r *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("randx: Exponential non-positive rate")
	}
	return r.src.ExpFloat64() / rate
}

// Laplace returns a Laplace(0, scale) variate with density
// exp(−|x|/scale)/(2·scale) — the noise of the Laplacian mechanism.
func (r *RNG) Laplace(scale float64) float64 {
	if scale <= 0 {
		panic("randx: Laplace non-positive scale")
	}
	// Inverse CDF on u ∈ (−1/2, 1/2).
	u := r.src.Float64() - 0.5
	if u >= 0 {
		return -scale * math.Log(1-2*u)
	}
	return scale * math.Log(1+2*u)
}

// Gumbel returns a standard Gumbel variate (location 0, scale 1), used
// for Gumbel-max sampling of the exponential mechanism.
func (r *RNG) Gumbel() float64 {
	u := r.src.Float64()
	for u == 0 {
		u = r.src.Float64()
	}
	return -math.Log(-math.Log(u))
}

// Gamma returns a Gamma(shape, 1) variate via the Marsaglia–Tsang
// squeeze method, with Johnk-style boosting for shape < 1.
func (r *RNG) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic("randx: Gamma non-positive shape")
	}
	if shape < 1 {
		// X = Gamma(shape+1)·U^{1/shape}.
		u := r.src.Float64()
		for u == 0 {
			u = r.src.Float64()
		}
		return r.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	return r.marsagliaTsang(d, 1/math.Sqrt(9*d))
}

// marsagliaTsang is Gamma's squeeze loop for shape d + 1/3 ≥ 1, with
// c = 1/√(9d): a caller drawing many variates of one shape computes the
// two constants once.
func (r *RNG) marsagliaTsang(d, c float64) float64 {
	for {
		var x, v float64
		for {
			x = r.src.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.src.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// ChiSquared returns a χ²(k) variate.
func (r *RNG) ChiSquared(k float64) float64 {
	return 2 * r.Gamma(k/2)
}

// StudentT returns a Student-t variate with nu degrees of freedom:
// heavy-tailed with finite moments only below nu.
func (r *RNG) StudentT(nu float64) float64 {
	if nu <= 0 {
		panic("randx: StudentT non-positive degrees of freedom")
	}
	return r.src.NormFloat64() / math.Sqrt(r.ChiSquared(nu)/nu)
}

// Bernoulli returns 1 with probability p, else 0.
func (r *RNG) Bernoulli(p float64) int {
	if r.src.Float64() < p {
		return 1
	}
	return 0
}

// Rademacher returns ±1 with equal probability.
func (r *RNG) Rademacher() float64 {
	if r.src.Int63()&1 == 0 {
		return 1
	}
	return -1
}

// NormalVec fills dst with i.i.d. N(0, sigma²) variates and returns dst.
func (r *RNG) NormalVec(dst []float64, sigma float64) []float64 {
	for i := range dst {
		dst[i] = sigma * r.src.NormFloat64()
	}
	return dst
}

// LaplaceVec fills dst with i.i.d. Laplace(0, scale) variates.
func (r *RNG) LaplaceVec(dst []float64, scale float64) []float64 {
	for i := range dst {
		dst[i] = r.Laplace(scale)
	}
	return dst
}
