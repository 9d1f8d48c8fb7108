// Package robust implements the robust-statistics substrate of the
// paper: the Catoni–Giulini soft truncation φ (eq. 2), the analytic
// smoothed-multiplicative-noise correction Ĉ(a, b) (appendix closed
// form), the resulting scalar robust mean estimator (eqs. 1–5), its
// coordinate-wise extension used for gradients, the entry-wise shrinkage
// x̃ = sign(x)·min(|x|, K) of Algorithms 2–3, and two classical
// baselines (median-of-means, trimmed mean).
//
// The crucial property for privacy is that φ is bounded by 2√2/3, so the
// estimator's value moves by at most 4√2·s/(3n) when one sample changes:
// that ℓ∞ sensitivity is what the exponential mechanism and Peeling
// steps of the paper calibrate their noise to.
package robust

import (
	"fmt"
	"math"
	"sort"

	"htdp/internal/parallel"
)

// PhiBound is the uniform bound |φ| ≤ 2√2/3 of the truncation function.
const PhiBound = 2 * math.Sqrt2 / 3

// Phi is the soft truncation function of eq. (2):
//
//	φ(x) = x − x³/6 on [−√2, √2], ±2√2/3 outside.
//
// It is odd, non-decreasing, bounded by PhiBound, and satisfies the
// log-moment sandwich −log(1−x+x²/2) ≤ φ(x) ≤ log(1+x+x²/2).
func Phi(x float64) float64 {
	switch {
	case x > math.Sqrt2:
		return PhiBound
	case x < -math.Sqrt2:
		return -PhiBound
	default:
		return x - x*x*x/6
	}
}

// stdNormCDF is Φ, the standard normal CDF.
func stdNormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// Correction evaluates the closed-form Ĉ(a, b) of the appendix, the
// residual between the noise-smoothed truncation and its polynomial
// part:
//
//	E_z[φ(a + b·z)] = a·(1 − b²/2) − a³/6 + Ĉ(a, b),  z ~ N(0, 1).
//
// b must be ≥ 0. For b = 0 the expectation is φ(a) itself and the
// correction reduces to φ(a) − a + a³/6.
func Correction(a, b float64) float64 {
	if b < 0 {
		panic("robust: Correction negative b")
	}
	if b == 0 {
		return Phi(a) - a + a*a*a/6
	}
	vm := (math.Sqrt2 - a) / b // V−
	vp := (math.Sqrt2 + a) / b // V+
	fm := stdNormCDF(-vm)      // F−
	fp := stdNormCDF(-vp)      // F+
	em := math.Exp(-vm * vm / 2)
	ep := math.Exp(-vp * vp / 2)
	inv := 1 / math.Sqrt(2*math.Pi)

	t1 := PhiBound * (fm - fp)
	t2 := -(a - a*a*a/6) * (fm + fp)
	t3 := b * inv * (1 - a*a/2) * (ep - em)
	t4 := a * b * b / 2 * (fp + fm + inv*(vp*ep+vm*em))
	t5 := b * b * b / 6 * inv * ((2+vm*vm)*em - (2+vp*vp)*ep)
	return t1 + t2 + t3 + t4 + t5
}

// SmoothedPhi returns E_η[φ(a + b·√β·η)] for η ~ N(0, 1/β) via the
// analytic identity (5): since √β·η ~ N(0,1) the β cancels and the
// value is a(1−b²/2) − a³/6 + Ĉ(a, b).
//
// The polynomial-plus-correction form cancels catastrophically once
// |a| or b exceeds ~1e4 (the O(a³) and O(ab²) pieces dwarf the O(1)
// result), so extreme arguments switch to a direct, numerically stable
// evaluation; the branches agree to ~1e-10 at moderate arguments and the
// analytic branch keeps ≥6 correct digits up to the switch point.
func SmoothedPhi(a, b float64) float64 {
	if math.Abs(a) > 1e4 || b > 1e4 {
		return smoothedPhiStable(a, b)
	}
	// Fast path for the common case: when both saturation boundaries
	// ±√2 lie more than 8 noise standard deviations away, every term of
	// Ĉ(a, b) is below ~e^{-32} and the polynomial part alone is exact
	// to double precision. Most gradient coordinates are ≪ s, so this
	// saves the erfc/exp evaluations on the n·d hot path.
	if b > 0 {
		if vm := (math.Sqrt2 - a) / b; vm > 8 {
			if vp := (math.Sqrt2 + a) / b; vp > 8 {
				return a*(1-b*b/2) - a*a*a/6
			}
		}
	}
	return a*(1-b*b/2) - a*a*a/6 + Correction(a, b)
}

// smoothedPhiStable computes E_z[φ(a + b·z)] as saturated-tail mass plus
// a Simpson integral of the bounded middle piece over u = a+bz ∈
// [−√2, √2]; every term is O(1) so no cancellation occurs.
func smoothedPhiStable(a, b float64) float64 {
	if b == 0 {
		return Phi(a)
	}
	vm := (math.Sqrt2 - a) / b
	vp := (math.Sqrt2 + a) / b
	out := PhiBound * (stdNormCDF(-vm) - stdNormCDF(-vp))
	const n = 512
	inv := 1 / math.Sqrt(2*math.Pi)
	f := func(u float64) float64 {
		z := (u - a) / b
		return (u - u*u*u/6) * inv * math.Exp(-z*z/2) / b
	}
	h := 2 * math.Sqrt2 / n
	s := f(-math.Sqrt2) + f(math.Sqrt2)
	for i := 1; i < n; i++ {
		u := -math.Sqrt2 + float64(i)*h
		if i%2 == 1 {
			s += 4 * f(u)
		} else {
			s += 2 * f(u)
		}
	}
	return out + s*h/3
}

// MeanEstimator is the scalar robust mean estimator ˆx(s, β) of
// eqs. (1)–(5): scale by s, soft-truncate, multiply by smoothed noise
// with precision β, and rescale. Larger s reduces bias (less truncation)
// but increases the estimator's sensitivity, which is exactly the
// bias/noise trade-off Theorem 2 optimizes.
type MeanEstimator struct {
	S    float64 // truncation scale s > 0
	Beta float64 // noise precision β > 0 (paper sets β = O(1))

	// Parallelism is the worker count for the vector estimators
	// (EstimateVec, EstimateFuncWS, EstimateChunk): 0 → GOMAXPROCS,
	// 1 → sequential. The sharded evaluation is bit-identical for every
	// setting — EstimateVec shards the coordinate space into disjoint
	// writes, and the other two merge fixed sample-shard partials in
	// shard order — so this knob trades wall-clock only, never results.
	Parallelism int
}

// Validate reports whether the parameters are usable.
func (e MeanEstimator) Validate() error {
	if !(e.S > 0) || math.IsInf(e.S, 0) || math.IsNaN(e.S) {
		return fmt.Errorf("robust: scale s must be positive and finite, got %v", e.S)
	}
	if !(e.Beta > 0) || math.IsInf(e.Beta, 0) || math.IsNaN(e.Beta) {
		return fmt.Errorf("robust: β must be positive and finite, got %v", e.Beta)
	}
	return nil
}

// Term returns this sample's contribution s·E_η[φ((x+ηx)/s)] to the
// estimator: x·(1 − x²/(2s²β)) − x³/(6s²) + s·Ĉ(x/s, |x|/(s√β)),
// exactly the summand of step 4 in Algorithms 1 and 5.
func (e MeanEstimator) Term(x float64) float64 {
	a := x / e.S
	b := math.Abs(x) / (e.S * math.Sqrt(e.Beta))
	return e.S * SmoothedPhi(a, b)
}

// Estimate returns ˆx(s, β) = (1/n)·Σᵢ Term(xᵢ).
func (e MeanEstimator) Estimate(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += e.Term(x)
	}
	return sum / float64(len(xs))
}

// Sensitivity returns the exact ℓ∞ sensitivity 4√2·s/(3n) of Estimate
// over n samples: replacing one sample moves one Term by at most
// 2·s·PhiBound.
func (e MeanEstimator) Sensitivity(n int) float64 {
	if n <= 0 {
		panic("robust: Sensitivity needs n > 0")
	}
	return 2 * e.S * PhiBound / float64(n)
}

// ErrorBound returns the high-probability deviation bound of Lemma 4:
// |ˆx − E x| ≤ τ/(2s)·(1/β + 1) + s/n·(β/2 + log(2/ζ)), for a second
// moment bound τ and failure probability ζ.
func (e MeanEstimator) ErrorBound(tau float64, n int, zeta float64) float64 {
	return tau/(2*e.S)*(1/e.Beta+1) + e.S/float64(n)*(e.Beta/2+math.Log(2/zeta))
}

// EstimateVec applies the estimator coordinate-wise: rows[i] is the i-th
// sample vector; the j-th output is ˆx(s, β) over {rows[i][j]}. This is
// the g̃(w, D) construction of Algorithms 1 and 5 when the rows are
// per-sample gradients. dst is allocated when nil.
func (e MeanEstimator) EstimateVec(dst []float64, rows [][]float64) []float64 {
	if len(rows) == 0 {
		return dst
	}
	d := len(rows[0])
	if dst == nil {
		dst = make([]float64, d)
	}
	for _, row := range rows {
		if len(row) != d {
			panic("robust: EstimateVec ragged rows")
		}
	}
	inv := 1 / float64(len(rows))
	kern := e.kernel()
	// Shard the coordinate range [0, d): every worker owns dst[lo:hi]
	// outright and accumulates samples in row order, so the result is
	// bit-identical to the sequential double loop at any worker count.
	// kern.term is Term with the per-estimator constants hoisted out of
	// the m·d inner loop (bit-identical; see fused.go).
	parallel.For(e.Parallelism, d, func(_, lo, hi int) {
		for j := lo; j < hi; j++ {
			dst[j] = 0
		}
		for _, row := range rows {
			for j := lo; j < hi; j++ {
				dst[j] += kern.term(row[j])
			}
		}
		for j := lo; j < hi; j++ {
			dst[j] *= inv
		}
	})
	return dst
}

// Shrink returns sign(x)·min(|x|, k): the entry-wise shrinkage that
// Algorithms 2 and 3 apply to raw heavy-tailed data before any private
// computation, giving the loss an ℓ1-Lipschitz constant of O(K²).
func Shrink(x, k float64) float64 {
	if k < 0 {
		panic("robust: Shrink negative threshold")
	}
	if x > k {
		return k
	}
	if x < -k {
		return -k
	}
	return x
}

// ShrinkVec shrinks every entry of v in place and returns v.
func ShrinkVec(v []float64, k float64) []float64 {
	for i, x := range v {
		v[i] = Shrink(x, k)
	}
	return v
}

// MedianOfMeans is the classical robust-mean baseline: split into k
// blocks, average each, return the median of block means. Requires
// 1 ≤ k ≤ len(xs).
func MedianOfMeans(xs []float64, k int) float64 {
	n := len(xs)
	if k < 1 || k > n {
		panic(fmt.Sprintf("robust: MedianOfMeans k=%d outside [1,%d]", k, n))
	}
	means := make([]float64, 0, k)
	for b := 0; b < k; b++ {
		lo := b * n / k
		hi := (b + 1) * n / k
		var s float64
		for _, x := range xs[lo:hi] {
			s += x
		}
		means = append(means, s/float64(hi-lo))
	}
	sort.Float64s(means)
	m := len(means) / 2
	if len(means)%2 == 1 {
		return means[m]
	}
	return (means[m-1] + means[m]) / 2
}

// TrimmedMean removes the frac·n smallest and largest samples and
// averages the rest. frac must lie in [0, 0.5).
func TrimmedMean(xs []float64, frac float64) float64 {
	if frac < 0 || frac >= 0.5 {
		panic("robust: TrimmedMean frac outside [0, 0.5)")
	}
	if len(xs) == 0 {
		return 0
	}
	c := make([]float64, len(xs))
	copy(c, xs)
	sort.Float64s(c)
	cut := int(frac * float64(len(c)))
	kept := c[cut : len(c)-cut]
	var s float64
	for _, x := range kept {
		s += x
	}
	return s / float64(len(kept))
}
