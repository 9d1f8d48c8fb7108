package robust

import (
	"math"

	"htdp/internal/vecmath"
)

// CatoniPsi is Catoni's original influence function, the widest
// non-decreasing ψ with −log(1−x+x²/2) ≤ ψ(x) ≤ log(1+x+x²/2):
// ψ(x) = sign(x)·log(1+|x|+x²/2). Unlike the polynomial φ of eq. (2) it
// is unbounded (logarithmically), so the resulting M-estimator is more
// statistically efficient but has unbounded sensitivity — exactly why
// the paper switched to the bounded φ for the private setting. It is
// kept here as the classical non-private reference.
func CatoniPsi(x float64) float64 {
	a := math.Abs(x)
	v := math.Log(1 + a + a*a/2)
	if x < 0 {
		return -v
	}
	return v
}

// CatoniMean is Catoni's M-estimator: the root θ of
// Σᵢ ψ((xᵢ−θ)/alpha) = 0, found by bisection. alpha is the scale
// parameter; the classical choice for variance bound v and failure
// probability ζ is alpha = √(n·v / (2·log(1/ζ))).
func CatoniMean(xs []float64, alpha float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if alpha <= 0 {
		panic("robust: CatoniMean needs alpha > 0")
	}
	f := func(theta float64) float64 {
		var s float64
		for _, x := range xs {
			s += CatoniPsi((x - theta) / alpha)
		}
		return s
	}
	// f is strictly decreasing in θ; bracket by the data range expanded
	// by alpha (the root always lies within it since ψ is sign-faithful).
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	lo -= alpha
	hi += alpha
	for i := 0; i < 200 && hi-lo > 1e-12*(1+math.Abs(lo)+math.Abs(hi)); i++ {
		mid := (lo + hi) / 2
		if f(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// CatoniAlpha returns the classical scale √(n·v/(2·log(1/ζ))) for a
// variance bound v and failure probability ζ.
func CatoniAlpha(n int, v, zeta float64) float64 {
	if n < 1 || v <= 0 || zeta <= 0 || zeta >= 1 {
		panic("robust: CatoniAlpha bad arguments")
	}
	return math.Sqrt(float64(n) * v / (2 * math.Log(1/zeta)))
}

// GeometricMedian computes the point minimizing Σᵢ‖rowᵢ − m‖₂ by
// Weiszfeld iteration with the standard singularity safeguard — the
// multivariate median-of-means building block of Minsker's estimator
// [44], kept as a vector-valued robust baseline.
func GeometricMedian(rows [][]float64, maxIter int, tol float64) []float64 {
	if len(rows) == 0 {
		return nil
	}
	d := len(rows[0])
	m := make([]float64, d)
	for _, r := range rows {
		if len(r) != d {
			panic("robust: GeometricMedian ragged rows")
		}
		vecmath.Axpy(1, r, m)
	}
	vecmath.Scale(m, 1/float64(len(rows)))
	next := make([]float64, d)
	for it := 0; it < maxIter; it++ {
		vecmath.Zero(next)
		var wsum float64
		atPoint := false
		for _, r := range rows {
			dist := vecmath.Dist2(m, r)
			if dist < 1e-12 {
				atPoint = true
				continue
			}
			w := 1 / dist
			vecmath.Axpy(w, r, next)
			wsum += w
		}
		if wsum == 0 {
			return m // all rows coincide with m
		}
		vecmath.Scale(next, 1/wsum)
		if atPoint {
			// Safeguarded step: average with the current point to avoid
			// oscillation at a data point (Vardi–Zhang style damping).
			vecmath.Lerp(next, m, next, 0.5)
		}
		moved := vecmath.Dist2(next, m)
		copy(m, next)
		if moved < tol {
			break
		}
	}
	return m
}

// SecondMomentUpperBound estimates an upper bound on E[x²] from data by
// median-of-means over the squared samples inflated by the given factor
// (≥ 1). The paper assumes the moment bound τ is known (a stated
// limitation, §3); this estimator makes the pipeline fully data-driven
// at the cost of a small extra failure probability. blocks ≥ 1.
func SecondMomentUpperBound(xs []float64, blocks int, inflation float64) float64 {
	if inflation < 1 {
		panic("robust: SecondMomentUpperBound inflation < 1")
	}
	sq := make([]float64, len(xs))
	for i, x := range xs {
		sq[i] = x * x
	}
	return MedianOfMeans(sq, blocks) * inflation
}
