// Package loss defines the loss functions of the paper's experiments —
// squared loss, logistic loss, ℓ2-regularized logistic loss, and the
// non-convex biweight robust-regression loss of Assumption 2 — behind a
// single per-sample interface, plus empirical-risk and full-gradient
// evaluators over data matrices.
//
// Conventions: features are x ∈ R^d, labels y ∈ R (±1 for
// classification), and gradients are with respect to the parameter w.
package loss

import (
	"fmt"
	"math"

	"htdp/internal/parallel"
	"htdp/internal/vecmath"
)

// Loss is a per-sample loss ℓ(w, (x, y)).
type Loss interface {
	Name() string
	// Value returns ℓ(w, (x, y)).
	Value(w, x []float64, y float64) float64
	// Grad writes ∇_w ℓ(w, (x, y)) into dst (len d) and returns dst.
	Grad(dst, w, x []float64, y float64) []float64
}

// Squared is the linear-regression loss (⟨w, x⟩ − y)². Its gradient
// 2x(⟨w,x⟩−y) is unbounded under heavy-tailed x — the paper's
// motivating example for why clipping-free DP-SCO fails.
type Squared struct{}

func (Squared) Name() string { return "squared" }

func (Squared) Value(w, x []float64, y float64) float64 {
	r := vecmath.Dot(w, x) - y
	return r * r
}

func (Squared) Grad(dst, w, x []float64, y float64) []float64 {
	r := 2 * (vecmath.Dot(w, x) - y)
	for i, xi := range x {
		dst[i] = r * xi
	}
	return dst
}

// Logistic is the binary-classification loss log(1 + exp(−y⟨w, x⟩))
// with labels y ∈ {−1, +1}.
type Logistic struct{}

func (Logistic) Name() string { return "logistic" }

// logOnePlusExp computes log(1+e^m) without overflow.
func logOnePlusExp(m float64) float64 {
	if m > 0 {
		return m + math.Log1p(math.Exp(-m))
	}
	return math.Log1p(math.Exp(m))
}

// sigmoid is 1/(1+e^{−m}), evaluated stably.
func sigmoid(m float64) float64 {
	if m >= 0 {
		return 1 / (1 + math.Exp(-m))
	}
	e := math.Exp(m)
	return e / (1 + e)
}

func (Logistic) Value(w, x []float64, y float64) float64 {
	return logOnePlusExp(-y * vecmath.Dot(w, x))
}

func (Logistic) Grad(dst, w, x []float64, y float64) []float64 {
	c := -y * sigmoid(-y*vecmath.Dot(w, x))
	for i, xi := range x {
		dst[i] = c * xi
	}
	return dst
}

// RegLogistic is the ℓ2-regularized logistic loss
// log(1+exp(−y⟨w,x⟩)) + (λ/2)‖w‖₂², the strongly-convex GLM instance of
// Assumption 4 used by Algorithm 5's experiments (§6.5).
type RegLogistic struct{ Lambda float64 }

func (l RegLogistic) Name() string { return fmt.Sprintf("reglogistic(%g)", l.Lambda) }

func (l RegLogistic) Value(w, x []float64, y float64) float64 {
	return Logistic{}.Value(w, x, y) + l.Lambda/2*vecmath.Norm2Sq(w)
}

func (l RegLogistic) Grad(dst, w, x []float64, y float64) []float64 {
	Logistic{}.Grad(dst, w, x, y)
	vecmath.Axpy(l.Lambda, w, dst)
	return dst
}

// Biweight is Tukey's biweight robust-regression loss ψ(⟨x,w⟩−y) with
//
//	ψ(s) = (c²/6)·(1 − (1 − (s/c)²)³) for |s| ≤ c, (c²/6) otherwise,
//
// the non-convex loss satisfying Assumption 2 that Theorem 3 analyzes.
// ψ′(s) = s(1−(s/c)²)² inside and 0 outside, so max|ψ′| = 16c/(25√5).
type Biweight struct{ C float64 }

func (l Biweight) Name() string { return fmt.Sprintf("biweight(%g)", l.C) }

func (l Biweight) psi(s float64) float64 {
	c := l.C
	if s > c || s < -c {
		return c * c / 6
	}
	u := 1 - (s/c)*(s/c)
	return c * c / 6 * (1 - u*u*u)
}

// PsiPrime is the influence function ψ′(s), exported for the
// Assumption-2 property tests (odd, bounded, ψ′(s) > 0 for s > 0 inside
// the window).
func (l Biweight) PsiPrime(s float64) float64 {
	c := l.C
	if s > c || s < -c {
		return 0
	}
	u := 1 - (s/c)*(s/c)
	return s * u * u
}

func (l Biweight) Value(w, x []float64, y float64) float64 {
	return l.psi(vecmath.Dot(w, x) - y)
}

func (l Biweight) Grad(dst, w, x []float64, y float64) []float64 {
	c := l.PsiPrime(vecmath.Dot(w, x) - y)
	for i, xi := range x {
		dst[i] = c * xi
	}
	return dst
}

// Huber is the Huber robust-regression loss ρ(⟨x,w⟩−y) with
//
//	ρ(s) = s²/2 for |s| ≤ c, c·|s| − c²/2 otherwise.
//
// Like the biweight it satisfies Assumption 2 (ψ′ = ρ′ is odd, bounded
// by c, with ψ″ ≤ 1 and h′(0) > 0 for symmetric noise), so Theorem 3
// applies; unlike the biweight it is convex.
type Huber struct{ C float64 }

func (l Huber) Name() string { return fmt.Sprintf("huber(%g)", l.C) }

func (l Huber) rho(s float64) float64 {
	c := l.C
	if s > c {
		return c*s - c*c/2
	}
	if s < -c {
		return -c*s - c*c/2
	}
	return s * s / 2
}

// PsiPrime is the influence function ρ′(s) = clamp(s, ±c).
func (l Huber) PsiPrime(s float64) float64 {
	if s > l.C {
		return l.C
	}
	if s < -l.C {
		return -l.C
	}
	return s
}

func (l Huber) Value(w, x []float64, y float64) float64 {
	return l.rho(vecmath.Dot(w, x) - y)
}

func (l Huber) Grad(dst, w, x []float64, y float64) []float64 {
	c := l.PsiPrime(vecmath.Dot(w, x) - y)
	for i, xi := range x {
		dst[i] = c * xi
	}
	return dst
}

// MeanSquared is the mean-estimation loss ℓ(w, x) = ‖x − w‖₂² (labels
// ignored), whose population risk E‖x − w‖² is minimized at the mean —
// the instance behind the Theorem 9 lower bound and the sparse
// mean-estimation experiments. Its gradient 2(w − x) has per-coordinate
// second moment ≤ 4(E xⱼ² + wⱼ²), satisfying Assumption 4.
type MeanSquared struct{}

func (MeanSquared) Name() string { return "meansquared" }

func (MeanSquared) Value(w, x []float64, _ float64) float64 {
	var s float64
	for i, wi := range w {
		r := x[i] - wi
		s += r * r
	}
	return s
}

func (MeanSquared) Grad(dst, w, x []float64, _ float64) []float64 {
	for i, wi := range w {
		dst[i] = 2 * (wi - x[i])
	}
	return dst
}

// Empirical returns the empirical risk (1/n)·Σᵢ ℓ(w, (xᵢ, yᵢ)) over the
// rows of x, evaluating sample shards on GOMAXPROCS workers. The shard
// partials merge in a fixed order, so the value is deterministic for
// any GOMAXPROCS.
func Empirical(l Loss, w []float64, x *vecmath.Mat, y []float64) float64 {
	if x.Rows != len(y) {
		panic(fmt.Sprintf("loss: Empirical rows %d != labels %d", x.Rows, len(y)))
	}
	if x.Rows == 0 {
		return 0
	}
	s := parallel.ReduceFloat(0, x.Rows, func(_, lo, hi int) float64 {
		var p float64
		for i := lo; i < hi; i++ {
			p += l.Value(w, x.Row(i), y[i])
		}
		return p
	})
	return s / float64(x.Rows)
}

// FullGradient writes the empirical-risk gradient
// (1/n)·Σᵢ ∇ℓ(w, (xᵢ, yᵢ)) into dst (allocated when nil) and returns
// it, fanning sample shards out across GOMAXPROCS workers. Each shard
// accumulates per-sample gradients into its own partial with its own
// scratch buffer; partials merge in shard order, so the gradient is
// bit-identical for every worker count.
func FullGradient(l Loss, dst, w []float64, x *vecmath.Mat, y []float64) []float64 {
	if x.Rows != len(y) {
		panic(fmt.Sprintf("loss: FullGradient rows %d != labels %d", x.Rows, len(y)))
	}
	if dst == nil {
		dst = make([]float64, x.Cols)
	}
	if x.Rows == 0 {
		vecmath.Zero(dst)
		return dst
	}
	parallel.ReduceVec(0, x.Rows, dst, func(acc []float64, _, lo, hi int) {
		buf := make([]float64, len(acc))
		for i := lo; i < hi; i++ {
			l.Grad(buf, w, x.Row(i), y[i])
			vecmath.Axpy(1, buf, acc)
		}
	})
	vecmath.Scale(dst, 1/float64(x.Rows))
	return dst
}

// ExcessRisk returns Empirical(w) − Empirical(ref): the excess empirical
// risk against a reference (typically the non-private optimum), the
// measurement used throughout §6.
func ExcessRisk(l Loss, w, ref []float64, x *vecmath.Mat, y []float64) float64 {
	return Empirical(l, w, x, y) - Empirical(l, ref, x, y)
}
