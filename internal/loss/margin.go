package loss

import "htdp/internal/vecmath"

// Margin-based losses: every loss of the paper's experiments except
// MeanSquared depends on the sample only through the margin z = ⟨w, x⟩
// and factorizes as
//
//	∇_w ℓ(w, (x, y)) = GradScale(z, y)·x + RegCoeff·w.
//
// This two-phase decomposition is what the fused robust-gradient kernel
// exploits: a chunk's margins are computed once as the register-blocked
// matrix-vector product X·w (O(m·d) multiply-adds total), after which
// each per-sample gradient costs one scalar GradScale call instead of a
// fresh O(d) dot product per coordinate visit — and the gradient rows
// never need to be materialized at all (robust.MeanEstimator's
// EstimateChunk consumes the margin buffer directly).
//
// The decomposition is exact at the bit level, not just mathematically:
// GradScale evaluates the same expressions Grad evaluates, on a margin
// produced by the same Dot kernel (⟨x, w⟩ and ⟨w, x⟩ are bit-identical
// because IEEE multiplication commutes), so a fused gradient is
// bit-identical to the row-at-a-time Grad path. TestGradFromMargin and
// the core old-vs-new suites lock this in.

// MarginLoss is a Loss whose per-sample gradient factorizes through the
// margin z = ⟨w, x⟩ as ∇ℓ = GradScale(z, y)·x + RegCoeff()·w.
type MarginLoss interface {
	Loss
	// GradScale returns the scalar c with ∇ℓ = c·x (+ RegCoeff()·w),
	// given the precomputed margin z = ⟨w, x⟩.
	GradScale(z, y float64) float64
	// RegCoeff returns the coefficient of the additive w-term of the
	// gradient (λ for ℓ2 regularization, 0 for plain losses).
	RegCoeff() float64
}

// AsMargin reports whether l factorizes through the margin, returning
// the MarginLoss view when it does. Algorithms use it to pick the fused
// gradient path and fall back to per-sample Grad otherwise.
func AsMargin(l Loss) (MarginLoss, bool) {
	ml, ok := l.(MarginLoss)
	return ml, ok
}

// MarginsChunk computes all margins zᵢ = ⟨w, xᵢ⟩ of a chunk into dst
// (len x.Rows; allocated when nil) via the sharded MatVecP kernel —
// phase one of the fused gradient. Each margin is bit-identical to the
// vecmath.Dot(w, xᵢ) the unfused Grad methods evaluate.
func MarginsChunk(dst, w []float64, x *vecmath.Mat, workers int) []float64 {
	return x.MatVecP(dst, w, workers)
}

// GradFromMargin writes ∇_w ℓ into dst given the precomputed margin z,
// bit-identical to l.Grad(dst, w, x, y) — phase two of the fused
// gradient, exposed row-at-a-time for callers that still need gradient
// rows materialized.
func GradFromMargin(l MarginLoss, dst, w, x []float64, y, z float64) []float64 {
	c := l.GradScale(z, y)
	for i, xi := range x {
		dst[i] = c * xi
	}
	if lam := l.RegCoeff(); lam != 0 {
		vecmath.Axpy(lam, w, dst)
	}
	return dst
}

// ScalesFromMargins fills scales[i] = l.GradScale(margins[i], y[i]) —
// the per-sample scalar pass between MarginsChunk and the fused
// estimator.
func ScalesFromMargins(l MarginLoss, scales, margins, y []float64) []float64 {
	for i, z := range margins {
		scales[i] = l.GradScale(z, y[i])
	}
	return scales
}

// GradScale of the squared loss: ∇ = 2(z − y)·x.
func (Squared) GradScale(z, y float64) float64 { return 2 * (z - y) }

// RegCoeff of the squared loss is 0.
func (Squared) RegCoeff() float64 { return 0 }

// GradScale of the logistic loss: ∇ = −y·σ(−y·z)·x.
func (Logistic) GradScale(z, y float64) float64 { return -y * sigmoid(-y*z) }

// RegCoeff of the logistic loss is 0.
func (Logistic) RegCoeff() float64 { return 0 }

// GradScale of the regularized logistic loss matches Logistic; the
// λ·w ridge term is carried by RegCoeff.
func (RegLogistic) GradScale(z, y float64) float64 { return Logistic{}.GradScale(z, y) }

// RegCoeff of the regularized logistic loss is λ.
func (l RegLogistic) RegCoeff() float64 { return l.Lambda }

// GradScale of the biweight loss: ∇ = ψ′(z − y)·x.
func (l Biweight) GradScale(z, y float64) float64 { return l.PsiPrime(z - y) }

// RegCoeff of the biweight loss is 0.
func (Biweight) RegCoeff() float64 { return 0 }

// GradScale of the Huber loss: ∇ = ρ′(z − y)·x.
func (l Huber) GradScale(z, y float64) float64 { return l.PsiPrime(z - y) }

// RegCoeff of the Huber loss is 0.
func (Huber) RegCoeff() float64 { return 0 }
