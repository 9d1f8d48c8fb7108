// Package dp implements the differential-privacy substrate: the
// Gaussian mechanism, the exponential mechanism (sampled with the
// Gumbel-max trick), the advanced composition theorem (Lemma 2 of the
// paper), and the RDP accountants DP-SGD calibrates with. It depends
// only on randx.
package dp

import (
	"errors"
	"fmt"
	"math"

	"htdp/internal/randx"
)

// Params is an (ε, δ) differential-privacy budget. δ = 0 means pure DP.
type Params struct {
	Eps   float64
	Delta float64
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if !(p.Eps > 0) || math.IsInf(p.Eps, 0) || math.IsNaN(p.Eps) {
		return fmt.Errorf("dp: ε must be positive and finite, got %v", p.Eps)
	}
	if p.Delta < 0 || p.Delta >= 1 || math.IsNaN(p.Delta) {
		return fmt.Errorf("dp: δ must lie in [0,1), got %v", p.Delta)
	}
	return nil
}

// Pure reports whether the budget is pure ε-DP (δ = 0).
func (p Params) Pure() bool { return p.Delta == 0 }

func (p Params) String() string {
	if p.Pure() {
		return fmt.Sprintf("(ε=%g)-DP", p.Eps)
	}
	return fmt.Sprintf("(ε=%g, δ=%g)-DP", p.Eps, p.Delta)
}

// AdvancedComposition returns the per-mechanism budget (ε′, δ′) such
// that running T mechanisms, each (ε′, δ′)-DP, yields (ε, T·δ′+δ)-DP in
// total — Lemma 2 of the paper: ε′ = ε / (2√(2T·ln(2/δ))), δ′ = δ/T.
// It requires 0 < ε < 1, 0 < δ < 1 and T ≥ 1.
func AdvancedComposition(total Params, T int) (Params, error) {
	if T < 1 {
		return Params{}, fmt.Errorf("dp: composition over T=%d mechanisms", T)
	}
	if err := total.Validate(); err != nil {
		return Params{}, err
	}
	if total.Delta == 0 {
		return Params{}, errors.New("dp: advanced composition needs δ > 0")
	}
	return Params{
		Eps:   total.Eps / (2 * math.Sqrt(2*float64(T)*math.Log(2/total.Delta))),
		Delta: total.Delta / float64(T),
	}, nil
}

// GaussianSigma returns the standard deviation Δ₂·√(2·ln(1.25/δ))/ε of
// the (ε, δ)-DP Gaussian mechanism for an ℓ2-sensitivity Δ₂.
func GaussianSigma(sensitivity float64, p Params) float64 {
	if sensitivity < 0 {
		panic("dp: negative sensitivity")
	}
	if p.Eps <= 0 || p.Delta <= 0 {
		panic("dp: Gaussian mechanism needs ε > 0 and δ > 0")
	}
	return sensitivity * math.Sqrt(2*math.Log(1.25/p.Delta)) / p.Eps
}

// GaussianMechanism adds N(0, σ²) noise per coordinate with σ from
// GaussianSigma, in place, and returns q. The result is (ε, δ)-DP for a
// query with the given ℓ2-sensitivity.
func GaussianMechanism(r *randx.RNG, q []float64, sensitivity float64, p Params) []float64 {
	sigma := GaussianSigma(sensitivity, p)
	for i := range q {
		q[i] += sigma * r.Normal()
	}
	return q
}

// ExponentialLazy samples the exponential mechanism over n candidates
// without materializing their scores: score(i) is called once per
// candidate i ∈ [0, n), and candidate i is selected with probability
// ∝ exp(ε·score(i)/(2Δ)). Sampling uses the Gumbel-max trick, which is
// numerically stable for any score range: argmaxᵢ (ε·uᵢ/(2Δ) + Gᵢ) with
// i.i.d. standard Gumbel Gᵢ is distributed exactly as the mechanism.
// sensitivity is the score sensitivity Δu; the result is ε-DP. At
// Δu = 0 the selection has no data dependence and is the exact argmax.
// Used for polytopes whose vertices are implicit.
func ExponentialLazy(r *randx.RNG, n int, score func(int) float64, sensitivity, eps float64) int {
	if n <= 0 {
		panic("dp: ExponentialLazy with no candidates")
	}
	if sensitivity < 0 {
		panic("dp: negative sensitivity")
	}
	if eps <= 0 {
		panic("dp: non-positive ε")
	}
	c := 0.0
	if sensitivity > 0 {
		c = eps / (2 * sensitivity)
	}
	best, bi := math.Inf(-1), 0
	for i := 0; i < n; i++ {
		v := score(i)
		if sensitivity > 0 {
			v = c*v + r.Gumbel()
		}
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// ExponentialL1Ball is ExponentialLazy specialized to the 2d implicit
// vertices {±radius·eⱼ} of an ℓ1 ball scored against a gradient g
// (vertex j scores −radius·g[j], vertex d+j scores +radius·g[j]): the
// whole vertex set is scored in one pass over g with no per-vertex
// closure or interface dispatch — the Frank–Wolfe oracle's hot path.
// The candidate order, Gumbel draw sequence, and tie-breaking replicate
// ExponentialLazy over polytope.L1Ball.VertexScore exactly, so the
// selected index is bit-identical.
func ExponentialL1Ball(r *randx.RNG, g []float64, radius, sensitivity, eps float64) int {
	d := len(g)
	if d == 0 {
		panic("dp: ExponentialL1Ball with no candidates")
	}
	if sensitivity < 0 {
		panic("dp: negative sensitivity")
	}
	if eps <= 0 {
		panic("dp: non-positive ε")
	}
	noisy := sensitivity > 0
	c := 0.0
	if noisy {
		c = eps / (2 * sensitivity)
	}
	best, bi := math.Inf(-1), 0
	for i, gi := range g {
		v := -radius * gi
		if noisy {
			v = c*v + r.Gumbel()
		}
		if v > best {
			best, bi = v, i
		}
	}
	for i, gi := range g {
		v := radius * gi
		if noisy {
			v = c*v + r.Gumbel()
		}
		if v > best {
			best, bi = v, d+i
		}
	}
	return bi
}
