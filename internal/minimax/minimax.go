// Package minimax implements the lower bound of §5.2: the size of the
// sparse sign-vector packing of Lemma 11 and the resulting
// Ω(τ·min{s*·log d, log(1/δ)}/(nε)) private minimax rate of Theorem 9
// for sparse heavy-tailed mean estimation. The experiment harness plots
// this floor under the measured error of Algorithm 5.
package minimax

import (
	"fmt"
	"math"
)

// PackingLogSize returns the Lemma 11 guarantee: there is a subset of
// s-sparse sign vectors with pairwise Hamming distance ≥ s/2 and
// cardinality at least exp((s/2)·log((d−s)/(s/2))).
func PackingLogSize(d, s int) float64 {
	if s < 1 || s >= d {
		panic(fmt.Sprintf("minimax: PackingLogSize needs 1 ≤ s < d, got s=%d d=%d", s, d))
	}
	return float64(s) / 2 * math.Log(float64(d-s)/(float64(s)/2))
}

// LowerBound returns the Theorem 9 private minimax floor for sparse
// heavy-tailed mean estimation in squared ℓ2 error:
//
//	M ≥ (τ/4)·min{ (s/2)·log((d−s)/(s/2)) − ε, log((1−e^{−ε})/(4δe^{ε})) } / (nε),
//
// clamped at 0; asymptotically Ω(τ·min{s·log d, log(1/δ)}/(nε)).
func LowerBound(tau float64, s, d, n int, eps, delta float64) float64 {
	if s < 1 || s >= d || n < 1 || eps <= 0 || delta <= 0 || delta >= 1 || tau <= 0 {
		panic("minimax: LowerBound bad arguments")
	}
	a := PackingLogSize(d, s) - eps
	b := math.Log((1 - math.Exp(-eps)) / (4 * delta * math.Exp(eps)))
	m := math.Min(a, b)
	if m <= 0 {
		return 0
	}
	return tau / 4 * m / (float64(n) * eps)
}
