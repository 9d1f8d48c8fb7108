package robust_test

import (
	"fmt"
	"math"

	"htdp/internal/randx"
	"htdp/internal/robust"
)

// Example demonstrates the paper's core primitive: a heavy-tailed mean
// estimated with bounded sensitivity, so Laplace noise at scale
// Sensitivity/ε makes the release ε-DP.
func Example() {
	// Pareto(1, 2.1): finite mean ≈ 1.909, barely finite variance.
	d := randx.Pareto{Xm: 1, Alpha: 2.1}
	r := randx.New(1)
	n := 5000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.Sample(r)
	}

	est := robust.MeanEstimator{S: robustScale(n, 25, 0.05), Beta: 1}
	mean := est.Estimate(xs)
	sens := est.Sensitivity(n)

	fmt.Printf("estimate close to true mean: %v\n", math.Abs(mean-d.Mean()) < 0.2)
	fmt.Printf("worst-case sensitivity known exactly: %v\n", sens > 0 && sens < 0.1)
	// Output:
	// estimate close to true mean: true
	// worst-case sensitivity known exactly: true
}

// robustScale is the Lemma-4-optimal truncation scale
// √(n·τ/(2·log(2/ζ))).
func robustScale(n int, tau, zeta float64) float64 {
	return math.Sqrt(float64(n) * tau / (2 * math.Log(2/zeta)))
}

func ExamplePhi() {
	fmt.Printf("φ(0)=%.0f φ(1)=%.3f saturates at ±%.3f\n",
		robust.Phi(0), robust.Phi(1), robust.PhiBound)
	// Output: φ(0)=0 φ(1)=0.833 saturates at ±0.943
}
