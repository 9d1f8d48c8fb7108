package dp_test

import (
	"fmt"

	"htdp/internal/dp"
	"htdp/internal/randx"
)

// Example shows the two accounting styles side by side: the paper's
// Lemma 2 (advanced composition) and the RDP accountant, calibrating
// Gaussian noise for 500 adaptive rounds.
func Example() {
	total := dp.Params{Eps: 1, Delta: 1e-5}
	const T = 500

	perIter, err := dp.AdvancedComposition(total, T)
	if err != nil {
		panic(err)
	}
	sigmaAdv := dp.GaussianSigma(1, perIter)
	sigmaRDP := dp.GaussianSigmaRDP(1, total, T)

	fmt.Printf("advanced composition needs more noise: %v\n", sigmaAdv > sigmaRDP)
	fmt.Printf("RDP saves at least 25%%: %v\n", sigmaRDP < 0.75*sigmaAdv)
	// Output:
	// advanced composition needs more noise: true
	// RDP saves at least 25%: true
}

// ExampleExponentialLazy selects privately among candidates scored by a
// dataset-dependent utility.
func ExampleExponentialLazy() {
	rng := randx.New(1)
	scores := []float64{0, 1, 10} // candidate 2 is far better
	wins := 0
	for i := 0; i < 1000; i++ {
		if dp.ExponentialLazy(rng, len(scores), func(i int) float64 { return scores[i] }, 1, 2) == 2 {
			wins++
		}
	}
	fmt.Printf("best candidate selected almost always: %v\n", wins > 950)
	// Output: best candidate selected almost always: true
}
