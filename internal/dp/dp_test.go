package dp

import (
	"math"
	"testing"

	"htdp/internal/randx"
)

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		p  Params
		ok bool
	}{
		{Params{1, 0}, true},
		{Params{0.5, 1e-5}, true},
		{Params{0, 0}, false},
		{Params{-1, 0}, false},
		{Params{1, -0.1}, false},
		{Params{1, 1}, false},
		{Params{math.Inf(1), 0}, false},
		{Params{math.NaN(), 0}, false},
	}
	for _, c := range cases {
		if err := c.p.Validate(); (err == nil) != c.ok {
			t.Errorf("Validate(%v) err=%v, want ok=%v", c.p, err, c.ok)
		}
	}
	if !(Params{1, 0}).Pure() || (Params{1, 1e-6}).Pure() {
		t.Error("Pure misclassifies")
	}
	if (Params{1, 0}).String() == "" || (Params{1, 1e-6}).String() == "" {
		t.Error("empty String")
	}
}

func TestAdvancedComposition(t *testing.T) {
	total := Params{Eps: 0.8, Delta: 1e-5}
	// Advanced composition beats basic only once T > 8·ln(2/δ) ≈ 98.
	T := 200
	per, err := AdvancedComposition(total, T)
	if err != nil {
		t.Fatal(err)
	}
	wantEps := total.Eps / (2 * math.Sqrt(2*float64(T)*math.Log(2/total.Delta)))
	if math.Abs(per.Eps-wantEps) > 1e-15 {
		t.Errorf("ε′ = %v, want %v", per.Eps, wantEps)
	}
	if per.Delta != total.Delta/float64(T) {
		t.Errorf("δ′ = %v", per.Delta)
	}
	// Sanity: the advanced-composition per-round ε beats basic composition
	// once T is large (that is its entire point).
	if basic := total.Eps / float64(T); per.Eps <= basic {
		t.Errorf("advanced (%v) not better than basic (%v) at T=%d", per.Eps, basic, T)
	}
	if _, err := AdvancedComposition(Params{Eps: 0.5}, 10); err == nil {
		t.Error("advanced composition accepted δ=0")
	}
	if _, err := AdvancedComposition(total, 0); err == nil {
		t.Error("accepted T=0")
	}
}

func TestGaussianMechanism(t *testing.T) {
	p := Params{Eps: 1, Delta: 1e-5}
	sigma := GaussianSigma(1, p)
	want := math.Sqrt(2 * math.Log(1.25/p.Delta))
	if math.Abs(sigma-want) > 1e-12 {
		t.Fatalf("sigma = %v, want %v", sigma, want)
	}
	r := randx.New(3)
	const n = 100000
	var s2 float64
	for i := 0; i < n; i++ {
		q := []float64{0}
		GaussianMechanism(r, q, 1, p)
		s2 += q[0] * q[0]
	}
	emp := s2 / n
	if math.Abs(emp-sigma*sigma)/(sigma*sigma) > 0.05 {
		t.Errorf("empirical var %v vs σ² %v", emp, sigma*sigma)
	}
}

// lazyScores runs ExponentialLazy over a materialized score slice.
func lazyScores(r *randx.RNG, scores []float64, sensitivity, eps float64) int {
	return ExponentialLazy(r, len(scores), func(i int) float64 { return scores[i] }, sensitivity, eps)
}

// eagerExponential is the textbook form of the mechanism: scores
// materialized, one Gumbel draw per candidate in index order, exact
// argmax at zero sensitivity. ExponentialLazy must select the same
// index from the same stream.
func eagerExponential(r *randx.RNG, scores []float64, sensitivity, eps float64) int {
	c := eps / (2 * sensitivity)
	best, bi := math.Inf(-1), 0
	for i, s := range scores {
		v := s
		if sensitivity > 0 {
			v = c*s + r.Gumbel()
		}
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

func TestExponentialDistribution(t *testing.T) {
	// Empirical selection frequencies must match exp(ε·u/2Δ) weights.
	r := randx.New(4)
	scores := []float64{0, 1, 2}
	sens, eps := 1.0, 2.0
	counts := make([]int, 3)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[lazyScores(r, scores, sens, eps)]++
	}
	var z float64
	want := make([]float64, 3)
	for i, s := range scores {
		want[i] = math.Exp(eps * s / (2 * sens))
		z += want[i]
	}
	for i := range want {
		want[i] /= z
		got := float64(counts[i]) / n
		if math.Abs(got-want[i]) > 0.01 {
			t.Errorf("candidate %d: freq %v, want %v", i, got, want[i])
		}
	}
}

func TestExponentialUtilityBound(t *testing.T) {
	// Lemma 1: P[u(out) ≤ OPT − (2Δ/ε)(ln|R| + t)] ≤ e^{−t}.
	r := randx.New(5)
	scores := make([]float64, 64)
	for i := range scores {
		scores[i] = float64(i) / 8
	}
	opt := scores[len(scores)-1]
	sens, eps := 1.0, 1.0
	tt := 3.0
	thresh := opt - 2*sens/eps*(math.Log(float64(len(scores)))+tt)
	const n = 100000
	bad := 0
	for i := 0; i < n; i++ {
		if scores[lazyScores(r, scores, sens, eps)] <= thresh {
			bad++
		}
	}
	if frac := float64(bad) / n; frac > math.Exp(-tt)*1.5+0.005 {
		t.Errorf("utility-bound violation rate %v > e^{-t}=%v", frac, math.Exp(-tt))
	}
}

func TestExponentialZeroSensitivityIsArgmax(t *testing.T) {
	r := randx.New(6)
	scores := []float64{3, -1, 7, 2}
	for i := 0; i < 100; i++ {
		if got := lazyScores(r, scores, 0, 1); got != 2 {
			t.Fatalf("zero-sensitivity selection = %d, want argmax 2", got)
		}
	}
}

func TestExponentialLazyMatchesEager(t *testing.T) {
	scores := []float64{0.5, 2.5, 1.0, -3}
	// With huge ε relative to Δ the mechanism is near-deterministic, so
	// lazy and eager agree with overwhelming probability.
	r1, r2 := randx.New(7), randx.New(7)
	for i := 0; i < 200; i++ {
		a := eagerExponential(r1, scores, 0.001, 50)
		b := ExponentialLazy(r2, len(scores), func(j int) float64 { return scores[j] }, 0.001, 50)
		if a != b {
			t.Fatalf("lazy %d != eager %d at trial %d", b, a, i)
		}
	}
}

func TestExponentialLazyDistribution(t *testing.T) {
	r := randx.New(8)
	scores := []float64{0, 1}
	sens, eps := 1.0, 2.0
	const n = 100000
	c1 := 0
	for i := 0; i < n; i++ {
		if ExponentialLazy(r, 2, func(j int) float64 { return scores[j] }, sens, eps) == 1 {
			c1++
		}
	}
	want := math.Exp(1.0) / (1 + math.Exp(1.0))
	if got := float64(c1) / n; math.Abs(got-want) > 0.01 {
		t.Errorf("lazy freq %v, want %v", got, want)
	}
}

func TestMechanismPanics(t *testing.T) {
	r := randx.New(9)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("gauss-no-delta", func() { GaussianSigma(1, Params{Eps: 1}) })
	mustPanic("lazy-empty", func() { ExponentialLazy(r, 0, nil, 1, 1) })
	mustPanic("lazy-neg-eps", func() { lazyScores(r, []float64{1}, 1, -1) })
	mustPanic("lazy-neg-sens", func() { lazyScores(r, []float64{1}, -1, 1) })
}
