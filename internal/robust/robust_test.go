package robust

import (
	"math"
	"testing"
	"testing/quick"

	"htdp/internal/randx"
)

func TestPhiShape(t *testing.T) {
	if Phi(0) != 0 {
		t.Error("φ(0) != 0")
	}
	if got := Phi(1); got != 1-1.0/6 {
		t.Errorf("φ(1) = %v", got)
	}
	if Phi(10) != PhiBound || Phi(-10) != -PhiBound {
		t.Error("saturation values wrong")
	}
	// Continuity at the knots: x−x³/6 at √2 equals 2√2/3.
	if math.Abs(Phi(math.Sqrt2)-PhiBound) > 1e-15 {
		t.Errorf("discontinuity at √2: %v vs %v", Phi(math.Sqrt2), PhiBound)
	}
}

func TestPhiProperties(t *testing.T) {
	// Odd, bounded, monotone non-decreasing, and the log-moment sandwich
	// −log(1−x+x²/2) ≤ φ(x) ≤ log(1+x+x²/2) from the proof of Lemma 4.
	f := func(xRaw float64) bool {
		x := math.Mod(xRaw, 50)
		if math.IsNaN(x) {
			return true
		}
		if math.Abs(Phi(x)+Phi(-x)) > 1e-15 {
			return false
		}
		if math.Abs(Phi(x)) > PhiBound+1e-15 {
			return false
		}
		up := math.Log(1 + x + x*x/2)
		lo := -math.Log(1 - x + x*x/2)
		return Phi(x) <= up+1e-12 && Phi(x) >= lo-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(-1)
	for x := -3.0; x <= 3.0; x += 0.001 {
		if v := Phi(x); v < prev-1e-15 {
			t.Fatalf("φ not monotone at %v", x)
		} else {
			prev = v
		}
	}
}

// smoothedPhiQuad computes E_z φ(a + b z), z ~ N(0,1), by Simpson
// integration — an implementation-independent oracle for Correction.
func smoothedPhiQuad(a, b float64) float64 {
	const lim = 12.0
	const n = 20000
	h := 2 * lim / n
	f := func(z float64) float64 {
		return Phi(a+b*z) * math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
	}
	s := f(-lim) + f(lim)
	for i := 1; i < n; i++ {
		z := -lim + float64(i)*h
		if i%2 == 1 {
			s += 4 * f(z)
		} else {
			s += 2 * f(z)
		}
	}
	return s * h / 3
}

func TestCorrectionMatchesQuadrature(t *testing.T) {
	// The analytic appendix formula must agree with numerical integration
	// across the (a, b) plane, including saturated and near-zero regimes.
	for _, a := range []float64{-5, -2, -1.4, -0.5, 0, 0.3, 1, 1.4142, 2, 7} {
		for _, b := range []float64{1e-3, 0.1, 0.5, 1, 2, 5} {
			want := smoothedPhiQuad(a, b)
			got := SmoothedPhi(a, b)
			if math.Abs(got-want) > 1e-8 {
				t.Errorf("SmoothedPhi(%v,%v) = %v, quadrature %v", a, b, got, want)
			}
		}
	}
}

func TestStableBranchMatchesAnalytic(t *testing.T) {
	// The quadrature fallback and the closed form must agree where the
	// closed form is still well conditioned.
	for _, a := range []float64{-80, -20, -3, 0, 1, 15, 60} {
		for _, b := range []float64{0.5, 5, 30, 90} {
			analytic := a*(1-b*b/2) - a*a*a/6 + Correction(a, b)
			stable := smoothedPhiStable(a, b)
			if math.Abs(analytic-stable) > 1e-7 {
				t.Errorf("branch mismatch at (%v,%v): %v vs %v", a, b, analytic, stable)
			}
		}
	}
	// Extreme arguments stay bounded on the stable branch.
	for _, x := range []float64{1e6, 1e100, 1e308, -1e308} {
		if v := SmoothedPhi(x, math.Abs(x)); math.Abs(v) > PhiBound+1e-9 || math.IsNaN(v) {
			t.Errorf("SmoothedPhi(%g) = %v unbounded", x, v)
		}
	}
}

func TestCorrectionZeroB(t *testing.T) {
	for _, a := range []float64{-3, -1, 0, 0.5, 2} {
		want := Phi(a) - a + a*a*a/6
		if got := Correction(a, 0); math.Abs(got-want) > 1e-15 {
			t.Errorf("Correction(%v,0) = %v, want %v", a, got, want)
		}
	}
	// E φ(a + 0·z) = φ(a).
	if got := SmoothedPhi(1.2, 0); math.Abs(got-Phi(1.2)) > 1e-15 {
		t.Errorf("SmoothedPhi(1.2, 0) = %v", got)
	}
}

func TestSmoothedPhiBounded(t *testing.T) {
	// |E φ| ≤ PhiBound always, since φ is bounded.
	f := func(aRaw, bRaw float64) bool {
		a := math.Mod(aRaw, 20)
		b := math.Abs(math.Mod(bRaw, 20))
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		return math.Abs(SmoothedPhi(a, b)) <= PhiBound+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanEstimatorTermBound(t *testing.T) {
	// |Term(x)| ≤ s·PhiBound: the root of the sensitivity bound.
	e := MeanEstimator{S: 3, Beta: 1}
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		return math.Abs(e.Term(x)) <= e.S*PhiBound+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSensitivityExact(t *testing.T) {
	// Swapping one sample changes the estimate by ≤ 4√2·s/(3n), and the
	// bound is achieved in the limit of extreme swaps.
	e := MeanEstimator{S: 2, Beta: 1}
	n := 10
	base := make([]float64, n)
	r := randx.New(1)
	for i := range base {
		base[i] = r.Normal() * 5
	}
	orig := e.Estimate(base)
	sens := e.Sensitivity(n)
	worst := 0.0
	for _, repl := range []float64{-1e9, -10, 0, 10, 1e9} {
		mod := append([]float64(nil), base...)
		mod[0] = repl
		if d := math.Abs(e.Estimate(mod) - orig); d > worst {
			worst = d
		}
		if d := math.Abs(e.Estimate(mod) - orig); d > sens+1e-12 {
			t.Fatalf("sensitivity violated: |Δ| = %v > %v", d, sens)
		}
	}
	// Extreme swap of ±1e9 should get within a factor 2 of the bound when
	// the original sample was moderate.
	if worst < sens/4 {
		t.Errorf("worst observed %v far below bound %v — bound looks loose or Term is wrong", worst, sens)
	}
	if got := e.Sensitivity(5); math.Abs(got-4*math.Sqrt2*e.S/(3*5)) > 1e-15 {
		t.Errorf("Sensitivity = %v", got)
	}
}

func TestEstimateGaussianUnbiasedish(t *testing.T) {
	// With large s the estimator is nearly the sample mean.
	r := randx.New(2)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = 3 + r.Normal()
	}
	e := MeanEstimator{S: 100, Beta: 1}
	if got := e.Estimate(xs); math.Abs(got-3) > 0.05 {
		t.Errorf("estimate = %v, want ≈3", got)
	}
}

func TestEstimateHeavyTailBeatsMean(t *testing.T) {
	// Pareto(1, 2.1): mean = 2.1/1.1 ≈ 1.909, variance barely finite.
	// The robust estimator with a theory-driven s should have smaller
	// median absolute error than the empirical mean across trials.
	d := randx.Pareto{Xm: 1, Alpha: 2.1}
	truth := d.Mean()
	tau := 40.0 // loose bound on E x² = α/(α−2) ≈ 21
	n := 2000
	trials := 60
	r := randx.New(3)
	var robustErrs, meanErrs []float64
	for tr := 0; tr < trials; tr++ {
		xs := make([]float64, n)
		var mean float64
		for i := range xs {
			xs[i] = d.Sample(r)
			mean += xs[i]
		}
		mean /= float64(n)
		// Lemma-4-optimal scale s ≈ √(nτ / (2·log(2/ζ))).
		s := math.Sqrt(float64(n) * tau / (2 * math.Log(2/0.05)))
		e := MeanEstimator{S: s, Beta: 1}
		robustErrs = append(robustErrs, math.Abs(e.Estimate(xs)-truth))
		meanErrs = append(meanErrs, math.Abs(mean-truth))
	}
	med := func(v []float64) float64 {
		c := append([]float64(nil), v...)
		for i := range c {
			for j := i + 1; j < len(c); j++ {
				if c[j] < c[i] {
					c[i], c[j] = c[j], c[i]
				}
			}
		}
		return c[len(c)/2]
	}
	// Worst-case (95th pct) error comparison is where robustness shows.
	sort95 := func(v []float64) float64 {
		c := append([]float64(nil), v...)
		for i := range c {
			for j := i + 1; j < len(c); j++ {
				if c[j] < c[i] {
					c[i], c[j] = c[j], c[i]
				}
			}
		}
		return c[int(0.95*float64(len(c)))]
	}
	if sort95(robustErrs) > sort95(meanErrs)*1.5 {
		t.Errorf("robust 95pct err %v much worse than mean %v", sort95(robustErrs), sort95(meanErrs))
	}
	_ = med
}

func TestErrorBoundHolds(t *testing.T) {
	// Empirical deviation should respect the Lemma 4 bound with margin.
	d := randx.LogNormal{Mu: 0, Sigma: 1}
	truth := d.Mean()
	tau := d.Var() + truth*truth // E x²
	n := 5000
	zeta := 0.05
	r := randx.New(4)
	s := math.Sqrt(float64(n) * tau / (2 * math.Log(2/zeta)))
	e := MeanEstimator{S: s, Beta: 1}
	bound := e.ErrorBound(tau, n, zeta)
	viol := 0
	trials := 100
	for tr := 0; tr < trials; tr++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = d.Sample(r)
		}
		if math.Abs(e.Estimate(xs)-truth) > bound {
			viol++
		}
	}
	if frac := float64(viol) / float64(trials); frac > zeta*2+0.02 {
		t.Errorf("bound violated in %v of trials (ζ=%v, bound=%v)", frac, zeta, bound)
	}
}

func TestEstimateVec(t *testing.T) {
	// Large s keeps the multiplicative-noise bias negligible here.
	e := MeanEstimator{S: 500, Beta: 1}
	rows := [][]float64{{1, 10}, {3, 20}}
	got := e.EstimateVec(nil, rows)
	if math.Abs(got[0]-2) > 0.05 || math.Abs(got[1]-15) > 0.1 {
		t.Errorf("EstimateVec = %v", got)
	}
	// Coordinate-wise equals scalar estimates.
	col0 := e.Estimate([]float64{1, 3})
	if math.Abs(got[0]-col0) > 1e-12 {
		t.Errorf("vector/scalar mismatch: %v vs %v", got[0], col0)
	}
	// Reuse dst.
	dst := make([]float64, 2)
	if got2 := e.EstimateVec(dst, rows); &got2[0] != &dst[0] {
		t.Error("EstimateVec ignored dst")
	}
}

func TestEstimateFuncMatchesVec(t *testing.T) {
	e := MeanEstimator{S: 5, Beta: 2}
	rows := [][]float64{{1, -7, 2}, {0.5, 3, -1}, {9, 9, 9}}
	want := e.EstimateVec(nil, rows)
	got := e.EstimateFuncWS(make([]float64, 3), len(rows), nil, func(i int, buf []float64) {
		copy(buf, rows[i])
	})
	for j := range want {
		if math.Abs(got[j]-want[j]) > 1e-12 {
			t.Fatalf("EstimateFuncWS[%d] = %v, want %v", j, got[j], want[j])
		}
	}
}

func TestValidate(t *testing.T) {
	if err := (MeanEstimator{S: 1, Beta: 1}).Validate(); err != nil {
		t.Error(err)
	}
	for _, e := range []MeanEstimator{{S: 0, Beta: 1}, {S: 1, Beta: 0}, {S: math.NaN(), Beta: 1}, {S: 1, Beta: math.Inf(1)}} {
		if err := e.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", e)
		}
	}
}

func TestMedianOfMeans(t *testing.T) {
	// Exact on deterministic input.
	xs := []float64{1, 1, 1, 100, 1, 1}
	if got := MedianOfMeans(xs, 3); got != 1 {
		t.Errorf("MoM = %v, want 1 (outlier confined to one block)", got)
	}
	if got := MedianOfMeans([]float64{5}, 1); got != 5 {
		t.Errorf("MoM single = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for k > n")
		}
	}()
	MedianOfMeans([]float64{1}, 2)
}

func TestMoMRobustOnCauchy(t *testing.T) {
	// Median-of-means on symmetric Cauchy data stays near 0 while the
	// empirical mean wanders.
	d := randx.StudentT{Nu: 1}
	r := randx.New(6)
	n := 5001
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.Sample(r)
	}
	if got := MedianOfMeans(xs, 59); math.Abs(got) > 1 {
		t.Errorf("MoM on Cauchy = %v, expected near 0", got)
	}
}
