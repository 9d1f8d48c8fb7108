package robust

import (
	"math"
	"testing"

	"htdp/internal/randx"
	"htdp/internal/vecmath"
)

func TestCatoniPsiProperties(t *testing.T) {
	// Odd, non-decreasing, and the log-moment sandwich holds with
	// equality on the positive side.
	for x := -10.0; x <= 10.0; x += 0.01 {
		if math.Abs(CatoniPsi(x)+CatoniPsi(-x)) > 1e-12 {
			t.Fatalf("not odd at %v", x)
		}
		if want := math.Log(1 + x + x*x/2); x >= 0 && math.Abs(CatoniPsi(x)-want) > 1e-12 {
			t.Fatalf("upper branch wrong at %v", x)
		}
	}
	prev := math.Inf(-1)
	for x := -5.0; x <= 5.0; x += 0.001 {
		if v := CatoniPsi(x); v < prev {
			t.Fatalf("not monotone at %v", x)
		} else {
			prev = v
		}
	}
	// ψ dominates the bounded φ in magnitude for large x.
	if CatoniPsi(10) <= Phi(10) {
		t.Fatal("ψ should exceed the saturated φ")
	}
}

func TestCatoniMeanGaussian(t *testing.T) {
	r := randx.New(1)
	n := 5000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 2 + r.Normal()
	}
	got := CatoniMean(xs, CatoniAlpha(n, 1, 0.05))
	if math.Abs(got-2) > 0.05 {
		t.Fatalf("CatoniMean = %v, want ≈2", got)
	}
}

func TestCatoniMeanHeavyTail(t *testing.T) {
	// Pareto(1, 2.1): the estimator should land near the true mean even
	// with occasional enormous samples.
	d := randx.Pareto{Xm: 1, Alpha: 2.1}
	truth := d.Mean()
	r := randx.New(2)
	n := 5000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.Sample(r)
	}
	got := CatoniMean(xs, CatoniAlpha(n, 25, 0.05))
	if math.Abs(got-truth) > 0.25 {
		t.Fatalf("CatoniMean = %v, want ≈%v", got, truth)
	}
}

func TestCatoniMeanEdge(t *testing.T) {
	if CatoniMean(nil, 1) != 0 {
		t.Fatal("empty input")
	}
	if got := CatoniMean([]float64{5}, 1); math.Abs(got-5) > 1e-9 {
		t.Fatalf("single sample = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on alpha ≤ 0")
		}
	}()
	CatoniMean([]float64{1}, 0)
}

func TestGeometricMedianExact(t *testing.T) {
	// Median of three collinear points is the middle one.
	rows := [][]float64{{0, 0}, {1, 0}, {10, 0}}
	m := GeometricMedian(rows, 500, 1e-12)
	if vecmath.Dist2(m, []float64{1, 0}) > 1e-6 {
		t.Fatalf("median = %v, want (1,0)", m)
	}
	// Symmetric configuration: the centroid.
	sym := [][]float64{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
	m2 := GeometricMedian(sym, 500, 1e-12)
	if vecmath.Norm2(m2) > 1e-8 {
		t.Fatalf("symmetric median = %v, want origin", m2)
	}
	if GeometricMedian(nil, 10, 1e-9) != nil {
		t.Fatal("empty input should return nil")
	}
}

func TestGeometricMedianOptimality(t *testing.T) {
	// The Weiszfeld output must (approximately) minimize Σ‖r−m‖ against
	// random perturbations.
	r := randx.New(3)
	rows := make([][]float64, 30)
	for i := range rows {
		rows[i] = []float64{r.Normal(), r.Normal(), r.Normal()}
	}
	obj := func(m []float64) float64 {
		var s float64
		for _, row := range rows {
			s += vecmath.Dist2(m, row)
		}
		return s
	}
	m := GeometricMedian(rows, 1000, 1e-12)
	base := obj(m)
	for k := 0; k < 200; k++ {
		pert := vecmath.Clone(m)
		for j := range pert {
			pert[j] += 0.05 * r.Normal()
		}
		if obj(pert) < base-1e-6 {
			t.Fatalf("found better point: %v < %v", obj(pert), base)
		}
	}
}

func TestGeometricMedianRobustToOutlier(t *testing.T) {
	rows := [][]float64{{0, 0}, {0.1, 0}, {-0.1, 0}, {0, 0.1}, {0, -0.1}, {1e6, 1e6}}
	m := GeometricMedian(rows, 500, 1e-10)
	if vecmath.Norm2(m) > 1 {
		t.Fatalf("median dragged by outlier: %v", m)
	}
}

func TestSecondMomentUpperBound(t *testing.T) {
	// On N(0, 2²): E x² = 4; the MoM estimate ×1.5 must cover it without
	// wild overshoot.
	r := randx.New(5)
	xs := make([]float64, 10001)
	for i := range xs {
		xs[i] = 2 * r.Normal()
	}
	tau := SecondMomentUpperBound(xs, 25, 1.5)
	if tau < 4 {
		t.Fatalf("bound %v below the true moment 4", tau)
	}
	if tau > 12 {
		t.Fatalf("bound %v too loose", tau)
	}
	// The bound survives a gross outlier (mean would not).
	xs[0] = 1e9
	tauOut := SecondMomentUpperBound(xs, 25, 1.5)
	if tauOut > 20 {
		t.Fatalf("outlier inflated the bound to %v", tauOut)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inflation < 1")
		}
	}()
	SecondMomentUpperBound(xs, 5, 0.5)
}

func TestDataDrivenTauPipeline(t *testing.T) {
	// End to end: estimate τ from a first split, then run the paper's
	// robust estimator with the Lemma-4-optimal s derived from τ̂. The
	// result should be at least as accurate as a fixed τ=1 guess when
	// the true moment is far from 1.
	d := randx.Shifted{Base: randx.LogNormal{Mu: 2, Sigma: 0.8}} // variance ≈ e⁴·(e^{0.64}−1)·e^{0.64} large
	r := randx.New(6)
	n := 8000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.Sample(r)
	}
	tauHat := SecondMomentUpperBound(xs[:n/4], 21, 1.5)
	zeta := 0.05
	sOpt := math.Sqrt(float64(3*n/4) * tauHat / (2 * math.Log(2/zeta)))
	est := MeanEstimator{S: sOpt, Beta: 1}
	got := est.Estimate(xs[n/4:])
	if math.Abs(got) > 2 {
		t.Fatalf("data-driven estimate %v far from true mean 0 (τ̂=%v, s=%v)", got, tauHat, sOpt)
	}
	// A wildly undersized fixed scale (τ=1 guess) truncates nearly all
	// mass and must be visibly worse.
	sBad := math.Sqrt(float64(3*n/4) * 1 / (2 * math.Log(2/zeta)))
	bad := MeanEstimator{S: sBad, Beta: 1}.Estimate(xs[n/4:])
	if math.Abs(bad) <= math.Abs(got) {
		t.Logf("note: fixed-τ estimate %v happened to beat data-driven %v on this seed", bad, got)
	}
}
