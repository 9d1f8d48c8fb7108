package core

import (
	"math"
	"testing"

	"htdp/internal/data"
	"htdp/internal/loss"
	"htdp/internal/polytope"
	"htdp/internal/randx"
	"htdp/internal/vecmath"
)

func sparseMeanData(seed int64, n, d int, mu []float64) *vecmath.Mat {
	r := randx.New(seed)
	noise := randx.Shifted{Base: randx.LogNormal{Mu: 0, Sigma: 0.7}}
	x := vecmath.NewMat(n, d)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j := range row {
			row[j] = mu[j] + noise.Sample(r)
		}
	}
	return x
}

// sparseMean runs SparseMeanSource over the rows of x.
func sparseMean(x *vecmath.Mat, opt SparseMeanOptions) ([]float64, error) {
	return SparseMeanSource(data.NewMemSource(&data.Dataset{X: x, Y: make([]float64, x.Rows)}), opt)
}

func TestSparseMeanValidation(t *testing.T) {
	x := vecmath.NewMat(10, 5)
	r := randx.New(1)
	cases := map[string]SparseMeanOptions{
		"no-rng":    {Eps: 1, Delta: 1e-5, SStar: 2},
		"no-delta":  {Eps: 1, SStar: 2, Rng: r},
		"bad-eps":   {Eps: 0, Delta: 1e-5, SStar: 2, Rng: r},
		"bad-sstar": {Eps: 1, Delta: 1e-5, SStar: 9, Rng: r},
	}
	for name, opt := range cases {
		if _, err := sparseMean(x, opt); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if _, err := sparseMean(vecmath.NewMat(0, 5), SparseMeanOptions{Eps: 1, Delta: 1e-5, SStar: 2, Rng: r}); err == nil {
		t.Error("empty data accepted")
	}
}

func TestSparseMeanRecovers(t *testing.T) {
	d, sStar := 100, 3
	mu := make([]float64, d)
	mu[5], mu[50], mu[77] = 1.0, -0.8, 0.6
	x := sparseMeanData(2, 20000, d, mu)
	var tot float64
	const reps = 3
	for k := int64(0); k < reps; k++ {
		got, err := sparseMean(x, SparseMeanOptions{
			Eps: 1, Delta: 1e-5, SStar: sStar, Tau: 2, Rng: randx.New(3 + k),
		})
		if err != nil {
			t.Fatal(err)
		}
		if vecmath.Norm0(got) > sStar {
			t.Fatalf("support %d > s*", vecmath.Norm0(got))
		}
		tot += vecmath.Dist2(got, mu)
	}
	if avg := tot / reps; avg > 0.5*vecmath.Norm2(mu) {
		t.Fatalf("avg recovery distance %v (‖µ‖=%v)", avg, vecmath.Norm2(mu))
	}
}

func TestSparseMeanOneShotVsIterative(t *testing.T) {
	// The one-shot estimator should be competitive with the T-iteration
	// Algorithm 5 on the pure mean-estimation instance (it spends the
	// whole budget once instead of splitting the data T ways).
	d, sStar := 80, 3
	mu := make([]float64, d)
	mu[3], mu[17], mu[31] = 0.8, -0.6, 0.5
	x := sparseMeanData(4, 20000, d, mu)
	ds := &data.Dataset{Label: "sm", X: x, Y: make([]float64, x.Rows), WStar: mu}
	var oneTot, iterTot float64
	const reps = 3
	for k := int64(0); k < reps; k++ {
		one, err := sparseMean(x, SparseMeanOptions{Eps: 1, Delta: 1e-5, SStar: sStar, Tau: 2, Rng: randx.New(10 + k)})
		if err != nil {
			t.Fatal(err)
		}
		it, err := SparseOptSource(data.NewMemSource(ds), SparseOptOptions{
			Loss: loss.MeanSquared{}, Eps: 1, Delta: 1e-5, SStar: sStar, Eta: 0.45, Rng: randx.New(20 + k),
		})
		if err != nil {
			t.Fatal(err)
		}
		oneTot += vecmath.Dist2(one, mu)
		iterTot += vecmath.Dist2(it, mu)
	}
	if oneTot > 2*iterTot+0.3 {
		t.Fatalf("one-shot (%v) much worse than iterative (%v)", oneTot/reps, iterTot/reps)
	}
}

// scaledStudentT is factor·t(ν), a Student-t noise law with a chosen
// spread; the generators only draw from it.
type scaledStudentT struct{ nu, factor float64 }

func (d scaledStudentT) Name() string                { return "scaled-studentt" }
func (d scaledStudentT) Sample(r *randx.RNG) float64 { return d.factor * r.StudentT(d.nu) }
func (d scaledStudentT) Mean() float64               { return 0 }
func (d scaledStudentT) Var() float64                { return d.factor * d.factor * d.nu / (d.nu - 2) }
func (d scaledStudentT) PDF(float64) float64         { return math.NaN() }

func TestRobustRegression(t *testing.T) {
	// Assumption-2 model: y = ⟨w*, x⟩ + symmetric heavy noise; the
	// biweight FW should beat the zero vector on biweight risk.
	r := randx.New(5)
	d := 30
	// Concentrated signal (‖w*‖₁ = 1 on two coordinates) so residuals at
	// w = 0 carry usable gradient inside the biweight window.
	wStar := make([]float64, d)
	wStar[2], wStar[11] = 0.5, -0.5
	ds := data.Linear(r, data.LinearOpt{
		N: 10000, D: d,
		Feature: randx.Normal{Mu: 0, Sigma: 1},
		Noise:   scaledStudentT{nu: 2.5, factor: 0.3}, // symmetric, heavy
		WStar:   wStar,
	})
	w, err := RobustRegressionSource(data.NewMemSource(ds), RobustRegressionOptions{
		C: 2, Eps: 2, Rng: randx.New(6),
	})
	if err != nil {
		t.Fatal(err)
	}
	if vecmath.Norm1(w) > 1+1e-9 {
		t.Fatalf("output left the ℓ1 ball: %v", vecmath.Norm1(w))
	}
	l := loss.Biweight{C: 2}
	zero := make([]float64, d)
	if loss.Empirical(l, w, ds.X, ds.Y) >= loss.Empirical(l, zero, ds.X, ds.Y) {
		t.Fatal("no improvement on biweight risk")
	}
	if _, err := RobustRegressionSource(data.NewMemSource(ds), RobustRegressionOptions{Eps: 1}); err == nil {
		t.Error("missing Rng accepted")
	}
}

func TestFullDataFWValidation(t *testing.T) {
	ds := linearL1Workload(7, 200, 5)
	r := randx.New(8)
	dom := polytope.NewL1Ball(5, 1)
	cases := map[string]FullDataFWOptions{
		"no-loss":  {Domain: dom, Eps: 1, Delta: 1e-5, Rng: r},
		"no-rng":   {Loss: loss.Squared{}, Domain: dom, Eps: 1, Delta: 1e-5},
		"no-delta": {Loss: loss.Squared{}, Domain: dom, Eps: 1, Rng: r},
		"bad-dim":  {Loss: loss.Squared{}, Domain: polytope.NewL1Ball(3, 1), Eps: 1, Delta: 1e-5, Rng: r},
		"w0-out":   {Loss: loss.Squared{}, Domain: dom, Eps: 1, Delta: 1e-5, Rng: r, W0: []float64{9, 0, 0, 0, 0}},
	}
	for name, opt := range cases {
		if _, err := FullDataFWSource(data.NewMemSource(ds), opt); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestFullDataFWFeasibleAndImproves(t *testing.T) {
	ds := linearL1Workload(9, 20000, 20)
	dom := polytope.NewL1Ball(20, 1)
	var violated bool
	w, err := FullDataFWSource(data.NewMemSource(ds), FullDataFWOptions{
		Loss: loss.Squared{}, Domain: dom, Eps: 1, Delta: 1e-5, Rng: randx.New(10),
		Trace: func(t int, w []float64) {
			if !dom.Contains(w, 1e-9) {
				violated = true
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if violated {
		t.Fatal("iterate left the domain")
	}
	zero := make([]float64, 20)
	if loss.Empirical(loss.Squared{}, w, ds.X, ds.Y) >= loss.Empirical(loss.Squared{}, zero, ds.X, ds.Y) {
		t.Fatal("no improvement")
	}
}

func TestFullDataFWUsesMoreIterations(t *testing.T) {
	// The variant's entire point: for the same budget it runs
	// T = Θ((nε)^{2/5}) rounds on all n samples instead of
	// Θ((nε)^{1/3}) rounds on n/T samples.
	ds := linearL1Workload(11, 8000, 10)
	var fullT, splitT int
	_, err := FullDataFWSource(data.NewMemSource(ds), FullDataFWOptions{
		Loss: loss.Squared{}, Domain: polytope.NewL1Ball(10, 1), Eps: 1, Delta: 1e-5,
		Rng:   randx.New(12),
		Trace: func(t int, _ []float64) { fullT = t },
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = FrankWolfeSource(data.NewMemSource(ds), FWOptions{
		Loss: loss.Squared{}, Domain: polytope.NewL1Ball(10, 1), Eps: 1,
		Rng:   randx.New(13),
		Trace: func(t int, _ []float64) { splitT = t },
	})
	if err != nil {
		t.Fatal(err)
	}
	if fullT <= splitT {
		t.Fatalf("full-data T=%d not larger than split T=%d", fullT, splitT)
	}
	wantFull := int(math.Ceil(math.Pow(8000, 0.4)))
	if fullT != wantFull {
		t.Fatalf("full-data T=%d, want %d", fullT, wantFull)
	}
}
