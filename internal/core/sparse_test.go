package core

import (
	"math"
	"testing"

	"htdp/internal/data"
	"htdp/internal/loss"
	"htdp/internal/randx"
	"htdp/internal/vecmath"
)

// sparseWorkload builds the Figure-7 style instance: Gaussian features,
// heavy-tailed noise, s*-sparse planted parameter in the unit ℓ2 ball.
func sparseWorkload(seed int64, n, d, sStar int, noise randx.Dist) *data.Dataset {
	r := randx.New(seed)
	w := data.SparseWStar(r, d, sStar)
	return data.Linear(r, data.LinearOpt{
		N: n, D: d,
		Feature: randx.Normal{Mu: 0, Sigma: math.Sqrt(5)},
		Noise:   noise,
		WStar:   w,
	})
}

func TestSparseLinRegValidation(t *testing.T) {
	ds := sparseWorkload(1, 200, 20, 3, nil)
	r := randx.New(2)
	cases := map[string]SparseLinRegOptions{
		"no-rng":   {Eps: 1, Delta: 1e-5, SStar: 3},
		"no-delta": {Eps: 1, SStar: 3, Rng: r},
		"no-sstar": {Eps: 1, Delta: 1e-5, Rng: r},
		"big-s":    {Eps: 1, Delta: 1e-5, SStar: 3, S: 50, Rng: r},
		"w0-dense": {Eps: 1, Delta: 1e-5, SStar: 3, Rng: r, W0: dense(20, 0.1)},
		"w0-big": {Eps: 1, Delta: 1e-5, SStar: 3, Rng: r,
			W0: append([]float64{2}, make([]float64, 19)...)},
	}
	for name, opt := range cases {
		if _, err := SparseLinRegSource(data.NewMemSource(ds), opt); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestSparseLinRegInvariants(t *testing.T) {
	ds := sparseWorkload(3, 20000, 100, 5, randx.Shifted{Base: randx.LogNormal{Mu: 0, Sigma: 0.5}})
	opt := SparseLinRegOptions{
		Eps: 2, Delta: 1e-5, SStar: 5, Rng: randx.New(4),
	}
	var maxNorm float64
	var maxSupp int
	opt.Trace = func(t int, w []float64) {
		if n := vecmath.Norm2(w); n > maxNorm {
			maxNorm = n
		}
		if s := vecmath.Norm0(w); s > maxSupp {
			maxSupp = s
		}
	}
	w, err := SparseLinRegSource(data.NewMemSource(ds), opt)
	if err != nil {
		t.Fatal(err)
	}
	if maxNorm > 1+1e-9 {
		t.Fatalf("iterate norm %v left the unit ball", maxNorm)
	}
	if maxSupp > 2*5 {
		t.Fatalf("iterate support %d exceeds s=2s*", maxSupp)
	}
	if vecmath.Norm0(w) > 2*5 {
		t.Fatalf("output support %d", vecmath.Norm0(w))
	}
}

func TestSparseLinRegRecovers(t *testing.T) {
	// With a healthy budget the private IHT should land close to the
	// half-scale planted parameter (Theorem 7 assumes ‖w*‖ ≤ 1/2).
	r := randx.New(5)
	d, sStar := 80, 4
	w := vecmath.Scale(data.SparseWStar(r, d, sStar), 0.5)
	ds := data.Linear(r, data.LinearOpt{
		N: 30000, D: d,
		Feature: randx.Normal{Mu: 0, Sigma: 1},
		Noise:   randx.Shifted{Base: randx.LogNormal{Mu: 0, Sigma: 0.5}},
		WStar:   w,
	})
	// K well below the default keeps the Peeling noise scale 2K²η₀(√s+1)/m
	// small; the N(0,1) design loses almost nothing to shrinkage at K=2.5.
	var tot float64
	const reps = 3
	for k := int64(0); k < reps; k++ {
		got, err := SparseLinRegSource(data.NewMemSource(ds), SparseLinRegOptions{
			Eps: 4, Delta: 1e-5, SStar: sStar, Eta0: 1, T: 4, K: 2.5,
			Rng: randx.New(6 + k),
		})
		if err != nil {
			t.Fatal(err)
		}
		tot += vecmath.Dist2(got, w)
	}
	naive := vecmath.Norm2(w) // distance of the zero initializer
	if avg := tot / reps; avg > naive*0.8 {
		t.Fatalf("avg recovery distance %v barely better than zero init %v", avg, naive)
	}
}

func TestSparseLinRegDefaults(t *testing.T) {
	ds := sparseWorkload(7, 1000, 30, 4, nil)
	opt := SparseLinRegOptions{Eps: 1, Delta: 1e-5, SStar: 4, Rng: randx.New(8)}
	if err := opt.fill(ds.N(), ds.D()); err != nil {
		t.Fatal(err)
	}
	if opt.S != 8 {
		t.Errorf("default S = %d, want 2s*", opt.S)
	}
	if opt.T != int(math.Log(1000)) {
		t.Errorf("default T = %d", opt.T)
	}
	wantK := math.Pow(1000.0/float64(8*opt.T), 0.25)
	if math.Abs(opt.K-wantK) > 1e-12 {
		t.Errorf("default K = %v, want %v", opt.K, wantK)
	}
	if opt.Eta0 != 0.5 {
		t.Errorf("default η₀ = %v", opt.Eta0)
	}
}

func TestSparseOptValidation(t *testing.T) {
	ds := sparseWorkload(9, 200, 20, 3, nil)
	r := randx.New(10)
	cases := map[string]SparseOptOptions{
		"no-loss":  {Eps: 1, Delta: 1e-5, SStar: 3, Rng: r},
		"no-rng":   {Loss: loss.Squared{}, Eps: 1, Delta: 1e-5, SStar: 3},
		"no-delta": {Loss: loss.Squared{}, Eps: 1, SStar: 3, Rng: r},
		"no-sstar": {Loss: loss.Squared{}, Eps: 1, Delta: 1e-5, Rng: r},
		"w0-dense": {Loss: loss.Squared{}, Eps: 1, Delta: 1e-5, SStar: 3, Rng: r,
			W0: dense(20, 0.1)},
	}
	for name, opt := range cases {
		if _, err := SparseOptSource(data.NewMemSource(ds), opt); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestSparseOptSparsityInvariant(t *testing.T) {
	r := randx.New(11)
	d, sStar := 60, 5
	w := data.SparseWStar(r, d, sStar)
	ds := data.LogisticModel(r, data.LogisticOpt{
		N: 8000, D: d,
		Feature: randx.Normal{Mu: 0, Sigma: math.Sqrt(5)},
		Noise:   randx.Logistic{Mu: 0, S: 0.5},
		WStar:   w,
	})
	var maxSupp int
	_, err := SparseOptSource(data.NewMemSource(ds), SparseOptOptions{
		Loss: loss.RegLogistic{Lambda: 0.01}, Eps: 1, Delta: 1e-5, SStar: sStar,
		Rng: randx.New(12),
		Trace: func(t int, w []float64) {
			if s := vecmath.Norm0(w); s > maxSupp {
				maxSupp = s
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxSupp > 2*sStar {
		t.Fatalf("support %d exceeds 2s*", maxSupp)
	}
}

func TestSparseOptMeanEstimation(t *testing.T) {
	// Sparse mean estimation (the Theorem 9 instance): samples with an
	// s*-sparse mean; SparseOpt on MeanSquared should find it.
	r := randx.New(13)
	d, sStar := 50, 3
	mu := make([]float64, d)
	mu[3], mu[17], mu[31] = 0.8, -0.6, 0.5
	n := 20000
	x := vecmath.NewMat(n, d)
	noise := randx.Shifted{Base: randx.LogNormal{Mu: 0, Sigma: 0.7}}
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j := range row {
			row[j] = mu[j] + noise.Sample(r)
		}
	}
	ds := &data.Dataset{Label: "sparsemean", X: x, Y: make([]float64, n), WStar: mu}
	var tot float64
	const reps = 3
	for k := int64(0); k < reps; k++ {
		got, err := SparseOptSource(data.NewMemSource(ds), SparseOptOptions{
			Loss: loss.MeanSquared{}, Eps: 2, Delta: 1e-5, SStar: sStar,
			Eta: 0.45, Rng: randx.New(14 + k),
		})
		if err != nil {
			t.Fatal(err)
		}
		tot += vecmath.Dist2(got, mu)
	}
	if avg := tot / reps; avg > 0.45*vecmath.Norm2(mu) {
		t.Fatalf("avg mean recovery distance %v (‖µ‖ = %v)", avg, vecmath.Norm2(mu))
	}
}

func TestSparseOptEpsMonotone(t *testing.T) {
	ds := sparseWorkload(15, 16000, 40, 4, randx.Shifted{Base: randx.LogNormal{Mu: 0, Sigma: 0.5}})
	ref := NonprivateIHT(ds, 8, 30, 0.2)
	avg := func(eps float64, seed int64) float64 {
		var tot float64
		const reps = 5
		for k := 0; k < reps; k++ {
			w, err := SparseOptSource(data.NewMemSource(ds), SparseOptOptions{
				Loss: loss.Squared{}, Eps: eps, Delta: 1e-5, SStar: 4,
				Eta: 0.05, Rng: randx.New(seed + int64(k)),
			})
			if err != nil {
				t.Fatal(err)
			}
			tot += loss.ExcessRisk(loss.Squared{}, w, ref, ds.X, ds.Y)
		}
		return tot / reps
	}
	if lo, hi := avg(0.2, 30), avg(4, 40); hi > lo {
		t.Fatalf("excess at ε=4 (%v) worse than ε=0.2 (%v)", hi, lo)
	}
}

// dense returns an n-vector with every entry c.
func dense(n int, c float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = c
	}
	return v
}
