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

// linearL1Workload builds a small heavy-tailed linear-regression
// instance over the unit ℓ1 ball.
func linearL1Workload(seed int64, n, d int) *data.Dataset {
	r := randx.New(seed)
	return data.Linear(r, data.LinearOpt{
		N: n, D: d,
		Feature: randx.LogNormal{Mu: 0, Sigma: math.Sqrt(0.6)},
		Noise:   randx.Normal{Mu: 0, Sigma: 0.1},
	})
}

func TestFrankWolfeValidation(t *testing.T) {
	ds := linearL1Workload(1, 100, 5)
	r := randx.New(2)
	dom := polytope.NewL1Ball(5, 1)
	cases := map[string]FWOptions{
		"no-loss":   {Domain: dom, Eps: 1, Rng: r},
		"no-domain": {Loss: loss.Squared{}, Eps: 1, Rng: r},
		"no-rng":    {Loss: loss.Squared{}, Domain: dom, Eps: 1},
		"bad-eps":   {Loss: loss.Squared{}, Domain: dom, Eps: 0, Rng: r},
		"bad-dim":   {Loss: loss.Squared{}, Domain: polytope.NewL1Ball(3, 1), Eps: 1, Rng: r},
		"w0-out":    {Loss: loss.Squared{}, Domain: dom, Eps: 1, Rng: r, W0: []float64{2, 0, 0, 0, 0}},
	}
	for name, opt := range cases {
		if _, err := FrankWolfeSource(data.NewMemSource(ds), opt); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestFrankWolfeFeasibility(t *testing.T) {
	// Every iterate must stay in the ℓ1 ball: FW is projection-free.
	ds := linearL1Workload(3, 2000, 20)
	dom := polytope.NewL1Ball(20, 1)
	var violated bool
	_, err := FrankWolfeSource(data.NewMemSource(ds), FWOptions{
		Loss: loss.Squared{}, Domain: dom, Eps: 1, Rng: randx.New(4),
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
		t.Fatal("an iterate left the domain")
	}
}

func TestFrankWolfeImprovesRisk(t *testing.T) {
	// The private output should beat the zero initializer on empirical
	// risk at a healthy budget.
	ds := linearL1Workload(5, 20000, 30)
	dom := polytope.NewL1Ball(30, 1)
	w, err := FrankWolfeSource(data.NewMemSource(ds), FWOptions{
		Loss: loss.Squared{}, Domain: dom, Eps: 2, Rng: randx.New(6),
	})
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]float64, 30)
	r0 := loss.Empirical(loss.Squared{}, zero, ds.X, ds.Y)
	rw := loss.Empirical(loss.Squared{}, w, ds.X, ds.Y)
	if rw >= r0 {
		t.Fatalf("risk did not improve: %v >= %v", rw, r0)
	}
}

func TestFrankWolfeApproachesNonprivateWithEps(t *testing.T) {
	// Excess risk against the non-private FW optimum should shrink as ε
	// grows (averaged over trials to tame randomness).
	ds := linearL1Workload(7, 20000, 20)
	dom := polytope.NewL1Ball(20, 1)
	ref := NonprivateFW(ds, loss.Squared{}, dom, 300, nil)
	avgExcess := func(eps float64, seed int64) float64 {
		var tot float64
		const reps = 5
		for k := 0; k < reps; k++ {
			w, err := FrankWolfeSource(data.NewMemSource(ds), FWOptions{
				Loss: loss.Squared{}, Domain: dom, Eps: eps, Rng: randx.New(seed + int64(k)),
			})
			if err != nil {
				t.Fatal(err)
			}
			tot += loss.ExcessRisk(loss.Squared{}, w, ref, ds.X, ds.Y)
		}
		return tot / reps
	}
	lo := avgExcess(0.1, 100)
	hi := avgExcess(4, 200)
	if hi > lo {
		t.Fatalf("excess risk at ε=4 (%v) worse than at ε=0.1 (%v)", hi, lo)
	}
}

func TestFrankWolfeDefaults(t *testing.T) {
	ds := linearL1Workload(8, 1000, 5)
	opt := FWOptions{
		Loss: loss.Squared{}, Domain: polytope.NewL1Ball(5, 1), Eps: 1, Rng: randx.New(9),
	}
	if err := opt.fill(ds.N(), ds.D()); err != nil {
		t.Fatal(err)
	}
	wantT := int(math.Cbrt(1000))
	if opt.T != wantT {
		t.Errorf("default T = %d, want %d", opt.T, wantT)
	}
	if opt.Beta != 1 || opt.Tau != 1 || opt.Zeta != 0.05 {
		t.Errorf("defaults: β=%v τ=%v ζ=%v", opt.Beta, opt.Tau, opt.Zeta)
	}
	if opt.S <= 0 {
		t.Errorf("default S = %v", opt.S)
	}
	if vecmath.Norm2(opt.W0) != 0 {
		t.Errorf("default W0 = %v", opt.W0)
	}
}

func TestFrankWolfeConstantEta(t *testing.T) {
	// Theorem-3 schedule: constant η must also produce feasible iterates.
	ds := linearL1Workload(10, 2000, 10)
	dom := polytope.NewL1Ball(10, 1)
	w, err := FrankWolfeSource(data.NewMemSource(ds), FWOptions{
		Loss: loss.Biweight{C: 1}, Domain: dom, Eps: 1, Rng: randx.New(11),
		EtaConst: 0.1, T: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dom.Contains(w, 1e-9) {
		t.Fatalf("output infeasible: ‖w‖₁ = %v", vecmath.Norm1(w))
	}
}

func TestFrankWolfeOnSimplex(t *testing.T) {
	// Minimization over the probability simplex (the other §4 domain).
	r := randx.New(12)
	d := 6
	wstar := make([]float64, d)
	wstar[2] = 1 // target vertex
	ds := data.Linear(r, data.LinearOpt{
		N: 5000, D: d,
		Feature: randx.Normal{Mu: 1, Sigma: 1},
		Noise:   randx.Normal{Mu: 0, Sigma: 0.05},
		WStar:   wstar,
	})
	dom := polytope.NewSimplex(d)
	// W0 must live on the simplex.
	w0 := make([]float64, d)
	for i := range w0 {
		w0[i] = 1 / float64(d)
	}
	w, err := FrankWolfeSource(data.NewMemSource(ds), FWOptions{
		Loss: loss.Squared{}, Domain: dom, Eps: 2, Rng: randx.New(13), W0: w0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dom.Contains(w, 1e-9) {
		t.Fatalf("output off the simplex: %v", w)
	}
	if loss.Empirical(loss.Squared{}, w, ds.X, ds.Y) >= loss.Empirical(loss.Squared{}, w0, ds.X, ds.Y) {
		t.Fatal("no progress on the simplex workload")
	}
}

func TestMaxVertexL1(t *testing.T) {
	if got := maxVertexL1(polytope.NewL1Ball(4, 2.5), nil); got != 2.5 {
		t.Errorf("L1Ball maxVertexL1 = %v", got)
	}
	if got := maxVertexL1(polytope.NewSimplex(4), nil); got != 1 {
		t.Errorf("Simplex maxVertexL1 = %v", got)
	}
	e := scaledSimplex{Simplex: polytope.NewSimplex(2), Scale: 3}
	buf := make([]float64, 2)
	if got := maxVertexL1(e, buf); got != 3 {
		t.Errorf("scaled-simplex maxVertexL1 = %v", got)
	}
	if got := maxVertexL1(e, nil); got != 3 {
		t.Errorf("scaled-simplex maxVertexL1 with a nil buffer = %v", got)
	}
}

// scaledSimplex is the simplex stretched by Scale: a polytope no kernel
// special-cases, so it takes the generic vertex selector and
// maxVertexL1's vertex scan.
type scaledSimplex struct {
	polytope.Simplex
	Scale float64
}

func (s scaledSimplex) Name() string { return "scaled-" + s.Simplex.Name() }

func (s scaledSimplex) Vertex(i int, dst []float64) []float64 {
	return vecmath.Scale(s.Simplex.Vertex(i, dst), s.Scale)
}

func (s scaledSimplex) VertexScore(i int, g []float64) float64 {
	return s.Scale * s.Simplex.VertexScore(i, g)
}

func (s scaledSimplex) Diameter1() float64 { return s.Scale * s.Simplex.Diameter1() }

func (s scaledSimplex) Contains(w []float64, tol float64) bool {
	return s.Simplex.Contains(vecmath.Scale(vecmath.Clone(w), 1/s.Scale), tol/s.Scale)
}

func (s scaledSimplex) Project(w []float64) []float64 {
	return vecmath.Scale(s.Simplex.Project(vecmath.Scale(w, 1/s.Scale)), s.Scale)
}

func TestNonprivateFWConverges(t *testing.T) {
	// On a planted ℓ1-ball model, exact FW should drive the excess risk
	// near zero.
	ds := linearL1Workload(14, 5000, 10)
	dom := polytope.NewL1Ball(10, 1)
	w := NonprivateFW(ds, loss.Squared{}, dom, 500, nil)
	noise := 0.01 // noise floor σ² = 0.01
	risk := loss.Empirical(loss.Squared{}, w, ds.X, ds.Y)
	if risk > noise*3 {
		t.Fatalf("non-private FW risk %v far above noise floor %v", risk, noise)
	}
	if !dom.Contains(w, 1e-9) {
		t.Fatal("non-private FW left the domain")
	}
}
