package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"htdp/internal/data"
	"htdp/internal/loss"
	"htdp/internal/polytope"
	"htdp/internal/randx"
	"htdp/internal/vecmath"
)

func TestLassoValidation(t *testing.T) {
	ds := linearL1Workload(1, 200, 5)
	r := randx.New(2)
	cases := map[string]LassoOptions{
		"no-rng":    {Eps: 1, Delta: 1e-5},
		"no-delta":  {Eps: 1, Rng: r},
		"bad-eps":   {Eps: -1, Delta: 1e-5, Rng: r},
		"bad-dim":   {Eps: 1, Delta: 1e-5, Rng: r, Domain: polytope.NewL1Ball(3, 1)},
		"w0-out":    {Eps: 1, Delta: 1e-5, Rng: r, W0: []float64{5, 0, 0, 0, 0}},
		"bad-delta": {Eps: 1, Delta: 2, Rng: r},
	}
	for name, opt := range cases {
		if _, err := LassoSource(data.NewMemSource(ds), opt); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestLassoDefaults(t *testing.T) {
	ds := linearL1Workload(3, 1000, 5)
	opt := LassoOptions{Eps: 1, Delta: 1e-5, Rng: randx.New(4)}
	if err := opt.fill(ds.N(), ds.D()); err != nil {
		t.Fatal(err)
	}
	ne := 1000.0
	wantT := int(math.Ceil(math.Pow(ne, 0.4)))
	if opt.T != wantT {
		t.Errorf("default T = %d, want %d", opt.T, wantT)
	}
	wantK := math.Pow(ne, 0.25) / math.Pow(float64(opt.T), 0.125)
	if math.Abs(opt.K-wantK) > 1e-12 {
		t.Errorf("default K = %v, want %v", opt.K, wantK)
	}
	if opt.Domain.Dims != 5 || opt.Domain.Radius != 1 {
		t.Errorf("default domain = %+v", opt.Domain)
	}
}

func TestLassoFeasibilityAndProgress(t *testing.T) {
	ds := linearL1Workload(5, 20000, 20)
	dom := polytope.NewL1Ball(20, 1)
	var violated bool
	w, err := LassoSource(data.NewMemSource(ds), LassoOptions{
		Eps: 2, Delta: 1e-5, Rng: randx.New(6), Domain: dom,
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
		t.Fatal("an iterate left the ℓ1 ball")
	}
	zero := make([]float64, 20)
	if loss.Empirical(loss.Squared{}, w, ds.X, ds.Y) >= loss.Empirical(loss.Squared{}, zero, ds.X, ds.Y) {
		t.Fatal("no risk improvement over the zero vector")
	}
}

func TestLassoShrinkageApplied(t *testing.T) {
	// With a tiny manual K the gradient scores are computed on heavily
	// truncated data; the algorithm must still run and stay feasible.
	ds := linearL1Workload(7, 2000, 10)
	w, err := LassoSource(data.NewMemSource(ds), LassoOptions{
		Eps: 1, Delta: 1e-5, Rng: randx.New(8), K: 0.05, T: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if vecmath.Norm1(w) > 1+1e-9 {
		t.Fatalf("‖w‖₁ = %v", vecmath.Norm1(w))
	}
}

func TestLassoEpsMonotone(t *testing.T) {
	// Average excess risk should not get worse as ε increases 40×.
	ds := linearL1Workload(9, 20000, 15)
	dom := polytope.NewL1Ball(15, 1)
	ref := NonprivateFW(ds, loss.Squared{}, dom, 300, nil)
	avg := func(eps float64, seed int64) float64 {
		var tot float64
		const reps = 5
		for k := 0; k < reps; k++ {
			w, err := LassoSource(data.NewMemSource(ds), LassoOptions{Eps: eps, Delta: 1e-5, Rng: randx.New(seed + int64(k))})
			if err != nil {
				t.Fatal(err)
			}
			tot += loss.ExcessRisk(loss.Squared{}, w, ref, ds.X, ds.Y)
		}
		return tot / reps
	}
	if lo, hi := avg(0.1, 10), avg(4, 20); hi > lo {
		t.Fatalf("excess at ε=4 (%v) worse than ε=0.1 (%v)", hi, lo)
	}
}

// TestDefaultTClampedAtN: at a huge ε the theory-default iteration
// counts of Algorithm 2, Algorithm 1 and the full-data variant stop at
// n. Unclamped, ⌈(nε)^{2/5}⌉ asks for millions of full-data passes at
// ε = 1e15, and at ε = 1e300 the float-to-int conversion overflows and
// the run silently takes one step. The estimate must stay finite.
func TestDefaultTClampedAtN(t *testing.T) {
	const n, d = 60, 5
	ds := linearL1Workload(21, n, d)
	dom := polytope.NewL1Ball(d, 1)
	for _, eps := range []float64{1e15, 1e300} {
		runs := map[string]func(Trace) ([]float64, error){
			"lasso": func(tr Trace) ([]float64, error) {
				return LassoSource(data.NewMemSource(ds), LassoOptions{Eps: eps, Delta: 1e-5, Rng: randx.New(22), Trace: tr})
			},
			"fw": func(tr Trace) ([]float64, error) {
				return FrankWolfeSource(data.NewMemSource(ds), FWOptions{Loss: loss.Squared{}, Domain: dom, Eps: eps, Rng: randx.New(23), Trace: tr})
			},
			"fulldata-fw": func(tr Trace) ([]float64, error) {
				return FullDataFWSource(data.NewMemSource(ds), FullDataFWOptions{
					Loss: loss.Squared{}, Domain: dom, Eps: eps, Delta: 1e-5, Rng: randx.New(24), Trace: tr,
				})
			},
		}
		for name, run := range runs {
			w, iters, err := itersUpTo(n, run)
			if err != nil {
				t.Fatalf("%s at ε=%g: %v", name, eps, err)
			}
			if iters != n {
				t.Errorf("%s at ε=%g ran %d iterations, want n = %d", name, eps, iters, n)
			}
			for j, v := range w {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s at ε=%g: w[%d] = %v", name, eps, j, v)
				}
			}
		}
	}
}

// errPastLimit aborts a run that itersUpTo caught past its limit.
var errPastLimit = errors.New("past the iteration limit")

// itersUpTo runs fit with a Trace that counts its iterations, aborting
// the run once it passes limit, so a runaway default fails fast instead
// of running on.
func itersUpTo(limit int, fit func(Trace) ([]float64, error)) (w []float64, iters int, err error) {
	defer func() {
		if r := recover(); r != nil {
			if r != errPastLimit {
				panic(r)
			}
			w, err = nil, fmt.Errorf("still running after %d iterations", limit)
		}
	}()
	w, err = fit(func(int, []float64) {
		if iters++; iters > limit {
			panic(errPastLimit)
		}
	})
	return w, iters, err
}
