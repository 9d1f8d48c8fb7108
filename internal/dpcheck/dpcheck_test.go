package dpcheck

import (
	"math"
	"testing"

	"htdp/internal/dp"
	"htdp/internal/randx"
	"htdp/internal/robust"
)

// laplaceMech is a correctly calibrated Laplace mechanism on a counting
// query that differs by 1 between neighbours.
func laplaceMech(r *randx.RNG, eps float64) Mechanism {
	return func(neighbour bool) float64 {
		q := 10.0
		if neighbour {
			q = 11.0
		}
		return q + r.Laplace(1/eps)
	}
}

func TestAuditPassesCorrectLaplace(t *testing.T) {
	r := randx.New(1)
	a := Run(laplaceMech(r, 1), 1, 0, Options{Trials: 150000})
	if !a.Passed {
		t.Fatalf("correct mechanism failed audit: %+v", a)
	}
	if a.MaxRat > 1.6 {
		t.Errorf("max log-ratio %v implausibly high for ε=1", a.MaxRat)
	}
}

func TestAuditCatchesUndersizedNoise(t *testing.T) {
	// Mechanism claims ε=1 but adds noise for ε=4: must fail.
	r := randx.New(2)
	a := Run(laplaceMech(r, 4), 1, 0, Options{Trials: 150000})
	if a.Passed {
		t.Fatalf("broken mechanism passed audit: %+v", a)
	}
}

func TestAuditCatchesNoNoise(t *testing.T) {
	a := Run(func(neighbour bool) float64 {
		if neighbour {
			return 1
		}
		return 0
	}, 1, 0, Options{Trials: 20000})
	if a.Passed {
		t.Fatal("noise-free mechanism passed audit")
	}
}

func TestAuditConstantMechanism(t *testing.T) {
	a := Run(func(bool) float64 { return 42 }, 0.1, 0, Options{Trials: 5000})
	if !a.Passed {
		t.Fatalf("constant mechanism failed: %+v", a)
	}
}

func TestAuditGaussianWithDelta(t *testing.T) {
	// Gaussian mechanism is only (ε, δ)-DP; with its calibrated σ it must
	// pass at the claimed (ε, δ).
	r := randx.New(3)
	p := dp.Params{Eps: 1, Delta: 1e-3}
	sigma := dp.GaussianSigma(1, p)
	m := func(neighbour bool) float64 {
		q := 0.0
		if neighbour {
			q = 1.0
		}
		return q + sigma*r.Normal()
	}
	a := Run(m, p.Eps, p.Delta, Options{Trials: 150000})
	if !a.Passed {
		t.Fatalf("Gaussian mechanism failed audit: %+v", a)
	}
}

func TestAuditExponentialMechanism(t *testing.T) {
	// The Frank–Wolfe oracle's exponential mechanism over the 4 vertices
	// of a radius-1 ℓ1 ball in 2 dimensions (scores −g₀, −g₁, g₀, g₁),
	// with score sensitivity 1 at ε=1: audit the selected index as the
	// scalar output.
	r := randx.New(4)
	gD := []float64{0, 1}
	gD2 := []float64{1, 0} // neighbour moving each score by ≤ 1
	m := func(neighbour bool) float64 {
		g := gD
		if neighbour {
			g = gD2
		}
		return float64(dp.ExponentialL1Ball(r, g, 1, 1, 1))
	}
	a := Run(m, 1, 0, Options{Trials: 150000, Bins: 4})
	if !a.Passed {
		t.Fatalf("exponential mechanism failed audit: %+v", a)
	}
}

func TestAuditRobustLaplacePipeline(t *testing.T) {
	// The paper's core release: Catoni robust mean + Laplace noise at the
	// estimator's sensitivity 4√2·s/(3n). Audited end to end on a
	// worst-case neighbour (one sample swapped to an extreme value).
	r := randx.New(5)
	n := 50
	base := make([]float64, n)
	gen := randx.New(6)
	for i := range base {
		base[i] = gen.Normal() * 3
	}
	worst := append([]float64(nil), base...)
	worst[0] = 1e9
	est := robust.MeanEstimator{S: 5, Beta: 1}
	eps := 1.0
	scale := est.Sensitivity(n) / eps
	m := func(neighbour bool) float64 {
		d := base
		if neighbour {
			d = worst
		}
		return est.Estimate(d) + r.Laplace(scale)
	}
	a := Run(m, eps, 0, Options{Trials: 150000})
	if !a.Passed {
		t.Fatalf("robust+Laplace pipeline failed audit: %+v", a)
	}
}

func TestAuditCatchesSensitivityBug(t *testing.T) {
	// Same pipeline but noise calibrated to the NAIVE mean's sensitivity
	// on bounded data (as if the estimator were 1/n-stable): must fail,
	// because the robust estimator's true sensitivity is 4√2·s/(3n) ≫ 1/n.
	r := randx.New(7)
	n := 50
	base := make([]float64, n)
	gen := randx.New(8)
	for i := range base {
		base[i] = gen.Normal() * 3
	}
	base[0] = 0 // pin the swapped sample so the swap moves the estimate maximally
	worst := append([]float64(nil), base...)
	worst[0] = 1e9
	est := robust.MeanEstimator{S: 5, Beta: 1}
	eps := 1.0
	wrongScale := 1.0 / float64(n) / eps // ignores the s factor
	m := func(neighbour bool) float64 {
		d := base
		if neighbour {
			d = worst
		}
		return est.Estimate(d) + r.Laplace(wrongScale)
	}
	a := Run(m, eps, 0, Options{Trials: 150000})
	if a.Passed {
		t.Fatal("undersized sensitivity passed the audit")
	}
}

func TestRunVectorPostprocessing(t *testing.T) {
	// Vector Laplace mechanism audited through a linear functional.
	r := randx.New(9)
	eps := 1.0
	d := 4
	m := func(neighbour bool) []float64 {
		q := make([]float64, d)
		if neighbour {
			q[2] = 1 // ℓ1 distance 1 between neighbours
		}
		for i := range q {
			q[i] += r.Laplace(1 / eps)
		}
		return q
	}
	stat := func(v []float64) float64 { return v[2] - 0.3*v[0] }
	a := RunVector(m, stat, eps, 0, Options{Trials: 120000})
	if !a.Passed {
		t.Fatalf("vector mechanism failed audit: %+v", a)
	}
}

func TestPeelingStyleReleaseAudit(t *testing.T) {
	// One Peeling-style noisy release: value + Laplace at the announced
	// scale must pass at the per-release ε it is charged.
	r := randx.New(10)
	lambda := 0.5 // ℓ∞ sensitivity of the input vector
	eps, delta := 1.0, 1e-3
	s := 1
	scale := 2 * lambda * math.Sqrt(3*float64(s)*math.Log(1/delta)) / eps
	m := func(neighbour bool) float64 {
		v := 3.0
		if neighbour {
			v = 3.0 + lambda
		}
		return v + r.Laplace(scale)
	}
	// The Laplace release at this scale is pure-DP at ε/(2√(3s·log(1/δ)))
	// per draw; audit at that level.
	perDraw := eps / (2 * math.Sqrt(3*float64(s)*math.Log(1/delta)))
	a := Run(m, perDraw, 0, Options{Trials: 150000})
	if !a.Passed {
		t.Fatalf("Peeling-style release failed audit: %+v", a)
	}
}

func TestAuditNoisyMax(t *testing.T) {
	// Report-noisy-max with Lap(2Δ/ε) noise is ε-DP; audit the selected
	// index against score vectors at sensitivity 1.
	r := randx.New(11)
	qD := []float64{0, 2, 1}
	qD2 := []float64{1, 1, 2} // each query moved by ≤ 1
	m := func(neighbour bool) float64 {
		q := qD
		if neighbour {
			q = qD2
		}
		best, bi := math.Inf(-1), 0
		for i, v := range q {
			if v += r.Laplace(2); v > best {
				best, bi = v, i
			}
		}
		return float64(bi)
	}
	a := Run(m, 1, 0, Options{Trials: 150000, Bins: 3})
	if !a.Passed {
		t.Fatalf("NoisyMax failed audit: %+v", a)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Trials != 200000 || o.Bins != 40 || o.Slack != 1.25 || o.MinCount != 50 {
		t.Fatalf("defaults = %+v", o)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ε ≤ 0")
		}
	}()
	Run(func(bool) float64 { return 0 }, 0, 0, Options{})
}
