package experiments

import (
	"fmt"
	"math"

	"htdp/internal/core"
	"htdp/internal/data"
	"htdp/internal/loss"
	"htdp/internal/polytope"
	"htdp/internal/randx"
	"htdp/internal/vecmath"
)

// Shared sweep grids (the paper's ε range and dimensions).
var (
	epsGrid   = []float64{0.5, 1, 2, 4}
	dimGrid   = []int{200, 400, 800}
	sStarGrid = []float64{5, 10, 20, 40}
)

// Figure 1's design: x ~ Lognormal(0, 0.6) features and N(0, 0.1) label
// noise, shared by the ablations and source-streaming sweeps that rerun
// its workload (Figures 5 and 6 reuse the noise).
var (
	fig1Features = randx.LogNormal{Mu: 0, Sigma: math.Sqrt(0.6)}
	linearNoise  = randx.Normal{Mu: 0, Sigma: math.Sqrt(0.1)}
)

// excessVsWStar measures the §6.2 metric: empirical excess risk against
// the planted parameter (for synthetic data the paper compares against
// w*; for the simulated-real figures the reference is non-private FW).
func excessVsWStar(l loss.Loss, w []float64, ds *data.Dataset) float64 {
	return loss.Empirical(l, w, ds.X, ds.Y) - loss.Empirical(l, ds.WStar, ds.X, ds.Y)
}

// genPolytopeData draws a fresh §6.3-style dataset: ℓ1-ball parameter,
// heavy-tailed features, linear or logistic labels.
func genPolytopeData(r *randx.RNG, n, d int, feature, noise randx.Dist, logistic bool) *data.Dataset {
	if logistic {
		return data.LogisticModel(r, data.LogisticOpt{N: n, D: d, Feature: feature, Noise: noise})
	}
	return data.Linear(r, data.LinearOpt{N: n, D: d, Feature: feature, Noise: noise})
}

// fitFn runs one private fit of a source at one grid value x (ε, or the
// knob a series sweeps) on the trial's RNG.
type fitFn func(src data.Source, r *randx.RNG, x float64) ([]float64, error)

// fitFW is Algorithm 1 with squared loss over the unit ℓ1 ball at ε = x.
func fitFW(src data.Source, r *randx.RNG, eps float64) ([]float64, error) {
	return core.FrankWolfeSource(src, core.FWOptions{
		Loss: loss.Squared{}, Domain: polytope.NewL1Ball(src.D(), 1), Eps: eps, Rng: r,
	})
}

// fitLasso is Algorithm 2 at its Theorem-5 defaults at ε = x.
func fitLasso(src data.Source, r *randx.RNG, eps float64) ([]float64, error) {
	return core.LassoSource(src, core.LassoOptions{Eps: eps, Delta: deltaFor(src.N()), Rng: r})
}

// linearTrial is the trial of the linear-regression workloads: draw n
// rows with features from feature and linearNoise labels, fit them, and
// measure the excess squared risk against the planted w*.
func linearTrial(n, d int, feature randx.Dist, fit fitFn) trialFn {
	return func(r *randx.RNG, x float64) (float64, error) {
		ds := data.Linear(r, data.LinearOpt{N: n, D: d, Feature: feature, Noise: linearNoise})
		w, err := fit(data.NewMemSource(ds), r.Split(), x)
		if err != nil {
			return 0, err
		}
		return excessVsWStar(loss.Squared{}, w, ds), nil
	}
}

// nGrid scales each multiple of base to the config's sample size.
func nGrid(cfg Config, base float64, mults ...float64) []float64 {
	ns := make([]float64, len(mults))
	for i, m := range mults {
		ns[i] = float64(cfg.n(int(m * base)))
	}
	return ns
}

// perDim declares one series per dimension, named d=…, over xs, with
// seed offsets off, off+1, …; f runs one trial at dimension d.
func perDim(dims []int, xs []float64, off int64, f func(r *randx.RNG, d int, x float64) (float64, error)) []series {
	out := make([]series, len(dims))
	for i, d := range dims {
		out[i] = series{fmt.Sprintf("d=%d", d), xs, off + int64(i), func(r *randx.RNG, x float64) (float64, error) {
			return f(r, d, x)
		}}
	}
	return out
}

// denseFigure lays out Figures 1, 2, 5 and 6 around one private fit:
// (a) error vs ε at the scaled paper n and (b) error vs n at ε = 1, one
// series per dimension, then (c) the fit at ε = 1 against its
// non-private counterpart at dimension dc.
func denseFigure(id, desc string, paperN int, dims []int, dc int,
	private func(r *randx.RNG, n, d int, eps float64) (float64, error),
	nonPrivate func(r *randx.RNG, n, d int) (float64, error)) Spec {
	return entry(id, desc,
		func(cfg Config) (panel, error) {
			n0 := cfg.n(paperN)
			return panel{fmt.Sprintf("error vs ε, n=%d", n0), "eps", "excess risk", perDim(dims, epsGrid, 0, func(r *randx.RNG, d int, eps float64) (float64, error) {
				return private(r, n0, d, eps)
			})}, nil
		},
		func(cfg Config) (panel, error) {
			return panel{"error vs n, ε=1", "n", "excess risk", perDim(dims, nGrid(cfg, float64(paperN), 1, 3, 5, 7, 9), 100, func(r *randx.RNG, d int, n float64) (float64, error) {
				return private(r, int(n), d, 1)
			})}, nil
		},
		func(cfg Config) (panel, error) {
			ns := nGrid(cfg, float64(paperN), 1, 3, 5, 7, 9)
			return panel{fmt.Sprintf("private (ε=1) vs non-private, d=%d", dc), "n", "excess risk", []series{
				{"private", ns, 200, func(r *randx.RNG, n float64) (float64, error) { return private(r, int(n), dc, 1) }},
				{"non-private", ns, 300, func(r *randx.RNG, n float64) (float64, error) { return nonPrivate(r, int(n), dc) }},
			}}, nil
		})
}

// sparseFigure lays out Figures 7–11 around one private fit, one series
// per dimension: (a) error vs ε at the scaled paper n and (b) error vs
// n (nMults × nBase, scaled) at ε = 1, both at s* = 20, then (c) error
// vs s* at ε = 1.
func sparseFigure(id, desc string, paperN int, nBase float64, nMults []float64,
	fit func(r *randx.RNG, n, d, sStar int, eps float64) (float64, error)) Spec {
	return entry(id, desc,
		func(cfg Config) (panel, error) {
			n0 := cfg.n(paperN)
			return panel{fmt.Sprintf("error vs ε, n=%d, s*=20", n0), "eps", "excess risk", perDim(dimGrid, epsGrid, 0, func(r *randx.RNG, d int, eps float64) (float64, error) {
				return fit(r, n0, d, 20, eps)
			})}, nil
		},
		func(cfg Config) (panel, error) {
			return panel{"error vs n, ε=1, s*=20", "n", "excess risk", perDim(dimGrid, nGrid(cfg, nBase, nMults...), 100, func(r *randx.RNG, d int, n float64) (float64, error) {
				return fit(r, int(n), d, 20, 1)
			})}, nil
		},
		func(cfg Config) (panel, error) {
			n0 := cfg.n(paperN)
			return panel{fmt.Sprintf("error vs sparsity, ε=1, n=%d", n0), "s*", "excess risk", perDim(dimGrid, sStarGrid, 200, func(r *randx.RNG, d int, s float64) (float64, error) {
				return fit(r, n0, d, int(s), 1)
			})}, nil
		})
}

// fwFigure builds the Figure 1/2 spec: Algorithm 1 on synthetic
// heavy-tailed data, three panels (err vs ε; err vs n; private vs
// non-private).
func fwFigure(id, desc string, logistic bool, feature, noise randx.Dist, paperN int) Spec {
	l := loss.Loss(loss.Squared{})
	if logistic {
		l = loss.Logistic{}
	}
	// Reference: the planted w* minimizes the squared risk, but NOT the
	// logistic risk (any up-scaling of w* lowers it), so classification
	// figures compare against a per-trial non-private FW optimum.
	reference := func(ds *data.Dataset) []float64 {
		if !logistic {
			return ds.WStar
		}
		return core.NonprivateFW(ds, l, polytope.NewL1Ball(ds.D(), 1), 80, nil)
	}
	private := func(r *randx.RNG, n, d int, eps float64) (float64, error) {
		ds := genPolytopeData(r, n, d, feature, noise, logistic)
		w, err := core.FrankWolfeSource(data.NewMemSource(ds), core.FWOptions{
			Loss: l, Domain: polytope.NewL1Ball(d, 1), Eps: eps, Rng: r.Split(),
		})
		if err != nil {
			return 0, err
		}
		return loss.ExcessRisk(l, w, reference(ds), ds.X, ds.Y), nil
	}
	return denseFigure(id, desc, paperN, dimGrid, 400, private, func(r *randx.RNG, n, d int) (float64, error) {
		ds := genPolytopeData(r, n, d, feature, noise, logistic)
		w := core.NonprivateFW(ds, l, polytope.NewL1Ball(d, 1), 150, nil)
		return loss.ExcessRisk(l, w, reference(ds), ds.X, ds.Y), nil
	})
}

// lassoFigure builds the Figure 5/6 spec: Algorithm 2 (shrinkage +
// DP-FW with advanced composition) on linear regression.
func lassoFigure(id, desc string, feature randx.Dist, paperN int) Spec {
	private := func(r *randx.RNG, n, d int, eps float64) (float64, error) {
		return linearTrial(n, d, feature, fitLasso)(r, eps)
	}
	return denseFigure(id, desc, paperN, []int{100, 200, 400}, 200, private, func(r *randx.RNG, n, d int) (float64, error) {
		ds := data.Linear(r, data.LinearOpt{N: n, D: d, Feature: feature, Noise: linearNoise})
		w := core.NonprivateFW(ds, loss.Squared{}, polytope.NewL1Ball(d, 1), 100, nil)
		return excessVsWStar(loss.Squared{}, w, ds), nil
	})
}

// ihtFigure builds the Figure 7/8/9 spec: Algorithm 3 on the sparse
// linear model with x ~ N(0,5) and the given heavy-tailed noise.
//
// Measurement: squared estimation error ‖ŵ − w*‖₂². The excess
// empirical risk is numerically meaningless under the mean-less
// log-logistic(0.1) noise of Figure 8 (labels of order 1e10 cancel the
// signal below float64 resolution), and estimation error is the
// quantity the sparse-recovery bounds of Theorem 7 control anyway.
// η₀ = 0.15 keeps the gradient step stable for the variance-5 design
// (|1 − η₀·λ(E[xxᵀ])| < 1 needs η₀ < 2/5).
func ihtFigure(id, desc string, noise randx.Dist, paperN int) Spec {
	feature := randx.Normal{Mu: 0, Sigma: math.Sqrt(5)}
	// The Peeling noise scale grows like η₀·K²·s^{3/2}/m, so the figure
	// uses a tight expanded support (s = s*+2), few rounds, and a small
	// step to keep the ε/n/s* trends visible at sub-paper sample sizes.
	return sparseFigure(id, desc, paperN, float64(paperN)/5, []float64{1, 3, 5, 7, 9}, func(r *randx.RNG, n, d, sStar int, eps float64) (float64, error) {
		w := vecmath.Scale(data.SparseWStar(r, d, sStar), 0.5)
		ds := data.Linear(r, data.LinearOpt{N: n, D: d, Feature: feature, Noise: noise, WStar: w})
		got, err := core.SparseLinRegSource(data.NewMemSource(ds), core.SparseLinRegOptions{
			Eps: eps, Delta: deltaFor(n), SStar: sStar, S: sStar + 2,
			Eta0: 0.05, T: 3, Rng: r.Split(),
		})
		if err != nil {
			return 0, err
		}
		dist := vecmath.Dist2(got, w)
		return dist * dist, nil
	})
}

// sparseOptFigure builds the Figure 10/11 spec: Algorithm 5 on
// ℓ2-regularized logistic regression over the sparsity constraint.
func sparseOptFigure(id, desc string, feature, noise randx.Dist, paperN int) Spec {
	l := loss.RegLogistic{Lambda: 1e-3}
	return sparseFigure(id, desc, paperN, float64(paperN), []float64{0.25, 0.5, 1, 2}, func(r *randx.RNG, n, d, sStar int, eps float64) (float64, error) {
		w := data.SparseWStar(r, d, sStar)
		ds := data.LogisticModel(r, data.LogisticOpt{N: n, D: d, Feature: feature, Noise: noise, WStar: w})
		got, err := core.SparseOptSource(data.NewMemSource(ds), core.SparseOptOptions{
			Loss: l, Eps: eps, Delta: deltaFor(n), SStar: sStar, Rng: r.Split(),
		})
		if err != nil {
			return 0, err
		}
		return excessVsWStar(l, got, ds), nil
	})
}

// realFigure builds the Figure 3/4 spec: Algorithm 1 on two
// simulated-real datasets, one panel each, error vs ε at three
// subsample sizes, with a non-private FW reference per dataset.
func realFigure(id, desc string, names []string, logistic bool) Spec {
	l := loss.Loss(loss.Squared{})
	if logistic {
		l = loss.Logistic{}
	}
	panels := make([]func(Config) (panel, error), len(names))
	for pi, name := range names {
		spec, err := data.LookupReal(name)
		if err != nil {
			panic(err) // the registry names a dataset data does not simulate
		}
		panels[pi] = func(cfg Config) (panel, error) {
			// Real data are fixed: one deterministic dataset per panel,
			// fresh algorithm randomness per trial.
			ds, err := data.SimulatedReal(randx.New(777+int64(pi)), spec, cfg.Scale*0.1)
			if err != nil {
				return panel{}, err
			}
			data.Standardize(ds)
			dom := polytope.NewL1Ball(ds.D(), 1)
			refRisk := loss.Empirical(l, core.NonprivateFW(ds, l, dom, 150, nil), ds.X, ds.Y)
			p := panel{title: fmt.Sprintf("%s (n=%d, d=%d)", name, ds.N(), ds.D()), xLabel: "eps", yLabel: "excess risk"}
			for si, frac := range []float64{0.25, 0.5, 1.0} {
				p.series = append(p.series, series{fmt.Sprintf("n=%.0f%%", frac*100), epsGrid, int64(pi*10 + si), func(r *randx.RNG, eps float64) (float64, error) {
					sub := ds.Subset(0, int(frac*float64(ds.N())))
					w, err := core.FrankWolfeSource(data.NewMemSource(sub), core.FWOptions{
						Loss: l, Domain: dom, Eps: eps, Rng: r,
					})
					if err != nil {
						return 0, err
					}
					return loss.Empirical(l, w, ds.X, ds.Y) - refRisk, nil
				}})
			}
			return p, nil
		}
	}
	return entry(id, desc, panels...)
}

// deltaFor returns the §6.2 privacy parameter δ = n^{−1.1}.
func deltaFor(n int) float64 {
	return math.Pow(float64(n), -1.1)
}

func init() {
	register(fwFigure("fig1",
		"Algorithm 1, linear regression, x~Lognormal(0,0.6), ι~N(0,0.1)",
		false, fig1Features, linearNoise, 10000))
	register(fwFigure("fig2",
		"Algorithm 1, logistic regression, x~Lognormal(0,0.6), no noise",
		true, fig1Features, nil, 10000))
	register(realFigure("fig3",
		"Algorithm 1, linear regression on simulated Blog/Twitter",
		[]string{"blog", "twitter"}, false))
	register(realFigure("fig4",
		"Algorithm 1, logistic regression on simulated Winnipeg/YearPrediction",
		[]string{"winnipeg", "yearpred"}, true))
	register(lassoFigure("fig5",
		"Algorithm 2, linear regression, x~Lognormal(0,0.6)", fig1Features, 10000))
	register(lassoFigure("fig6",
		"Algorithm 2, linear regression, x~Student-t(10)", randx.StudentT{Nu: 10}, 100000))
	register(ihtFigure("fig7",
		"Algorithm 3, sparse linear regression, noise~Lognormal(0,0.5)",
		randx.Shifted{Base: randx.LogNormal{Mu: 0, Sigma: math.Sqrt(0.5)}}, 50000))
	register(ihtFigure("fig8",
		"Algorithm 3, sparse linear regression, noise~LogLogistic(0.1)",
		randx.LogLogistic{C: 0.1}, 50000))
	register(ihtFigure("fig9",
		"Algorithm 3, sparse linear regression, noise~LogGamma(0.5)",
		randx.Shifted{Base: randx.LogGamma{C: 0.5}}, 50000))
	register(sparseOptFigure("fig10",
		"Algorithm 5, regularized logistic, x~N(0,5), noise~Logistic(0,0.5)",
		randx.Normal{Mu: 0, Sigma: math.Sqrt(5)}, randx.Logistic{Mu: 0, S: 0.5}, 8000))
	register(sparseOptFigure("fig11",
		"Algorithm 5, regularized logistic, x~Laplace(5), noise~LogGamma(0.5)",
		randx.Laplace{Mu: 0, Scale: 5}, randx.Shifted{Base: randx.LogGamma{C: 0.5}}, 8000))
}
