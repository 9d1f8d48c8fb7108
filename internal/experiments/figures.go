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
	trial := func(r *randx.RNG, n, d int, eps float64) (float64, error) {
		ds := genPolytopeData(r, n, d, feature, noise, logistic)
		w, err := core.FrankWolfeSource(data.NewMemSource(ds), core.FWOptions{
			Loss: l, Domain: polytope.NewL1Ball(d, 1), Eps: eps, Rng: r.Split(),
		})
		if err != nil {
			return 0, err
		}
		return loss.ExcessRisk(l, w, reference(ds), ds.X, ds.Y), nil
	}
	return Spec{
		ID:          id,
		Description: desc,
		Run: func(cfg Config) ([]Panel, error) {
			cfg, err := cfg.withDefaults()
			if err != nil {
				return nil, err
			}
			n0 := cfg.n(paperN)
			// (a) error vs ε at fixed n, one series per dimension.
			pa := Panel{Figure: id, Name: "a", XLabel: "eps", YLabel: "excess risk",
				Title: fmt.Sprintf("error vs ε, n=%d", n0)}
			for si, d := range dimGrid {
				d := d
				addSeries(&pa, &err, cfg, fmt.Sprintf("d=%d", d), epsGrid, int64(si), func(r *randx.RNG, eps float64) (float64, error) {
					return trial(r, n0, d, eps)
				})
			}
			if err != nil {
				return nil, err
			}
			cfg.panelDone(1, 3, pa)
			// (b) error vs n at ε=1.
			ns := []float64{1, 3, 5, 7, 9}
			for i := range ns {
				ns[i] = float64(cfg.n(int(ns[i] * float64(paperN))))
			}
			pb := Panel{Figure: id, Name: "b", XLabel: "n", YLabel: "excess risk",
				Title: "error vs n, ε=1"}
			for si, d := range dimGrid {
				d := d
				addSeries(&pb, &err, cfg, fmt.Sprintf("d=%d", d), ns, 100+int64(si), func(r *randx.RNG, n float64) (float64, error) {
					return trial(r, int(n), d, 1)
				})
			}
			if err != nil {
				return nil, err
			}
			cfg.panelDone(2, 3, pb)
			// (c) private vs non-private, ε=1, d=400.
			pc := Panel{Figure: id, Name: "c", XLabel: "n", YLabel: "excess risk",
				Title: "private (ε=1) vs non-private, d=400"}
			addSeries(&pc, &err, cfg, "private", ns, 200, func(r *randx.RNG, n float64) (float64, error) {
				return trial(r, int(n), 400, 1)
			})
			addSeries(&pc, &err, cfg, "non-private", ns, 300, func(r *randx.RNG, n float64) (float64, error) {
				ds := genPolytopeData(r, int(n), 400, feature, noise, logistic)
				w := core.NonprivateFW(ds, l, polytope.NewL1Ball(400, 1), 150, nil)
				return loss.ExcessRisk(l, w, reference(ds), ds.X, ds.Y), nil
			})
			if err != nil {
				return nil, err
			}
			cfg.panelDone(3, 3, pc)
			return []Panel{pa, pb, pc}, nil
		},
	}
}

// lassoFigure builds the Figure 5/6 spec: Algorithm 2 (shrinkage +
// DP-FW with advanced composition) on linear regression.
func lassoFigure(id, desc string, feature randx.Dist, paperN int) Spec {
	noise := randx.Normal{Mu: 0, Sigma: math.Sqrt(0.1)}
	trial := func(r *randx.RNG, n, d int, eps float64) (float64, error) {
		ds := data.Linear(r, data.LinearOpt{N: n, D: d, Feature: feature, Noise: noise})
		w, err := core.LassoSource(data.NewMemSource(ds), core.LassoOptions{
			Eps: eps, Delta: deltaFor(n), Rng: r.Split(),
		})
		if err != nil {
			return 0, err
		}
		return excessVsWStar(loss.Squared{}, w, ds), nil
	}
	dims := []int{100, 200, 400}
	return Spec{
		ID:          id,
		Description: desc,
		Run: func(cfg Config) ([]Panel, error) {
			cfg, err := cfg.withDefaults()
			if err != nil {
				return nil, err
			}
			n0 := cfg.n(paperN)
			pa := Panel{Figure: id, Name: "a", XLabel: "eps", YLabel: "excess risk",
				Title: fmt.Sprintf("error vs ε, n=%d", n0)}
			for si, d := range dims {
				d := d
				addSeries(&pa, &err, cfg, fmt.Sprintf("d=%d", d), epsGrid, int64(si), func(r *randx.RNG, eps float64) (float64, error) {
					return trial(r, n0, d, eps)
				})
			}
			if err != nil {
				return nil, err
			}
			cfg.panelDone(1, 3, pa)
			ns := []float64{1, 3, 5, 7, 9}
			for i := range ns {
				ns[i] = float64(cfg.n(int(ns[i] * float64(paperN))))
			}
			pb := Panel{Figure: id, Name: "b", XLabel: "n", YLabel: "excess risk",
				Title: "error vs n, ε=1"}
			for si, d := range dims {
				d := d
				addSeries(&pb, &err, cfg, fmt.Sprintf("d=%d", d), ns, 100+int64(si), func(r *randx.RNG, n float64) (float64, error) {
					return trial(r, int(n), d, 1)
				})
			}
			if err != nil {
				return nil, err
			}
			cfg.panelDone(2, 3, pb)
			pc := Panel{Figure: id, Name: "c", XLabel: "n", YLabel: "excess risk",
				Title: "private (ε=1) vs non-private, d=200"}
			addSeries(&pc, &err, cfg, "private", ns, 200, func(r *randx.RNG, n float64) (float64, error) {
				return trial(r, int(n), 200, 1)
			})
			addSeries(&pc, &err, cfg, "non-private", ns, 300, func(r *randx.RNG, n float64) (float64, error) {
				ds := data.Linear(r, data.LinearOpt{N: int(n), D: 200, Feature: feature, Noise: noise})
				w := core.NonprivateFW(ds, loss.Squared{}, polytope.NewL1Ball(200, 1), 100, nil)
				return excessVsWStar(loss.Squared{}, w, ds), nil
			})
			if err != nil {
				return nil, err
			}
			cfg.panelDone(3, 3, pc)
			return []Panel{pa, pb, pc}, nil
		},
	}
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
	trial := func(r *randx.RNG, n, d, sStar int, eps float64) (float64, error) {
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
	}
	return Spec{
		ID:          id,
		Description: desc,
		Run: func(cfg Config) ([]Panel, error) {
			cfg, err := cfg.withDefaults()
			if err != nil {
				return nil, err
			}
			n0 := cfg.n(paperN)
			pa := Panel{Figure: id, Name: "a", XLabel: "eps", YLabel: "excess risk",
				Title: fmt.Sprintf("error vs ε, n=%d, s*=20", n0)}
			for si, d := range dimGrid {
				d := d
				addSeries(&pa, &err, cfg, fmt.Sprintf("d=%d", d), epsGrid, int64(si), func(r *randx.RNG, eps float64) (float64, error) {
					return trial(r, n0, d, 20, eps)
				})
			}
			if err != nil {
				return nil, err
			}
			cfg.panelDone(1, 3, pa)
			ns := []float64{1, 3, 5, 7, 9}
			for i := range ns {
				ns[i] = float64(cfg.n(int(ns[i] * float64(paperN) / 5)))
			}
			pb := Panel{Figure: id, Name: "b", XLabel: "n", YLabel: "excess risk",
				Title: "error vs n, ε=1, s*=20"}
			for si, d := range dimGrid {
				d := d
				addSeries(&pb, &err, cfg, fmt.Sprintf("d=%d", d), ns, 100+int64(si), func(r *randx.RNG, n float64) (float64, error) {
					return trial(r, int(n), d, 20, 1)
				})
			}
			if err != nil {
				return nil, err
			}
			cfg.panelDone(2, 3, pb)
			pc := Panel{Figure: id, Name: "c", XLabel: "s*", YLabel: "excess risk",
				Title: fmt.Sprintf("error vs sparsity, ε=1, n=%d", n0)}
			for si, d := range dimGrid {
				d := d
				addSeries(&pc, &err, cfg, fmt.Sprintf("d=%d", d), sStarGrid, 200+int64(si), func(r *randx.RNG, s float64) (float64, error) {
					return trial(r, n0, d, int(s), 1)
				})
			}
			if err != nil {
				return nil, err
			}
			cfg.panelDone(3, 3, pc)
			return []Panel{pa, pb, pc}, nil
		},
	}
}

// sparseOptFigure builds the Figure 10/11 spec: Algorithm 5 on
// ℓ2-regularized logistic regression over the sparsity constraint.
func sparseOptFigure(id, desc string, feature, noise randx.Dist, paperN int) Spec {
	l := loss.RegLogistic{Lambda: 1e-3}
	trial := func(r *randx.RNG, n, d, sStar int, eps float64) (float64, error) {
		w := data.SparseWStar(r, d, sStar)
		ds := data.LogisticModel(r, data.LogisticOpt{N: n, D: d, Feature: feature, Noise: noise, WStar: w})
		got, err := core.SparseOptSource(data.NewMemSource(ds), core.SparseOptOptions{
			Loss: l, Eps: eps, Delta: deltaFor(n), SStar: sStar, Rng: r.Split(),
		})
		if err != nil {
			return 0, err
		}
		return excessVsWStar(l, got, ds), nil
	}
	return Spec{
		ID:          id,
		Description: desc,
		Run: func(cfg Config) ([]Panel, error) {
			cfg, err := cfg.withDefaults()
			if err != nil {
				return nil, err
			}
			n0 := cfg.n(paperN)
			pa := Panel{Figure: id, Name: "a", XLabel: "eps", YLabel: "excess risk",
				Title: fmt.Sprintf("error vs ε, n=%d, s*=20", n0)}
			for si, d := range dimGrid {
				d := d
				addSeries(&pa, &err, cfg, fmt.Sprintf("d=%d", d), epsGrid, int64(si), func(r *randx.RNG, eps float64) (float64, error) {
					return trial(r, n0, d, 20, eps)
				})
			}
			if err != nil {
				return nil, err
			}
			cfg.panelDone(1, 3, pa)
			ns := []float64{0.25, 0.5, 1, 2}
			for i := range ns {
				ns[i] = float64(cfg.n(int(ns[i] * float64(paperN))))
			}
			pb := Panel{Figure: id, Name: "b", XLabel: "n", YLabel: "excess risk",
				Title: "error vs n, ε=1, s*=20"}
			for si, d := range dimGrid {
				d := d
				addSeries(&pb, &err, cfg, fmt.Sprintf("d=%d", d), ns, 100+int64(si), func(r *randx.RNG, n float64) (float64, error) {
					return trial(r, int(n), d, 20, 1)
				})
			}
			if err != nil {
				return nil, err
			}
			cfg.panelDone(2, 3, pb)
			pc := Panel{Figure: id, Name: "c", XLabel: "s*", YLabel: "excess risk",
				Title: fmt.Sprintf("error vs sparsity, ε=1, n=%d", n0)}
			for si, d := range dimGrid {
				d := d
				addSeries(&pc, &err, cfg, fmt.Sprintf("d=%d", d), sStarGrid, 200+int64(si), func(r *randx.RNG, s float64) (float64, error) {
					return trial(r, n0, d, int(s), 1)
				})
			}
			if err != nil {
				return nil, err
			}
			cfg.panelDone(3, 3, pc)
			return []Panel{pa, pb, pc}, nil
		},
	}
}

// realFigure builds the Figure 3/4 spec: Algorithm 1 on two
// simulated-real datasets, error vs ε at three subsample sizes, with a
// non-private FW reference per dataset.
func realFigure(id, desc string, names []string, logistic bool) Spec {
	l := loss.Loss(loss.Squared{})
	if logistic {
		l = loss.Logistic{}
	}
	return Spec{
		ID:          id,
		Description: desc,
		Run: func(cfg Config) ([]Panel, error) {
			cfg, err := cfg.withDefaults()
			if err != nil {
				return nil, err
			}
			var panels []Panel
			for pi, name := range names {
				spec, err := data.LookupReal(name)
				if err != nil {
					return nil, err
				}
				// Real data are fixed: one deterministic dataset per
				// panel, fresh algorithm randomness per trial.
				ds := data.SimulatedReal(randx.New(777+int64(pi)), spec, cfg.Scale*0.1)
				data.Standardize(ds)
				dom := polytope.NewL1Ball(ds.D(), 1)
				ref := core.NonprivateFW(ds, l, dom, 150, nil)
				refRisk := loss.Empirical(l, ref, ds.X, ds.Y)
				p := Panel{Figure: id, Name: string(rune('a' + pi)),
					XLabel: "eps", YLabel: "excess risk",
					Title: fmt.Sprintf("%s (n=%d, d=%d)", name, ds.N(), ds.D())}
				var serr error
				for si, frac := range []float64{0.25, 0.5, 1.0} {
					frac := frac
					addSeries(&p, &serr, cfg, fmt.Sprintf("n=%.0f%%", frac*100), epsGrid, int64(pi*10+si), func(r *randx.RNG, eps float64) (float64, error) {
						sub := ds.Subset(0, int(frac*float64(ds.N())))
						w, err := core.FrankWolfeSource(data.NewMemSource(sub), core.FWOptions{
							Loss: l, Domain: dom, Eps: eps, Rng: r,
						})
						if err != nil {
							return 0, err
						}
						return loss.Empirical(l, w, ds.X, ds.Y) - refRisk, nil
					})
				}
				if serr != nil {
					return nil, serr
				}
				panels = append(panels, p)
				cfg.panelDone(pi+1, len(names), p)
			}
			return panels, nil
		},
	}
}

// deltaFor returns the §6.2 privacy parameter δ = n^{−1.1}.
func deltaFor(n int) float64 {
	return math.Pow(float64(n), -1.1)
}

func init() {
	lognorm := randx.LogNormal{Mu: 0, Sigma: math.Sqrt(0.6)}
	register(fwFigure("fig1",
		"Algorithm 1, linear regression, x~Lognormal(0,0.6), ι~N(0,0.1)",
		false, lognorm, randx.Normal{Mu: 0, Sigma: math.Sqrt(0.1)}, 10000))
	register(fwFigure("fig2",
		"Algorithm 1, logistic regression, x~Lognormal(0,0.6), no noise",
		true, lognorm, nil, 10000))
	register(realFigure("fig3",
		"Algorithm 1, linear regression on simulated Blog/Twitter",
		[]string{"blog", "twitter"}, false))
	register(realFigure("fig4",
		"Algorithm 1, logistic regression on simulated Winnipeg/YearPrediction",
		[]string{"winnipeg", "yearpred"}, true))
	register(lassoFigure("fig5",
		"Algorithm 2, linear regression, x~Lognormal(0,0.6)", lognorm, 10000))
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
