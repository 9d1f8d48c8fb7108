package experiments

import (
	"fmt"
	"math"

	"htdp/internal/core"
	"htdp/internal/data"
	"htdp/internal/loss"
	"htdp/internal/minimax"
	"htdp/internal/polytope"
	"htdp/internal/randx"
	"htdp/internal/vecmath"
)

// The ablations quantify the design choices DESIGN.md calls out:
// the robust estimator versus naive clipping (Remark 1), Algorithm 1
// versus Algorithm 2 on the same workload (the §6.4 anomaly), the
// shrinkage threshold K (the bias/noise trade-off of Theorem 5), the
// price of private support selection in Algorithm 3, and the measured
// error of sparse mean estimation against the Theorem 9 floor.

func init() {
	register(estimatorAblation())
	register(alg1VsAlg2Ablation())
	register(shrinkKAblation())
	register(selectionAblation())
	register(splitVsFullAblation())
	register(lowerBoundCheck())
}

// splitVsFullAblation compares Algorithm 1's data-splitting design (one
// disjoint chunk per round, no composition, ε-DP) against the full-data
// variant the paper leaves as an open problem (all data each round,
// advanced composition, (ε, δ)-DP). Theory only covers the former; this
// panel measures what the latter buys empirically.
func splitVsFullAblation() Spec {
	return Spec{
		ID:          "abl-split-vs-full",
		Description: "Ablation: data-splitting (Algorithm 1) vs full-data robust DP-FW with advanced composition (open problem after Theorem 3)",
		Run: func(cfg Config) ([]Panel, error) {
			cfg, err := cfg.withDefaults()
			if err != nil {
				return nil, err
			}
			const d = 200
			n := cfg.n(10000)
			feature := randx.LogNormal{Mu: 0, Sigma: math.Sqrt(0.6)}
			noise := randx.Normal{Mu: 0, Sigma: math.Sqrt(0.1)}
			gen := func(r *randx.RNG) *data.Dataset {
				return data.Linear(r, data.LinearOpt{N: n, D: d, Feature: feature, Noise: noise})
			}
			dom := polytope.NewL1Ball(d, 1)
			p := Panel{Figure: "abl-split-vs-full", Name: "a",
				XLabel: "eps", YLabel: "excess risk",
				Title: fmt.Sprintf("split (ε-DP) vs full-data ((ε,δ)-DP), n=%d, d=%d", n, d)}
			addSeries(&p, &err, cfg, "split(alg1)", epsGrid, 0, func(r *randx.RNG, eps float64) (float64, error) {
				ds := gen(r)
				w, err := core.FrankWolfeSource(data.NewMemSource(ds), core.FWOptions{Loss: loss.Squared{}, Domain: dom, Eps: eps, Rng: r.Split()})
				if err != nil {
					return 0, err
				}
				return excessVsWStar(loss.Squared{}, w, ds), nil
			})
			addSeries(&p, &err, cfg, "full-data", epsGrid, 1, func(r *randx.RNG, eps float64) (float64, error) {
				ds := gen(r)
				w, err := core.FullDataFWSource(data.NewMemSource(ds), core.FullDataFWOptions{
					Loss: loss.Squared{}, Domain: dom, Eps: eps, Delta: deltaFor(n), Rng: r.Split(),
				})
				if err != nil {
					return 0, err
				}
				return excessVsWStar(loss.Squared{}, w, ds), nil
			})
			if err != nil {
				return nil, err
			}
			cfg.panelDone(1, 1, p)
			return []Panel{p}, nil
		},
	}
}

// estimatorAblation compares the gradient-privatization strategies at
// fixed workload: Algorithm 1 (robust + exponential mechanism), the
// clipping DP-FW of [50], DP-GD with ℓ2 clipping, and the [57]-style
// robust + full-vector Gaussian baseline.
func estimatorAblation() Spec {
	return Spec{
		ID:          "abl-estimators",
		Description: "Ablation: Algorithm 1 vs clipping DP-FW [50], DP-GD [1], robust+Gaussian [57] (Fig-1 workload, d=400)",
		Run: func(cfg Config) ([]Panel, error) {
			cfg, err := cfg.withDefaults()
			if err != nil {
				return nil, err
			}
			const d = 400
			n := cfg.n(10000)
			// Heavier tails than Figure 1 (σ = 1.2 log-normal): the point
			// of the ablation is the regime where gradient clipping biases
			// the direction and full-vector Gaussian noise pays √d.
			feature := randx.LogNormal{Mu: 0, Sigma: 1.2}
			noise := randx.Normal{Mu: 0, Sigma: math.Sqrt(0.1)}
			gen := func(r *randx.RNG) *data.Dataset {
				return data.Linear(r, data.LinearOpt{N: n, D: d, Feature: feature, Noise: noise})
			}
			dom := polytope.NewL1Ball(d, 1)
			p := Panel{Figure: "abl-estimators", Name: "a",
				XLabel: "eps", YLabel: "excess risk",
				Title: fmt.Sprintf("gradient privatization strategies, n=%d, d=%d", n, d)}
			addSeries(&p, &err, cfg, "alg1-robust-fw", epsGrid, 0, func(r *randx.RNG, eps float64) (float64, error) {
				ds := gen(r)
				w, err := core.FrankWolfeSource(data.NewMemSource(ds), core.FWOptions{Loss: loss.Squared{}, Domain: dom, Eps: eps, Rng: r.Split()})
				if err != nil {
					return 0, err
				}
				return excessVsWStar(loss.Squared{}, w, ds), nil
			})
			addSeries(&p, &err, cfg, "clip-fw[50]", epsGrid, 1, func(r *randx.RNG, eps float64) (float64, error) {
				ds := gen(r)
				w, err := core.TalwarDPFWSource(data.NewMemSource(ds), core.TalwarFWOptions{
					Loss: loss.Squared{}, Domain: dom, Eps: eps, Delta: deltaFor(n),
					GradBound: 2, T: 30, Rng: r.Split(),
				})
				if err != nil {
					return 0, err
				}
				return excessVsWStar(loss.Squared{}, w, ds), nil
			})
			addSeries(&p, &err, cfg, "dp-gd[1]", epsGrid, 2, func(r *randx.RNG, eps float64) (float64, error) {
				ds := gen(r)
				w, err := core.DPGDSource(data.NewMemSource(ds), core.DPGDOptions{
					Loss: loss.Squared{}, Eps: eps, Delta: deltaFor(n),
					Project: dom.Project, Clip: 2, LR: 0.01, T: 30, Rng: r.Split(),
				})
				if err != nil {
					return 0, err
				}
				return excessVsWStar(loss.Squared{}, w, ds), nil
			})
			addSeries(&p, &err, cfg, "robust-gauss[57]", epsGrid, 3, func(r *randx.RNG, eps float64) (float64, error) {
				ds := gen(r)
				w, err := core.RobustGaussianGDSource(data.NewMemSource(ds), core.RobustGaussianGDOptions{
					Loss: loss.Squared{}, Eps: eps, Delta: deltaFor(n),
					Project: func(w []float64) []float64 { return vecmath.ProjectL1Ball(w, 1) },
					LR:      0.01, T: 20, S: 10, Rng: r.Split(),
				})
				if err != nil {
					return 0, err
				}
				return excessVsWStar(loss.Squared{}, w, ds), nil
			})
			if err != nil {
				return nil, err
			}
			cfg.panelDone(1, 1, p)
			return []Panel{p}, nil
		},
	}
}

// alg1VsAlg2Ablation reruns the §6.4 comparison: Algorithm 2 has the
// better rate ((nε)^{−2/5} vs (nε)^{−1/3}) but the paper observed it
// loses at practical sample sizes; this panel reproduces that anomaly.
func alg1VsAlg2Ablation() Spec {
	return Spec{
		ID:          "abl-alg1-vs-alg2",
		Description: "Ablation: Algorithm 1 (ε-DP robust FW) vs Algorithm 2 (shrinkage, (ε,δ)-DP) on the same LASSO workload",
		Run: func(cfg Config) ([]Panel, error) {
			cfg, err := cfg.withDefaults()
			if err != nil {
				return nil, err
			}
			const d = 200
			n := cfg.n(10000)
			feature := randx.LogNormal{Mu: 0, Sigma: math.Sqrt(0.6)}
			noise := randx.Normal{Mu: 0, Sigma: math.Sqrt(0.1)}
			gen := func(r *randx.RNG) *data.Dataset {
				return data.Linear(r, data.LinearOpt{N: n, D: d, Feature: feature, Noise: noise})
			}
			dom := polytope.NewL1Ball(d, 1)
			p := Panel{Figure: "abl-alg1-vs-alg2", Name: "a",
				XLabel: "eps", YLabel: "excess risk",
				Title: fmt.Sprintf("theory-better vs practice-better, n=%d, d=%d", n, d)}
			addSeries(&p, &err, cfg, "alg1", epsGrid, 0, func(r *randx.RNG, eps float64) (float64, error) {
				ds := gen(r)
				w, err := core.FrankWolfeSource(data.NewMemSource(ds), core.FWOptions{Loss: loss.Squared{}, Domain: dom, Eps: eps, Rng: r.Split()})
				if err != nil {
					return 0, err
				}
				return excessVsWStar(loss.Squared{}, w, ds), nil
			})
			addSeries(&p, &err, cfg, "alg2", epsGrid, 1, func(r *randx.RNG, eps float64) (float64, error) {
				ds := gen(r)
				w, err := core.LassoSource(data.NewMemSource(ds), core.LassoOptions{Eps: eps, Delta: deltaFor(n), Rng: r.Split()})
				if err != nil {
					return 0, err
				}
				return excessVsWStar(loss.Squared{}, w, ds), nil
			})
			if err != nil {
				return nil, err
			}
			cfg.panelDone(1, 1, p)
			return []Panel{p}, nil
		},
	}
}

// shrinkKAblation sweeps the shrinkage threshold K of Algorithm 2
// around its theory default, exposing the bias (small K) versus
// sensitivity-noise (large K) U-shape behind Theorem 5's choice.
func shrinkKAblation() Spec {
	return Spec{
		ID:          "abl-shrink-k",
		Description: "Ablation: shrinkage threshold K sweep for Algorithm 2 (bias vs noise trade-off)",
		Run: func(cfg Config) ([]Panel, error) {
			cfg, err := cfg.withDefaults()
			if err != nil {
				return nil, err
			}
			const d = 200
			n := cfg.n(10000)
			feature := randx.LogNormal{Mu: 0, Sigma: math.Sqrt(0.6)}
			noise := randx.Normal{Mu: 0, Sigma: math.Sqrt(0.1)}
			// Theory default K* = (nε)^{1/4}/T^{1/8} at ε = 1 for this n.
			T := int(math.Ceil(math.Pow(float64(n), 0.4)))
			kStar := math.Pow(float64(n), 0.25) / math.Pow(float64(T), 0.125)
			mults := []float64{0.125, 0.25, 0.5, 1, 2, 4, 8}
			xs := make([]float64, len(mults))
			for i, m := range mults {
				xs[i] = m * kStar
			}
			p := Panel{Figure: "abl-shrink-k", Name: "a",
				XLabel: "K", YLabel: "excess risk",
				Title: fmt.Sprintf("K sweep around theory default %.3g (ε=1, n=%d, d=%d)", kStar, n, d)}
			addSeries(&p, &err, cfg, "alg2", xs, 0, func(r *randx.RNG, k float64) (float64, error) {
				ds := data.Linear(r, data.LinearOpt{N: n, D: d, Feature: feature, Noise: noise})
				w, err := core.LassoSource(data.NewMemSource(ds), core.LassoOptions{
					Eps: 1, Delta: deltaFor(n), K: k, T: T, Rng: r.Split(),
				})
				if err != nil {
					return 0, err
				}
				return excessVsWStar(loss.Squared{}, w, ds), nil
			})
			if err != nil {
				return nil, err
			}
			cfg.panelDone(1, 1, p)
			return []Panel{p}, nil
		},
	}
}

// selectionAblation isolates the privacy cost of Algorithm 3 by
// plotting it against exact (non-private) IHT with identical step size
// and iteration budget across ε.
func selectionAblation() Spec {
	return Spec{
		ID:          "abl-selection",
		Description: "Ablation: Algorithm 3 vs exact IHT — the price of private selection and release",
		Run: func(cfg Config) ([]Panel, error) {
			cfg, err := cfg.withDefaults()
			if err != nil {
				return nil, err
			}
			const d, sStar = 400, 10
			n := cfg.n(50000)
			feature := randx.Normal{Mu: 0, Sigma: math.Sqrt(5)}
			noise := randx.Shifted{Base: randx.LogNormal{Mu: 0, Sigma: math.Sqrt(0.5)}}
			gen := func(r *randx.RNG) *data.Dataset {
				w := vecmath.Scale(data.SparseWStar(r, d, sStar), 0.5)
				return data.Linear(r, data.LinearOpt{N: n, D: d, Feature: feature, Noise: noise, WStar: w})
			}
			estErr := func(w, wStar []float64) float64 {
				dist := vecmath.Dist2(w, wStar)
				return dist * dist
			}
			p := Panel{Figure: "abl-selection", Name: "a",
				XLabel: "eps", YLabel: "‖ŵ−w*‖²",
				Title: fmt.Sprintf("private vs exact IHT, n=%d, d=%d, s*=%d", n, d, sStar)}
			addSeries(&p, &err, cfg, "alg3", epsGrid, 0, func(r *randx.RNG, eps float64) (float64, error) {
				ds := gen(r)
				w, err := core.SparseLinRegSource(data.NewMemSource(ds), core.SparseLinRegOptions{
					Eps: eps, Delta: deltaFor(n), SStar: sStar, S: sStar + 2,
					Eta0: 0.05, T: 3, Rng: r.Split(),
				})
				if err != nil {
					return 0, err
				}
				return estErr(w, ds.WStar), nil
			})
			addSeries(&p, &err, cfg, "exact-iht", epsGrid, 1, func(r *randx.RNG, _ float64) (float64, error) {
				ds := gen(r)
				w := core.NonprivateIHT(ds, 2*sStar, 30, 0.15)
				return estErr(w, ds.WStar), nil
			})
			if err != nil {
				return nil, err
			}
			cfg.panelDone(1, 1, p)
			return []Panel{p}, nil
		},
	}
}

// lowerBoundCheck plots the measured squared ℓ2 error of sparse mean
// estimation via Algorithm 5 against the Theorem 9 private minimax
// floor Ω(τ·min{s log d, log 1/δ}/(nε)): the measurement must sit above
// the floor, approaching it as n grows.
func lowerBoundCheck() Spec {
	return Spec{
		ID:          "lowerbound",
		Description: "Theorem 9 check: sparse-mean-estimation error of Algorithm 5 vs the private minimax floor",
		Run: func(cfg Config) ([]Panel, error) {
			cfg, err := cfg.withDefaults()
			if err != nil {
				return nil, err
			}
			const d, sStar = 200, 5
			tau := 1.0
			// Paper-scale sizes {2e4, 5e4, 1e5, 2e5}; the default
			// Scale=0.1 runs {2000, 5000, 10000, 20000}.
			ns := []float64{20000, 50000, 100000, 200000}
			for i := range ns {
				ns[i] = float64(cfg.n(int(ns[i])))
			}
			p := Panel{Figure: "lowerbound", Name: "a",
				XLabel: "n", YLabel: "E‖ŵ−µ‖²",
				Title: fmt.Sprintf("measured error vs Theorem-9 floor (d=%d, s*=%d, ε=1)", d, sStar)}
			addSeries(&p, &err, cfg, "alg5-measured", ns, 0, func(r *randx.RNG, nf float64) (float64, error) {
				n := int(nf)
				mu := vecmath.Scale(data.SparseWStar(r, d, sStar), 0.5)
				x := vecmath.NewMat(n, d)
				noise := randx.Shifted{Base: randx.LogNormal{Mu: 0, Sigma: 0.7}}
				for i := 0; i < n; i++ {
					row := x.Row(i)
					for j := range row {
						row[j] = mu[j] + noise.Sample(r)
					}
				}
				ds := &data.Dataset{Label: "sparsemean", X: x, Y: make([]float64, n), WStar: mu}
				w, err := core.SparseOptSource(data.NewMemSource(ds), core.SparseOptOptions{
					Loss: loss.MeanSquared{}, Eps: 1, Delta: deltaFor(n), SStar: sStar,
					Eta: 0.45, Rng: r.Split(),
				})
				if err != nil {
					return 0, err
				}
				diff := vecmath.Dist2(w, mu)
				return diff * diff, nil
			})
			if err != nil {
				return nil, err
			}
			floor := Series{Name: "theorem9-floor"}
			for _, nf := range ns {
				floor.X = append(floor.X, nf)
				floor.Mean = append(floor.Mean, minimax.LowerBound(tau, sStar, d, int(nf), 1, deltaFor(int(nf))))
				floor.Std = append(floor.Std, 0)
			}
			p.Series = append(p.Series, floor)
			cfg.panelDone(1, 1, p)
			return []Panel{p}, nil
		},
	}
}
