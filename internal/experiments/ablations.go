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
	return entry("abl-split-vs-full",
		"Ablation: data-splitting (Algorithm 1) vs full-data robust DP-FW with advanced composition (open problem after Theorem 3)",
		func(cfg Config) (panel, error) {
			const d = 200
			n := cfg.n(10000)
			return panel{fmt.Sprintf("split (ε-DP) vs full-data ((ε,δ)-DP), n=%d, d=%d", n, d), "eps", "excess risk", []series{
				{"split(alg1)", epsGrid, 0, linearTrial(n, d, fig1Features, fitFW)},
				{"full-data", epsGrid, 1, linearTrial(n, d, fig1Features, func(src data.Source, r *randx.RNG, eps float64) ([]float64, error) {
					return core.FullDataFWSource(src, core.FullDataFWOptions{
						Loss: loss.Squared{}, Domain: polytope.NewL1Ball(d, 1), Eps: eps, Delta: deltaFor(n), Rng: r,
					})
				})},
			}}, nil
		})
}

// estimatorAblation compares the gradient-privatization strategies at
// fixed workload: Algorithm 1 (robust + exponential mechanism), the
// clipping DP-FW of [50], DP-GD with ℓ2 clipping, and the [57]-style
// robust + full-vector Gaussian baseline.
func estimatorAblation() Spec {
	return entry("abl-estimators",
		"Ablation: Algorithm 1 vs clipping DP-FW [50], DP-GD [1], robust+Gaussian [57] (Fig-1 workload, d=400)",
		func(cfg Config) (panel, error) {
			const d = 400
			n := cfg.n(10000)
			// Heavier tails than Figure 1 (σ = 1.2 log-normal): the point
			// of the ablation is the regime where gradient clipping biases
			// the direction and full-vector Gaussian noise pays √d.
			feature := randx.LogNormal{Mu: 0, Sigma: 1.2}
			dom := polytope.NewL1Ball(d, 1)
			return panel{fmt.Sprintf("gradient privatization strategies, n=%d, d=%d", n, d), "eps", "excess risk", []series{
				{"alg1-robust-fw", epsGrid, 0, linearTrial(n, d, feature, fitFW)},
				{"clip-fw[50]", epsGrid, 1, linearTrial(n, d, feature, func(src data.Source, r *randx.RNG, eps float64) ([]float64, error) {
					return core.TalwarDPFWSource(src, core.TalwarFWOptions{
						Loss: loss.Squared{}, Domain: dom, Eps: eps, Delta: deltaFor(n),
						GradBound: 2, T: 30, Rng: r,
					})
				})},
				{"dp-gd[1]", epsGrid, 2, linearTrial(n, d, feature, func(src data.Source, r *randx.RNG, eps float64) ([]float64, error) {
					return core.DPGDSource(src, core.DPGDOptions{
						Loss: loss.Squared{}, Eps: eps, Delta: deltaFor(n),
						Project: dom.Project, Clip: 2, LR: 0.01, T: 30, Rng: r,
					})
				})},
				{"robust-gauss[57]", epsGrid, 3, linearTrial(n, d, feature, func(src data.Source, r *randx.RNG, eps float64) ([]float64, error) {
					return core.RobustGaussianGDSource(src, core.RobustGaussianGDOptions{
						Loss: loss.Squared{}, Eps: eps, Delta: deltaFor(n),
						Project: func(w []float64) []float64 { return vecmath.ProjectL1Ball(w, 1) },
						LR:      0.01, T: 20, S: 10, Rng: r,
					})
				})},
			}}, nil
		})
}

// alg1VsAlg2Ablation reruns the §6.4 comparison: Algorithm 2 has the
// better rate ((nε)^{−2/5} vs (nε)^{−1/3}) but the paper observed it
// loses at practical sample sizes; this panel reproduces that anomaly.
func alg1VsAlg2Ablation() Spec {
	return entry("abl-alg1-vs-alg2",
		"Ablation: Algorithm 1 (ε-DP robust FW) vs Algorithm 2 (shrinkage, (ε,δ)-DP) on the same LASSO workload",
		func(cfg Config) (panel, error) {
			const d = 200
			n := cfg.n(10000)
			return panel{fmt.Sprintf("theory-better vs practice-better, n=%d, d=%d", n, d), "eps", "excess risk", []series{
				{"alg1", epsGrid, 0, linearTrial(n, d, fig1Features, fitFW)},
				{"alg2", epsGrid, 1, linearTrial(n, d, fig1Features, fitLasso)},
			}}, nil
		})
}

// shrinkKAblation sweeps the shrinkage threshold K of Algorithm 2
// around its theory default, exposing the bias (small K) versus
// sensitivity-noise (large K) U-shape behind Theorem 5's choice.
func shrinkKAblation() Spec {
	return entry("abl-shrink-k",
		"Ablation: shrinkage threshold K sweep for Algorithm 2 (bias vs noise trade-off)",
		func(cfg Config) (panel, error) {
			const d = 200
			n := cfg.n(10000)
			// Theory default K* = (nε)^{1/4}/T^{1/8} at ε = 1 for this n.
			T := int(math.Ceil(math.Pow(float64(n), 0.4)))
			kStar := math.Pow(float64(n), 0.25) / math.Pow(float64(T), 0.125)
			mults := []float64{0.125, 0.25, 0.5, 1, 2, 4, 8}
			xs := make([]float64, len(mults))
			for i, m := range mults {
				xs[i] = m * kStar
			}
			return panel{fmt.Sprintf("K sweep around theory default %.3g (ε=1, n=%d, d=%d)", kStar, n, d), "K", "excess risk", []series{
				{"alg2", xs, 0, linearTrial(n, d, fig1Features, func(src data.Source, r *randx.RNG, k float64) ([]float64, error) {
					return core.LassoSource(src, core.LassoOptions{Eps: 1, Delta: deltaFor(n), K: k, T: T, Rng: r})
				})},
			}}, nil
		})
}

// selectionAblation isolates the privacy cost of Algorithm 3 by
// plotting it against exact (non-private) IHT with identical step size
// and iteration budget across ε.
func selectionAblation() Spec {
	return entry("abl-selection",
		"Ablation: Algorithm 3 vs exact IHT — the price of private selection and release",
		func(cfg Config) (panel, error) {
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
			return panel{fmt.Sprintf("private vs exact IHT, n=%d, d=%d, s*=%d", n, d, sStar), "eps", "‖ŵ−w*‖²", []series{
				{"alg3", epsGrid, 0, func(r *randx.RNG, eps float64) (float64, error) {
					ds := gen(r)
					w, err := core.SparseLinRegSource(data.NewMemSource(ds), core.SparseLinRegOptions{
						Eps: eps, Delta: deltaFor(n), SStar: sStar, S: sStar + 2,
						Eta0: 0.05, T: 3, Rng: r.Split(),
					})
					if err != nil {
						return 0, err
					}
					return estErr(w, ds.WStar), nil
				}},
				{"exact-iht", epsGrid, 1, func(r *randx.RNG, _ float64) (float64, error) {
					ds := gen(r)
					w := core.NonprivateIHT(ds, 2*sStar, 30, 0.15)
					return estErr(w, ds.WStar), nil
				}},
			}}, nil
		})
}

// lowerBoundCheck plots the measured squared ℓ2 error of sparse mean
// estimation via Algorithm 5 against the Theorem 9 private minimax
// floor Ω(τ·min{s log d, log 1/δ}/(nε)): the measurement must sit above
// the floor, approaching it as n grows. The floor is a series whose
// trial returns the closed form: every rep agrees, so its mean is the
// floor and its spread 0.
func lowerBoundCheck() Spec {
	return entry("lowerbound",
		"Theorem 9 check: sparse-mean-estimation error of Algorithm 5 vs the private minimax floor",
		func(cfg Config) (panel, error) {
			const d, sStar = 200, 5
			tau := 1.0
			// Paper-scale sizes {2e4, 5e4, 1e5, 2e5}; the default
			// Scale=0.1 runs {2000, 5000, 10000, 20000}.
			ns := nGrid(cfg, 1, 20000, 50000, 100000, 200000)
			return panel{fmt.Sprintf("measured error vs Theorem-9 floor (d=%d, s*=%d, ε=1)", d, sStar), "n", "E‖ŵ−µ‖²", []series{
				{"alg5-measured", ns, 0, func(r *randx.RNG, nf float64) (float64, error) {
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
				}},
				{"theorem9-floor", ns, 1, func(_ *randx.RNG, nf float64) (float64, error) {
					return minimax.LowerBound(tau, sStar, d, int(nf), 1, deltaFor(int(nf))), nil
				}},
			}}, nil
		})
}
