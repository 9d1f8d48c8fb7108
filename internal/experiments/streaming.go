package experiments

import (
	"fmt"
	"math"

	"htdp/internal/core"
	"htdp/internal/data"
	"htdp/internal/loss"
	"htdp/internal/polytope"
	"htdp/internal/randx"
)

// The streaming experiment exercises the out-of-core data path end to
// end: Algorithms 1 and 2 consume their chunks from a data.Source
// instead of a materialized matrix, and the risk is measured by the
// streaming evaluators. With the default GenSource backend this is a
// determinism check against the in-memory figures; with Config.Source
// pointed at a CSV (cmd/htdp -run streaming -stream file.csv) it runs
// the same protocol on real data, which a data.SourcePool decodes once
// per process (see DESIGN.md, "Batched sweeps").

func init() {
	register(streamingSpec())
}

func streamingSpec() Spec {
	return Spec{
		ID:          "streaming",
		Description: "Streaming sources: DP-FW and private LASSO consuming out-of-core chunks (GenSource default; -stream substitutes a CSV)",
		UsesSource:  true,
		Run: func(cfg Config) ([]Panel, error) {
			cfg, err := cfg.withDefaults()
			if err != nil {
				return nil, err
			}
			const d = 200
			n := cfg.n(10000)
			open := cfg.Source
			backend := "gensource"
			if open == nil {
				open = func(seed int64) (data.Source, error) {
					return data.LinearSource(seed, data.LinearOpt{
						N: n, D: d,
						Feature: randx.LogNormal{Mu: 0, Sigma: math.Sqrt(0.6)},
						Noise:   randx.Normal{Mu: 0, Sigma: math.Sqrt(0.1)},
					}), nil
				}
			} else {
				backend = "config.source"
			}
			// Excess risk against the source's planted parameter when it
			// has one (GenSource), else against the zero vector (CSV),
			// both measured by streaming passes.
			excess := func(w []float64, src data.Source) (float64, error) {
				ref := data.WStarOf(src)
				if ref == nil {
					ref = make([]float64, src.D())
				}
				return loss.ExcessRiskSource(loss.Squared{}, w, ref, src, 0)
			}
			trial := func(r *randx.RNG, run func(src data.Source, rng *randx.RNG) ([]float64, error)) (float64, error) {
				src, err := cfg.openSource(open, r.Int63())
				if err != nil {
					return 0, err
				}
				defer src.Close()
				w, err := run(src, r.Split())
				if err != nil {
					return 0, err
				}
				return excess(w, src)
			}
			p := Panel{Figure: "streaming", Name: "a",
				XLabel: "eps", YLabel: "excess risk",
				Title: fmt.Sprintf("out-of-core chunks via %s, default n=%d, d=%d", backend, n, d)}
			addSeries(&p, &err, cfg, "dpfw-stream", epsGrid, 0, func(r *randx.RNG, eps float64) (float64, error) {
				return trial(r, func(src data.Source, rng *randx.RNG) ([]float64, error) {
					return core.FrankWolfeSource(src, core.FWOptions{
						Loss: loss.Squared{}, Domain: polytope.NewL1Ball(src.D(), 1),
						Eps: eps, Rng: rng,
					})
				})
			})
			addSeries(&p, &err, cfg, "lasso-stream", epsGrid, 1, func(r *randx.RNG, eps float64) (float64, error) {
				return trial(r, func(src data.Source, rng *randx.RNG) ([]float64, error) {
					return core.LassoSource(src, core.LassoOptions{
						Eps: eps, Delta: deltaFor(src.N()), Rng: rng,
					})
				})
			})
			if err != nil {
				return nil, err
			}
			cfg.panelDone(1, 1, p)
			return []Panel{p}, nil
		},
	}
}
