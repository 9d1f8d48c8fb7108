package experiments

import (
	"fmt"

	"htdp/internal/data"
	"htdp/internal/loss"
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
	s := entry("streaming",
		"Streaming sources: DP-FW and private LASSO consuming out-of-core chunks (GenSource default; -stream substitutes a CSV)",
		func(cfg Config) (panel, error) {
			const d = 200
			n := cfg.n(10000)
			return panel{fmt.Sprintf("out-of-core chunks via %s, default n=%d, d=%d", backend(cfg), n, d), "eps", "excess risk", []series{
				{"dpfw-stream", epsGrid, 0, sourceTrial(cfg, n, d, fitFW)},
				{"lasso-stream", epsGrid, 1, sourceTrial(cfg, n, d, fitLasso)},
			}}, nil
		})
	s.UsesSource = true
	register(s)
}

// backend names where a source-streaming entry's rows come from, for
// its panel titles.
func backend(cfg Config) string {
	if cfg.Source != nil {
		return "config.source"
	}
	return "gensource"
}

// sourceTrial is the trial of the source-streaming entries. It opens the
// trial's source from Config.Source, or else from a generator of n×d
// rows of Figure 1's workload seeded by the trial, and wraps it with the
// sweep's context, so a long trial observes cancellation at every chunk
// read. It fits the source and measures the excess squared risk by a
// streaming pass: against the source's planted parameter when it has
// one (a generator), else against the zero vector (a CSV).
func sourceTrial(cfg Config, n, d int, fit fitFn) trialFn {
	open := cfg.Source
	if open == nil {
		open = func(seed int64) (data.Source, error) {
			return data.LinearSource(seed, data.LinearOpt{N: n, D: d, Feature: fig1Features, Noise: linearNoise}), nil
		}
	}
	return func(r *randx.RNG, x float64) (float64, error) {
		src, err := open(r.Int63())
		if err != nil {
			return 0, err
		}
		src = data.WithContext(cfg.Ctx, src)
		defer src.Close()
		w, err := fit(src, r.Split(), x)
		if err != nil {
			return 0, err
		}
		ref := data.WStarOf(src)
		if ref == nil {
			ref = make([]float64, src.D())
		}
		return loss.ExcessRiskSource(loss.Squared{}, w, ref, src, 0)
	}
}
