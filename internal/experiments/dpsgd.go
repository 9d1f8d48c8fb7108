package experiments

import (
	"fmt"
	"math"

	"htdp/internal/core"
	"htdp/internal/data"
	"htdp/internal/loss"
	"htdp/internal/randx"
)

// The dpsgd experiment exercises minibatch DP-SGD over random-access
// sources — the scenario family that needed Source.RowAt. Panel (a) is
// the minibatch ablation: excess risk across batch sizes at fixed ε,
// where the batch size sets the subsampling rate q = b/n and so trades
// per-step noise against steps-per-epoch. Panel (b) is the
// amplification-accounting ablation: the same runs across ε under the
// classical amplification lemma ("compose") and under
// subsampled-Gaussian RDP accounting ("rdp"), whose gap is exactly the
// value of tighter amplification accounting. Both panels run on any
// backend (GenSource default; -stream substitutes a CSV).

func init() {
	const d = 100
	s := entry("dpsgd",
		"Minibatch DP-SGD via random row access: batch-size ablation and subsampling-amplification accounting (GenSource default; -stream substitutes a CSV)",
		func(cfg Config) (panel, error) {
			n := cfg.n(5000)
			// Batch sizes as fractions of n, so the subsampling rates the
			// panel sweeps are scale-invariant: q from 1/100 up to 1/4.
			batchGrid := []float64{
				math.Max(1, float64(n)/100), math.Max(1, float64(n)/50),
				math.Max(1, float64(n)/20), math.Max(1, float64(n)/10),
				math.Max(1, float64(n)/4),
			}
			return panel{fmt.Sprintf("minibatch ablation at eps=1 via %s, default n=%d, d=%d", backend(cfg), n, d), "batch size", "excess risk",
				dpsgdSeries(cfg, n, d, batchGrid, 0, func(b float64) (float64, int) { return 1, int(b) })}, nil
		},
		func(cfg Config) (panel, error) {
			n := cfg.n(5000)
			return panel{fmt.Sprintf("amplification accounting at batch n/50 via %s, default n=%d, d=%d", backend(cfg), n, d), "eps", "excess risk",
				dpsgdSeries(cfg, n, d, epsGrid, 2, func(eps float64) (float64, int) { return eps, 0 })}, nil // batch 0 → the n/50 default
		})
	s.UsesSource = true
	register(s)
}

// dpsgdSeries declares one DP-SGD series per accountant over xs, with
// seed offsets off, off+1; at maps a grid value to the run's ε and
// batch size.
func dpsgdSeries(cfg Config, n, d int, xs []float64, off int64, at func(x float64) (eps float64, batch int)) []series {
	var out []series
	for i, acct := range []string{core.AccountantCompose, core.AccountantRDP} {
		out = append(out, series{"dpsgd-" + acct, xs, off + int64(i), sourceTrial(cfg, n, d, func(src data.Source, r *randx.RNG, x float64) ([]float64, error) {
			eps, batch := at(x)
			return core.DPSGDSource(src, core.DPSGDOptions{
				Loss: loss.Squared{}, Eps: eps, Delta: deltaFor(src.N()),
				T: 60, Batch: batch, Accountant: acct, Rng: r,
			})
		})})
	}
	return out
}
