package core

import (
	"errors"
	"fmt"
	"math"

	"htdp/internal/data"
	"htdp/internal/dp"
	"htdp/internal/loss"
	"htdp/internal/randx"
	"htdp/internal/robust"
	"htdp/internal/vecmath"
)

// SparseOptOptions configures Heavy-tailed Private Sparse Optimization
// (Algorithm 5): DP-SCO over the sparsity constraint ‖w‖₀ ≤ s* for
// losses satisfying Assumption 4 (RSC/RSS with bounded per-coordinate
// gradient moments), e.g. ℓ2-regularized logistic regression and sparse
// mean estimation. Each iteration computes the Catoni robust coordinate
// gradient on a fresh chunk, takes a gradient step, and applies Peeling.
type SparseOptOptions struct {
	Loss  loss.Loss
	Eps   float64
	Delta float64

	// SStar is the target sparsity s*.
	SStar int
	// S is the expanded iterate sparsity (Theorem 8 wants
	// s = O((γ/µ)²·s*); §6.2 uses s = 2s*). 0 → 2·SStar.
	S int
	// T is the iteration count (0 → ⌊log n⌋ clamped to [1, n]).
	T int
	// K is the robust-estimator truncation scale k. 0 selects the
	// Theorem-8 scale √(nε·τ/(s·T·√log(Ts/ζ))) (logs flattened; the
	// paper's §6.2 shortcut k = c₂·nε is available by setting K).
	K float64
	// Beta is the smoothing precision β (0 → 1).
	Beta float64
	// Tau bounds E[(∇ⱼℓ)²] ≤ τ from Assumption 4 (0 → 1).
	Tau float64
	// Zeta is the failure probability entering the default K (0 → 0.05).
	Zeta float64
	// Eta is the step size (0 → 0.5 as in §6.2; theory: 2/(3γ)).
	Eta float64
	// W0 is the initial iterate, S-sparse (nil → zero vector).
	W0 []float64
	// Parallelism is the worker count for the sharded robust-gradient
	// and Peeling hot paths (0 → GOMAXPROCS, 1 → sequential);
	// bit-identical at every setting.
	Parallelism int

	Rng   *randx.RNG
	Trace Trace
}

func (o *SparseOptOptions) fill(n, d int) error {
	if o.Loss == nil || o.Rng == nil {
		return errors.New("core: SparseOptOptions needs Loss and Rng")
	}
	if err := (dp.Params{Eps: o.Eps, Delta: o.Delta}).Validate(); err != nil {
		return err
	}
	if o.Delta == 0 {
		return errors.New("core: Algorithm 5 is (ε,δ)-DP and needs δ > 0")
	}
	if err := checkData(n, d, nil, o.W0); err != nil {
		return err
	}
	if o.SStar < 1 || o.SStar > d {
		return fmt.Errorf("core: SStar=%d outside [1,%d]", o.SStar, d)
	}
	if o.S == 0 {
		o.S = 2 * o.SStar
	}
	if o.S < o.SStar || o.S > d {
		return fmt.Errorf("core: S=%d outside [%d,%d]", o.S, o.SStar, d)
	}
	if o.T == 0 {
		o.T = int(math.Log(float64(n)))
	}
	if o.T < 1 {
		o.T = 1
	}
	if o.T > n {
		o.T = n
	}
	if o.Beta == 0 {
		o.Beta = 1
	}
	if o.Tau == 0 {
		o.Tau = 1
	}
	if o.Zeta == 0 {
		o.Zeta = 0.05
	}
	if o.K == 0 {
		logTerm := math.Sqrt(math.Log(float64(o.T*o.S) / o.Zeta))
		if logTerm < 1 {
			logTerm = 1
		}
		o.K = math.Sqrt(float64(n) * o.Eps * o.Tau / (float64(o.S*o.T) * logTerm))
	}
	if !(o.K > 0) {
		return fmt.Errorf("core: invalid truncation scale K=%v", o.K)
	}
	if o.Eta == 0 {
		o.Eta = 0.5
	}
	if o.W0 == nil {
		o.W0 = make([]float64, d)
	}
	if vecmath.Norm0(o.W0) > o.S {
		return errors.New("core: W0 must be S-sparse")
	}
	return nil
}

// SparseOptSource runs Heavy-tailed Private Sparse Optimization
// (Algorithm 5) over a data source and returns w_{T+1}. Iteration t
// loads only chunk t−1 of T, so at most one chunk is resident. Privacy
// (Theorem 8): the gradient step's ℓ∞-sensitivity is η·4√2·k/(3m) —
// the robust estimator's sensitivity scaled by the step size — and
// Peeling on disjoint chunks makes the whole run (ε, δ)-DP.
func SparseOptSource(src data.Source, opt SparseOptOptions) ([]float64, error) {
	if err := opt.fill(src.N(), src.D()); err != nil {
		return nil, err
	}
	d := src.D()
	est := robust.MeanEstimator{S: opt.K, Beta: opt.Beta, Parallelism: opt.Parallelism}

	w := vecmath.Clone(opt.W0)
	grad := make([]float64, d)
	// Per-run workspaces: fused gradient state, Peeling scratch, and the
	// peeled iterate's ping-pong buffer.
	gs := newGradState(est, opt.Loss)
	var ps peelScratch
	wNext := make([]float64, d)
	for t := 1; t <= opt.T; t++ {
		part, err := src.Chunk(t-1, opt.T)
		if err != nil {
			return nil, fmt.Errorf("core: SparseOpt chunk %d/%d: %w", t-1, opt.T, err)
		}
		m := part.N()
		// Step 4–5: robust coordinate-wise gradient g̃(w, D_t), fused
		// through the margin kernel when the loss factorizes.
		gs.estimate(grad, w, part)
		// Step 6: gradient step.
		vecmath.Axpy(-opt.Eta, grad, w)
		// Step 7: Peeling. λ is the exact step sensitivity
		// η·‖g̃−g̃′‖∞ ≤ η·4√2·k/(3m) (the listing's 4√2·k·η/m is the
		// same bound with the 1/3 absorbed; we use the tight constant).
		lambda := opt.Eta * est.Sensitivity(m)
		peeling(&ps, wNext, opt.Rng, w, opt.S, opt.Eps, opt.Delta, lambda, opt.Parallelism)
		w, wNext = wNext, w
		if opt.Trace != nil {
			opt.Trace(t, w)
		}
	}
	return w, nil
}
