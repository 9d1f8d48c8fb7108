// Package core implements the paper's contribution: the four private
// optimization algorithms for heavy-tailed data in high dimension —
// Heavy-tailed DP-FW (Algorithm 1), Heavy-tailed Private LASSO
// (Algorithm 2), Heavy-tailed Private Sparse Linear Regression
// (Algorithm 3, with the Peeling primitive of Algorithm 4), and
// Heavy-tailed Private Sparse Optimization (Algorithm 5) — plus the
// baselines the experiments compare against (non-private Frank–Wolfe
// and IHT, the DP-FW of Talwar et al. for regular data, DP-GD with
// gradient clipping, and the robust-plus-Gaussian estimator in the
// style of Wang et al.).
package core

import (
	"errors"
	"fmt"
	"math"

	"htdp/internal/data"
	"htdp/internal/dp"
	"htdp/internal/loss"
	"htdp/internal/polytope"
	"htdp/internal/randx"
	"htdp/internal/robust"
	"htdp/internal/vecmath"
)

// Trace receives the iterate after every step; t counts from 1. Any
// option struct with a Trace field calls it for diagnostics and tests.
type Trace func(t int, w []float64)

// defaultT converts a theory-default iteration count, computed in float,
// to an int clamped to [1, n]. Clamping before the conversion keeps an
// ε large enough to overflow int (or an nε of +Inf) at n instead of
// wrapping to a single iteration.
func defaultT(t float64, n int) int {
	return int(math.Max(1, math.Min(t, float64(n))))
}

// checkData is the shape check every entry point runs on its source
// and options before any arithmetic: the data must be non-empty, and
// the domain and initial iterate, where the options take them (dom and
// w0 may be nil), must match the data's dimension.
func checkData(n, d int, dom polytope.Polytope, w0 []float64) error {
	if n < 1 {
		return errors.New("core: empty dataset")
	}
	if dom != nil && dom.Dim() != d {
		return fmt.Errorf("core: domain dim %d != data dim %d", dom.Dim(), d)
	}
	if w0 != nil && len(w0) != d {
		return fmt.Errorf("core: W0 length %d != data dim %d", len(w0), d)
	}
	return nil
}

// FWOptions configures Heavy-tailed DP-FW (Algorithm 1), the ε-DP
// Frank–Wolfe over a polytope with a Catoni-style robust coordinate-wise
// gradient estimator and the exponential mechanism as linear oracle.
type FWOptions struct {
	Loss   loss.Loss         // per-sample loss ℓ(w, (x, y))
	Domain polytope.Polytope // W = conv(V)
	Eps    float64           // total privacy budget ε (pure DP)

	// T is the number of iterations (and data chunks). 0 selects the
	// Theorem-2 default ⌊(nε)^{1/3}⌋ clamped to [1, n].
	T int
	// S is the truncation scale s of the robust estimator. 0 selects the
	// Theorem-2 default √(nε·τ / (T·log(|V|·d·T/ζ))).
	S float64
	// Beta is the smoothing precision β (0 → 1, the paper's O(1) choice).
	Beta float64
	// Tau bounds the per-coordinate gradient second moment
	// E[(∇ⱼℓ)²] ≤ τ of Assumption 1 (0 → 1).
	Tau float64
	// Zeta is the failure probability ζ entering the default S (0 → 0.05).
	Zeta float64
	// EtaConst, when positive, fixes a constant step size (Theorem 3's
	// robust-regression schedule η = 1/√T); otherwise the classical
	// Frank–Wolfe schedule η_t = 2/(t+2) is used.
	EtaConst float64
	// W0 is the initial iterate (nil → the zero vector, which lies in
	// every domain this package ships). It must belong to Domain.
	W0 []float64
	// Average, when true, returns the uniform average of the iterates
	// w₁…w_T instead of the last iterate — a standard variance-reduction
	// post-processing that costs no additional privacy.
	Average bool
	// Parallelism is the worker count for the sharded robust-gradient
	// hot path: 0 → GOMAXPROCS, 1 → sequential. The sharded engine is
	// bit-identical at every setting, so this knob trades wall-clock
	// only, never results.
	Parallelism int

	Rng   *randx.RNG
	Trace Trace
}

func (o *FWOptions) fill(n, d int) error {
	if o.Loss == nil || o.Domain == nil || o.Rng == nil {
		return errors.New("core: FWOptions needs Loss, Domain and Rng")
	}
	if err := (dp.Params{Eps: o.Eps}).Validate(); err != nil {
		return err
	}
	if err := checkData(n, d, o.Domain, o.W0); err != nil {
		return err
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
	if o.T == 0 {
		o.T = defaultT(math.Cbrt(float64(n)*o.Eps), n)
	}
	if o.T < 1 {
		o.T = 1
	}
	if o.T > n {
		o.T = n
	}
	if o.S == 0 {
		nv := float64(o.Domain.NumVertices())
		logTerm := math.Log(nv * float64(d) * float64(o.T) / o.Zeta)
		if logTerm < 1 {
			logTerm = 1
		}
		o.S = math.Sqrt(float64(n) * o.Eps * o.Tau / (float64(o.T) * logTerm))
	}
	if !(o.S > 0) || !(o.Beta > 0) {
		return fmt.Errorf("core: invalid robust-estimator parameters s=%v β=%v", o.S, o.Beta)
	}
	if o.W0 == nil {
		o.W0 = make([]float64, d)
	}
	if !o.Domain.Contains(o.W0, 1e-9) {
		return errors.New("core: W0 outside the domain")
	}
	return nil
}

// FrankWolfeSource runs Heavy-tailed DP-FW (Algorithm 1) over a data
// source and returns the final iterate w_T. Iteration t touches only
// chunk t−1 of T — the disjoint-chunk strategy of the paper — so at
// most one chunk is resident at a time and n may exceed local memory.
// The whole invocation is ε-DP: each iteration applies the exponential
// mechanism with budget ε to a fresh disjoint chunk, so no composition
// is paid (Theorem 1).
func FrankWolfeSource(src data.Source, opt FWOptions) ([]float64, error) {
	if err := opt.fill(src.N(), src.D()); err != nil {
		return nil, err
	}
	d := src.D()
	est := robust.MeanEstimator{S: opt.S, Beta: opt.Beta, Parallelism: opt.Parallelism}

	w := vecmath.Clone(opt.W0)
	grad := make([]float64, d)
	vtx := make([]float64, d)
	var avg []float64
	if opt.Average {
		avg = make([]float64, d)
	}
	// Per-run workspaces: fused gradient state, vertex selector, and the
	// ‖W‖₁ bound, computed once — everything the loop reuses, so
	// iterations allocate nothing after the first.
	gs := newGradState(est, opt.Loss)
	sel := newVertexSelector(opt.Domain, grad)
	l1max := maxVertexL1(opt.Domain, vtx)
	for t := 1; t <= opt.T; t++ {
		part, err := src.Chunk(t-1, opt.T)
		if err != nil {
			return nil, fmt.Errorf("core: FrankWolfe chunk %d/%d: %w", t-1, opt.T, err)
		}
		m := part.N()
		// Step 4–5: robust coordinate-wise gradient estimate g̃(w, D_t),
		// through the fused margin kernel when the loss factorizes.
		gs.estimate(grad, w, part)
		// Step 6: exponential mechanism over the vertex set with score
		// u(v) = −⟨v, g̃⟩. |u(D,v) − u(D′,v)| ≤ ‖v‖₁·‖g̃−g̃′‖∞ ≤
		// max_v‖v‖₁ · 4√2·s/(3m) — the Theorem-1 sensitivity.
		sens := l1max * est.Sensitivity(m)
		idx := sel.pick(opt.Rng, sens, opt.Eps)
		opt.Domain.Vertex(idx, vtx)
		// Step 7: convex update.
		eta := opt.EtaConst
		if eta <= 0 {
			eta = 2 / float64(t+2)
		}
		vecmath.Lerp(w, w, vtx, eta)
		if avg != nil {
			vecmath.Axpy(1, w, avg)
		}
		if opt.Trace != nil {
			opt.Trace(t, w)
		}
	}
	if avg != nil {
		vecmath.Scale(avg, 1/float64(opt.T))
		return avg, nil
	}
	return w, nil
}
