package core

import (
	"errors"
	"fmt"
	"math"

	"htdp/internal/data"
	"htdp/internal/dp"
	"htdp/internal/randx"
	"htdp/internal/vecmath"
)

// SparseLinRegOptions configures Heavy-tailed Private Sparse Linear
// Regression (Algorithm 3): data shrinkage at K, then private iterative
// hard thresholding — a gradient step on a fresh data chunk, Peeling,
// and projection onto the unit ℓ2 ball.
type SparseLinRegOptions struct {
	Eps   float64
	Delta float64

	// SStar is the target sparsity s* of the underlying parameter.
	SStar int
	// S is the expanded sparsity the iterates are kept at (Theorem 7
	// wants s ≥ 72(γ/µ)²s*; §6.2 uses s = c·s*). 0 → 2·SStar.
	S int
	// T is the iteration count (0 → ⌊log n⌋ clamped to [1, n]).
	T int
	// K is the shrinkage threshold (0 → (nε/(sT))^{1/4} as in Theorem 7).
	K float64
	// Eta0 is the step size (0 → 0.5, the §6.2 choice).
	Eta0 float64
	// W0 is the initial iterate; it must be S-sparse with ‖W0‖₂ ≤ 1
	// (nil → zero vector).
	W0 []float64
	// Parallelism is the worker count for the sharded gradient kernels
	// and the Peeling scan (0 → GOMAXPROCS, 1 → sequential);
	// bit-identical at every setting.
	Parallelism int

	Rng   *randx.RNG
	Trace Trace
}

func (o *SparseLinRegOptions) fill(n, d int) error {
	if o.Rng == nil {
		return errors.New("core: SparseLinRegOptions needs Rng")
	}
	if err := (dp.Params{Eps: o.Eps, Delta: o.Delta}).Validate(); err != nil {
		return err
	}
	if o.Delta == 0 {
		return errors.New("core: Algorithm 3 is (ε,δ)-DP and needs δ > 0")
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
		return fmt.Errorf("core: S=%d outside [SStar=%d, d=%d]", o.S, o.SStar, d)
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
	if o.K == 0 {
		o.K = math.Pow(float64(n)*o.Eps/float64(o.S*o.T), 0.25)
	}
	if !(o.K > 0) {
		return fmt.Errorf("core: invalid shrinkage threshold K=%v", o.K)
	}
	if o.Eta0 == 0 {
		o.Eta0 = 0.5
	}
	if o.W0 == nil {
		o.W0 = make([]float64, d)
	}
	if vecmath.Norm0(o.W0) > o.S || vecmath.Norm2(o.W0) > 1+1e-9 {
		return errors.New("core: W0 must be S-sparse inside the unit ℓ2 ball")
	}
	return nil
}

// SparseLinRegSource runs Heavy-tailed Private Sparse Linear Regression
// (Algorithm 3) over a data source and returns w_{T+1}. Iteration t
// loads only chunk t−1 of T, shrunken on load (entry-wise, so per-chunk
// shrinkage equals the listing's whole-data shrinkage bit for bit), so
// at most one chunk is resident. Privacy (Theorem 6): each iteration
// touches a disjoint chunk and the Peeling call is calibrated to the
// ℓ∞-sensitivity 2K²η₀(√s+1)/m of the gradient step, so the whole run
// is (ε, δ)-DP.
func SparseLinRegSource(src data.Source, opt SparseLinRegOptions) ([]float64, error) {
	if err := opt.fill(src.N(), src.D()); err != nil {
		return nil, err
	}
	d := src.D()
	// Step 2: shrink (lazily, per chunk), then step 3: consume T
	// disjoint chunks.
	sh := data.ShrinkSource(src, opt.K)

	w := vecmath.Clone(opt.W0)
	grad := make([]float64, d)
	resid := make([]float64, data.MaxChunkRows(src.N(), opt.T))
	// Per-run workspaces: mat-vec kernel buffers, Peeling scratch, and
	// the ping-pong buffer the peeled iterate lands in — the loop
	// allocates nothing after the first iteration.
	var mw vecmath.MatWorkspace
	var ps peelScratch
	wNext := make([]float64, d)
	for t := 1; t <= opt.T; t++ {
		part, err := sh.Chunk(t-1, opt.T)
		if err != nil {
			return nil, fmt.Errorf("core: SparseLinReg chunk %d/%d: %w", t-1, opt.T, err)
		}
		m := part.N()
		// Step 5: w_{t+0.5} = w_t − (η₀/m)·Σ x̃(⟨x̃, w_t⟩ − ỹ),
		// via the register-blocked pair r = X̃w − ỹ, grad = X̃ᵀr.
		r := resid[:m]
		mw.MatVec(r, part.X, w, opt.Parallelism)
		for i := 0; i < m; i++ {
			r[i] -= part.Y[i]
		}
		mw.MatTVec(grad, part.X, r, opt.Parallelism)
		vecmath.Axpy(-opt.Eta0/float64(m), grad, w)
		// Step 6: Peeling with λ = 2K²η₀(√s+1)/m.
		lambda := 2 * opt.K * opt.K * opt.Eta0 * (math.Sqrt(float64(opt.S)) + 1) / float64(m)
		if err := checkPeeling("SparseLinReg", t, w, opt.S, opt.Eps, opt.Delta, lambda); err != nil {
			return nil, err
		}
		peeling(&ps, wNext, opt.Rng, w, opt.S, opt.Eps, opt.Delta, lambda, opt.Parallelism)
		w, wNext = wNext, w
		// Step 7: project onto the unit ℓ2 ball.
		vecmath.ProjectL2Ball(w, 1)
		if opt.Trace != nil {
			opt.Trace(t, w)
		}
	}
	return w, nil
}
