package core

import (
	"errors"
	"fmt"
	"math"

	"htdp/internal/data"
	"htdp/internal/dp"
	"htdp/internal/polytope"
	"htdp/internal/randx"
	"htdp/internal/vecmath"
)

// LassoOptions configures Heavy-tailed Private LASSO (Algorithm 2):
// entry-wise data shrinkage at K followed by DP Frank–Wolfe on the
// shrunken data with advanced composition — (ε, δ)-DP under the
// fourth-moment Assumption 3.
type LassoOptions struct {
	Domain polytope.L1Ball // W: the ℓ1 ball (LASSO constraint)
	Eps    float64
	Delta  float64

	// T is the iteration count (0 → the Theorem-5 default ⌈(nε)^{2/5}⌉,
	// clamped to [1, 10·(nε)^{2/5}] for sanity).
	T int
	// K is the shrinkage threshold (0 → the Theorem-5 default
	// (nε)^{1/4} / T^{1/8}).
	K float64
	// W0 is the initial iterate (nil → zero vector).
	W0 []float64
	// Parallelism is the worker count for the sharded gradient kernels
	// (0 → GOMAXPROCS, 1 → sequential); bit-identical at every setting.
	Parallelism int

	Rng   *randx.RNG
	Trace Trace
}

func (o *LassoOptions) fill(n, d int) error {
	if o.Rng == nil {
		return errors.New("core: LassoOptions needs Rng")
	}
	if err := (dp.Params{Eps: o.Eps, Delta: o.Delta}).Validate(); err != nil {
		return err
	}
	if o.Delta == 0 {
		return errors.New("core: Algorithm 2 is (ε,δ)-DP and needs δ > 0")
	}
	if o.Domain.Dims == 0 {
		o.Domain = polytope.NewL1Ball(d, 1)
	}
	if err := checkData(n, d, o.Domain, o.W0); err != nil {
		return err
	}
	ne := float64(n) * o.Eps
	if o.T == 0 {
		o.T = int(math.Ceil(math.Pow(ne, 0.4)))
	}
	if o.T < 1 {
		o.T = 1
	}
	if o.K == 0 {
		o.K = math.Pow(ne, 0.25) / math.Pow(float64(o.T), 0.125)
	}
	if !(o.K > 0) {
		return fmt.Errorf("core: invalid shrinkage threshold K=%v", o.K)
	}
	if o.W0 == nil {
		o.W0 = make([]float64, d)
	}
	if !o.Domain.Contains(o.W0, 1e-9) {
		return errors.New("core: W0 outside the domain")
	}
	return nil
}

// LassoSource runs Heavy-tailed Private LASSO (Algorithm 2) over a
// data source and returns w_T. The algorithm needs the full shrunken
// data every iteration, so each round streams the source in
// data.StreamChunks(n) chunks — shrinkage is applied per chunk on load
// (entry-wise, so chunked equals whole-matrix shrinkage bit for bit)
// and at most one chunk is resident. Privacy (Theorem 4): each
// iteration's exponential mechanism runs at budget
// ε/(2√(2T·log(1/δ))) on the full shrunken data, whose score
// sensitivity is 8‖W‖₁K²/n; advanced composition over T rounds yields
// (ε, δ)-DP.
func LassoSource(src data.Source, opt LassoOptions) ([]float64, error) {
	if err := opt.fill(src.N(), src.D()); err != nil {
		return nil, err
	}
	n, d := src.N(), src.D()
	// Step 2: entry-wise shrinkage of features and labels at K, applied
	// lazily to every chunk.
	sh := data.ShrinkSource(src, opt.K)
	C := data.StreamChunks(n)
	epsIter := opt.Eps / (2 * math.Sqrt(2*float64(opt.T)*math.Log(1/opt.Delta)))
	if !(epsIter > 0) {
		return nil, fmt.Errorf("core: Lasso: ε=%g cannot be calibrated (the per-iteration ε underflows to 0 at δ=%g, T=%d)", opt.Eps, opt.Delta, opt.T)
	}
	sens := 8 * maxVertexL1(opt.Domain, nil) * opt.K * opt.K / float64(n)

	w := vecmath.Clone(opt.W0)
	grad := make([]float64, d)
	part := make([]float64, d)
	resid := make([]float64, data.MaxChunkRows(n, C))
	vtx := make([]float64, d)
	// Step 4's chunk body is hoisted with the run's MatWorkspace, so the
	// T-iteration loop reuses one set of kernel buffers and closures.
	var mw vecmath.MatWorkspace
	chunkBody := func(_ int, ck *data.Dataset) error {
		m := ck.N()
		r := resid[:m]
		mw.MatVec(r, ck.X, w, opt.Parallelism)
		for i := 0; i < m; i++ {
			r[i] -= ck.Y[i]
		}
		mw.MatTVec(part, ck.X, r, opt.Parallelism)
		vecmath.Axpy(1, part, grad)
		return nil
	}
	for t := 1; t <= opt.T; t++ {
		// Step 4: g̃(w, D̃) = (2/n)·Σ x̃ᵢ(⟨x̃ᵢ, w⟩ − ỹᵢ), the exact
		// empirical gradient of the squared loss on the shrunken data,
		// accumulated chunk by chunk as the register-blocked pair
		// r = X̃w − ỹ, g̃ += X̃ᵀr. Chunk order and the per-chunk shard
		// structure are functions of n alone, so the gradient is
		// bit-identical for every worker count and every backend.
		vecmath.Zero(grad)
		if err := data.EachChunk(sh, C, chunkBody); err != nil {
			return nil, fmt.Errorf("core: Lasso: %w", err)
		}
		vecmath.Scale(grad, 2/float64(n))
		idx := dp.ExponentialL1Ball(opt.Rng, grad, opt.Domain.Radius, sens, epsIter)
		opt.Domain.Vertex(idx, vtx)
		// Step 5: convex update with η_{t−1} = 2/(t+2).
		vecmath.Lerp(w, w, vtx, 2/float64(t+2))
		if opt.Trace != nil {
			opt.Trace(t, w)
		}
	}
	return w, nil
}
