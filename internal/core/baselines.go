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

// NonprivateFW runs exact Frank–Wolfe for T iterations: the full
// empirical gradient — streamed over a MemSource one chunk at a time,
// the summation order of every Source-based run — and exact linear
// minimization over the vertex set. The experiments use it both as the
// ε→∞ reference and to compute the non-private optimum w* for
// excess-risk measurements (§6.2).
//
// A margin loss without a regularization term (squared, logistic)
// carries the margins X·w across iterations (fwMargins), so an
// iteration reads the data once: per chunk, the gradient scales
// cᵢ = GradScale(zᵢ, yᵢ) and one register-blocked Xᵀc product. Every
// other loss takes loss.FullGradientSourceWS's per-sample path.
func NonprivateFW(ds *data.Dataset, l loss.Loss, p polytope.Polytope, T int, w0 []float64) []float64 {
	src := data.NewMemSource(ds)
	n, d := src.N(), src.D()
	w := make([]float64, d)
	if w0 != nil {
		copy(w, w0)
	}
	grad := make([]float64, d)
	vtx := make([]float64, d)
	var gws loss.GradWorkspace
	gradient := func() error {
		_, err := loss.FullGradientSourceWS(l, grad, w, src, 0, &gws)
		return err
	}
	var margins *fwMargins
	if ml, ok := loss.AsMargin(l); ok && ml.RegCoeff() == 0 && n > 0 {
		margins = newFWMargins(n, d, math.Inf(1), true, false)
		C := data.StreamChunks(n)
		scales := make([]float64, data.MaxChunkRows(n, C))
		part := make([]float64, d)
		var mw vecmath.MatWorkspace
		chunkBody := func(c int, ck *data.Dataset) error {
			rows, z := margins.chunk(c, ck, w, &mw, 0)
			mw.MatTVecRows(part, rows, loss.ScalesFromMargins(ml, scales[:len(z)], z, ck.Y), 0)
			vecmath.Axpy(1, part, grad)
			return nil
		}
		gradient = func() error {
			vecmath.Zero(grad)
			err := data.EachChunk(src, C, chunkBody)
			vecmath.Scale(grad, 1/float64(n))
			return err
		}
	}
	for t := 1; t <= T; t++ {
		if err := gradient(); err != nil {
			panic(err) // unreachable: MemSource chunks cannot fail
		}
		p.Vertex(polytope.ArgminLinear(p, grad), vtx)
		eta := 2 / float64(t+2)
		vecmath.Lerp(w, w, vtx, eta)
		if margins != nil {
			margins.step(eta, vtx)
		}
	}
	return w
}

// NonprivateIHT runs plain iterative hard thresholding on the squared
// loss: full-gradient steps — accumulated over a MemSource chunk by
// chunk as r = Xw − y, grad += Xᵀr — followed by exact top-s
// truncation and projection onto the unit ℓ2 ball. The ε→∞ reference
// for Algorithm 3.
func NonprivateIHT(ds *data.Dataset, s, T int, eta float64) []float64 {
	src := data.NewMemSource(ds)
	n, d := src.N(), src.D()
	C := data.StreamChunks(n)
	w := make([]float64, d)
	grad := make([]float64, d)
	part := make([]float64, d)
	resid := make([]float64, data.MaxChunkRows(n, C))
	var mw vecmath.MatWorkspace
	chunkBody := func(_ int, ck *data.Dataset) error {
		m := ck.N()
		r := resid[:m]
		mw.MatVec(r, ck.X, w, 0)
		for i := 0; i < m; i++ {
			r[i] -= ck.Y[i]
		}
		mw.MatTVec(part, ck.X, r, 0)
		vecmath.Axpy(1, part, grad)
		return nil
	}
	for t := 1; t <= T; t++ {
		vecmath.Zero(grad)
		if err := data.EachChunk(src, C, chunkBody); err != nil {
			panic(err) // unreachable: MemSource chunks cannot fail
		}
		vecmath.Axpy(-eta/float64(n), grad, w)
		w = vecmath.HardThreshold(w, s)
		vecmath.ProjectL2Ball(w, 1)
	}
	return w
}

// TalwarFWOptions configures the regular-data DP Frank–Wolfe baseline of
// Talwar, Thakurta and Zhang [50]: it assumes an ℓ1-Lipschitz loss, so
// on heavy-tailed data we enforce the assumption by clipping every
// per-sample gradient coordinate at GradBound — exactly the naive
// truncation strategy whose bias the paper's estimator avoids.
type TalwarFWOptions struct {
	Loss      loss.Loss
	Domain    polytope.Polytope
	Eps       float64
	Delta     float64
	T         int     // 0 → ⌈(nε)^{2/3}⌉ (their theory-optimal order) clamped to [1, n]; values below 1 → 1
	GradBound float64 // ℓ∞ clip per sample gradient; 0 → 1
	W0        []float64
	// Parallelism is the worker count for the clipped-gradient sum
	// (0 → GOMAXPROCS, 1 → sequential); bit-identical at every setting.
	Parallelism int
	Rng         *randx.RNG
}

// TalwarDPFWSource runs the [50]-style DP-FW baseline over a data
// source. Each iteration scores vertices against the clipped full-data
// gradient, accumulated one chunk at a time; the score sensitivity is
// ‖W‖₁·2·GradBound/n and the per-iteration budget comes from advanced
// composition, so the run is (ε, δ)-DP.
func TalwarDPFWSource(src data.Source, opt TalwarFWOptions) ([]float64, error) {
	if opt.Loss == nil || opt.Domain == nil || opt.Rng == nil {
		return nil, errors.New("core: TalwarFWOptions needs Loss, Domain and Rng")
	}
	if err := (dp.Params{Eps: opt.Eps, Delta: opt.Delta}).Validate(); err != nil {
		return nil, err
	}
	if opt.Delta == 0 {
		return nil, errors.New("core: TalwarDPFW needs δ > 0")
	}
	n, d := src.N(), src.D()
	if err := checkData(n, d, opt.Domain, opt.W0); err != nil {
		return nil, err
	}
	if opt.T == 0 {
		opt.T = defaultT(math.Ceil(math.Pow(float64(n)*opt.Eps, 2.0/3)), n)
	}
	if opt.T < 1 {
		opt.T = 1
	}
	if opt.GradBound == 0 {
		opt.GradBound = 1
	}
	C := data.StreamChunks(n)
	epsIter := opt.Eps / (2 * math.Sqrt(2*float64(opt.T)*math.Log(1/opt.Delta)))

	w := make([]float64, d)
	if opt.W0 != nil {
		copy(w, opt.W0)
	}
	grad := make([]float64, d)
	part := make([]float64, d)
	vtx := make([]float64, d)
	sens := maxVertexL1(opt.Domain, vtx) * 2 * opt.GradBound / float64(n)
	sel := newVertexSelector(opt.Domain, grad)
	gsum := newGradSum(opt.Loss, func(buf []float64) { vecmath.Clip(buf, opt.GradBound) })
	chunkBody := func(_ int, ck *data.Dataset) error {
		gsum.run(part, w, ck, opt.Parallelism)
		vecmath.Axpy(1, part, grad)
		return nil
	}
	for t := 1; t <= opt.T; t++ {
		vecmath.Zero(grad)
		if err := data.EachChunk(src, C, chunkBody); err != nil {
			return nil, fmt.Errorf("core: TalwarDPFW: %w", err)
		}
		vecmath.Scale(grad, 1/float64(n))
		idx := sel.pick(opt.Rng, sens, epsIter)
		opt.Domain.Vertex(idx, vtx)
		vecmath.Lerp(w, w, vtx, 2/float64(t+2))
	}
	return w, nil
}

// DPGDOptions configures the clipping-based DP gradient descent baseline
// in the style of Abadi et al. [1]: per-sample ℓ2 clipping at Clip,
// Gaussian noise calibrated by advanced composition, and projection onto
// the domain after every step.
type DPGDOptions struct {
	Loss    loss.Loss
	Project func(w []float64) []float64 // feasibility map (nil → identity)
	Eps     float64
	Delta   float64
	T       int     // 0 → 50
	Clip    float64 // ℓ2 clip bound C; 0 → 1
	LR      float64 // step size; 0 → 0.1
	// Parallelism is the worker count for the clipped-gradient sum
	// (0 → GOMAXPROCS, 1 → sequential); bit-identical at every setting.
	Parallelism int
	Rng         *randx.RNG
}

// DPGDSource runs noisy projected gradient descent over a data source,
// streaming the full data each step one chunk at a time. Replacing a
// sample moves the clipped mean gradient by at most 2C/n in ℓ2, so
// with per-step budget from advanced composition the run is (ε, δ)-DP.
func DPGDSource(src data.Source, opt DPGDOptions) ([]float64, error) {
	if opt.Loss == nil || opt.Rng == nil {
		return nil, errors.New("core: DPGDOptions needs Loss and Rng")
	}
	if err := (dp.Params{Eps: opt.Eps, Delta: opt.Delta}).Validate(); err != nil {
		return nil, err
	}
	if opt.Delta == 0 {
		return nil, errors.New("core: DPGD needs δ > 0")
	}
	if opt.T == 0 {
		opt.T = 50
	}
	if opt.Clip == 0 {
		opt.Clip = 1
	}
	if opt.LR == 0 {
		opt.LR = 0.1
	}
	n, d := src.N(), src.D()
	if err := checkData(n, d, nil, nil); err != nil {
		return nil, err
	}
	C := data.StreamChunks(n)
	perIter, err := dp.AdvancedComposition(dp.Params{Eps: opt.Eps, Delta: opt.Delta}, opt.T)
	if err != nil {
		return nil, fmt.Errorf("core: DPGD composition: %w", err)
	}
	sigma := dp.GaussianSigma(2*opt.Clip/float64(n), perIter)

	w := make([]float64, d)
	grad := make([]float64, d)
	part := make([]float64, d)
	gsum := newGradSum(opt.Loss, func(buf []float64) { vecmath.ClipL2(buf, opt.Clip) })
	chunkBody := func(_ int, ck *data.Dataset) error {
		gsum.run(part, w, ck, opt.Parallelism)
		vecmath.Axpy(1, part, grad)
		return nil
	}
	for t := 1; t <= opt.T; t++ {
		vecmath.Zero(grad)
		if err := data.EachChunk(src, C, chunkBody); err != nil {
			return nil, fmt.Errorf("core: DPGD: %w", err)
		}
		vecmath.Scale(grad, 1/float64(n))
		for j := range grad {
			grad[j] += sigma * opt.Rng.Normal()
		}
		vecmath.Axpy(-opt.LR, grad, w)
		if opt.Project != nil {
			opt.Project(w)
		}
	}
	return w, nil
}

// Accountant names for DPSGDOptions.Accountant.
const (
	// AccountantCompose calibrates DPSGD noise by the classical
	// subsampling amplification lemma composed with advanced
	// composition — the default.
	AccountantCompose = "compose"
	// AccountantRDP calibrates DPSGD noise by subsampled-Gaussian RDP
	// accounting (dp.SampledGaussianRDP): typically severalfold less
	// noise than AccountantCompose at small sampling rates, but more
	// in a corner of few steps at a tiny rate (q ≤ 0.01 with T ≤ 5 on
	// dp.SubsampledGaussianSigma's measured grid; up to 2.5× there).
	AccountantRDP = "rdp"
)

// DPSGDOptions configures true minibatch DP-SGD in the style of Abadi
// et al. [1]: each step samples a batch uniformly, clips per-sample
// gradients in ℓ2, and adds Gaussian noise. The noise level comes from
// the selected Accountant applied to the subsampling-amplified
// per-step guarantee, so small batches buy smaller noise.
type DPSGDOptions struct {
	Loss    loss.Loss
	Project func(w []float64) []float64
	Eps     float64
	Delta   float64
	T       int     // steps; 0 → 200
	Batch   int     // batch size; 0 → max(1, n/50)
	Clip    float64 // per-sample ℓ2 clip; 0 → 1
	LR      float64 // 0 → 0.1
	// Accountant selects the noise calibration: AccountantCompose (the
	// default, also chosen by "") inverts the amplification lemma
	// against an advanced-composition per-step budget; AccountantRDP
	// runs subsampled-Gaussian RDP accounting. Anything else is an
	// error. The accountant only changes σ — the subsampling and noise
	// draw order is identical, so runs with the same accountant are
	// bit-identical across backends and worker counts.
	Accountant string
	// Parallelism is the worker count for the clipped batch-gradient
	// sum (0 → GOMAXPROCS, 1 → sequential). Batch indices are drawn
	// sequentially before the fan-out, so results are bit-identical at
	// every setting.
	Parallelism int
	Rng         *randx.RNG
}

// dpsgdResolve validates opt, applies the documented defaults in
// place, and returns the calibrated per-coordinate noise level σ for a
// dataset of n rows.
func dpsgdResolve(opt *DPSGDOptions, n int) (float64, error) {
	if opt.Loss == nil || opt.Rng == nil {
		return 0, errors.New("core: DPSGDOptions needs Loss and Rng")
	}
	if err := (dp.Params{Eps: opt.Eps, Delta: opt.Delta}).Validate(); err != nil {
		return 0, err
	}
	if opt.Delta == 0 {
		return 0, errors.New("core: DPSGD needs δ > 0")
	}
	if opt.T == 0 {
		opt.T = 200
	}
	if opt.Batch == 0 {
		opt.Batch = n / 50
	}
	if opt.Batch < 1 {
		opt.Batch = 1
	}
	if opt.Batch > n {
		opt.Batch = n
	}
	if opt.Clip == 0 {
		opt.Clip = 1
	}
	if opt.LR == 0 {
		opt.LR = 0.1
	}
	switch opt.Accountant {
	case "", AccountantCompose, AccountantRDP:
	default:
		return 0, fmt.Errorf("core: unknown DPSGD accountant %q (have compose, rdp)", opt.Accountant)
	}
	q := float64(opt.Batch) / float64(n)
	// Gaussian mechanism on the batch-mean gradient: replacing one
	// sample moves it by ≤ 2C/b. A sensitivity that rounds to 0 would
	// release the clipped gradients without noise, and one that
	// overflows calibrates no noise level; both are refused.
	sens := 2 * opt.Clip / float64(opt.Batch)
	if !(sens > 0) || math.IsInf(sens, 1) {
		return 0, fmt.Errorf("core: DPSGD: clip=%g cannot be calibrated (the sensitivity 2·clip/batch is %g at batch=%d)", opt.Clip, sens, opt.Batch)
	}
	// Per-step amplified target from advanced composition: the compose
	// accountant's budget, and the rdp search's starting bracket.
	perStep, err := dp.AdvancedComposition(dp.Params{Eps: opt.Eps, Delta: opt.Delta}, opt.T)
	if err != nil {
		return 0, fmt.Errorf("core: DPSGD composition: %w", err)
	}
	// Invert amplification: find the largest ε₀ with
	// log(1+q(e^{ε₀}−1)) ≤ perStep.Eps and q·δ₀ ≤ perStep.Delta.
	eps0 := math.Log1p((math.Exp(perStep.Eps) - 1) / q)
	delta0 := perStep.Delta / q
	if delta0 >= 1 {
		delta0 = perStep.Delta // degenerate q; stay conservative
	}
	if eps0 == 0 {
		// e^{ε′} rounds to 1 for the per-step ε′: no finite σ meets it.
		return 0, fmt.Errorf("core: DPSGD: ε=%g cannot be calibrated (the per-step budget underflows to 0 at δ=%g, T=%d)", opt.Eps, opt.Delta, opt.T)
	}
	if opt.Accountant == AccountantRDP {
		if math.IsInf(eps0, 1) {
			// The compose σ is 0, which leaves the rdp search no
			// bracket to start from.
			return 0, fmt.Errorf("core: DPSGD: ε=%g cannot be calibrated (the per-step budget overflows at δ=%g, T=%d)", opt.Eps, opt.Delta, opt.T)
		}
		sigma := dp.SubsampledGaussianSigma(sens, q, dp.Params{Eps: opt.Eps, Delta: opt.Delta}, opt.T)
		if math.IsInf(sigma, 1) {
			return 0, fmt.Errorf("core: DPSGD: ε=%g cannot be calibrated (the rdp accountant certifies no noise level at δ=%g, q=%g, T=%d)", opt.Eps, opt.Delta, q, opt.T)
		}
		return sigma, nil
	}
	if delta0 == 0 {
		return 0, fmt.Errorf("core: DPSGD: δ=%g cannot be calibrated (the per-step δ underflows to 0 at T=%d)", opt.Delta, opt.T)
	}
	sigma := dp.GaussianSigma(sens, dp.Params{Eps: eps0, Delta: delta0})
	if math.IsInf(sigma, 1) {
		return 0, fmt.Errorf("core: DPSGD: ε=%g cannot be calibrated (the noise level overflows at δ=%g, clip=%g, T=%d)", opt.Eps, opt.Delta, opt.Clip, opt.T)
	}
	return sigma, nil
}

// DPSGDSource runs minibatch noisy SGD over any data source. Privacy:
// one step on a uniform batch of size b is (ε₀, δ₀)-DP with ε₀
// amplified by q = b/n; the Accountant chooses the noise level so that
// T steps compose to (ε, δ).
//
// Every step draws its Batch row indices sequentially from the single
// Rng stream, gathering each row through Source.RowAt into a reusable
// scratch dataset; the sharded clipped-gradient sum reduces the batch,
// and the d noise coordinates are then drawn from the same stream. The
// Rng consumption per step — Batch Intn draws followed by d Normal
// draws — is therefore a pure function of the options, never of the
// backend, Parallelism, or scheduling, which is what makes runs
// bit-identical everywhere. Peak residency beyond the source's own
// cache is one batch (Batch·d floats).
func DPSGDSource(src data.Source, opt DPSGDOptions) ([]float64, error) {
	n, d := src.N(), src.D()
	if err := checkData(n, d, nil, nil); err != nil {
		return nil, err
	}
	sigma, err := dpsgdResolve(&opt, n)
	if err != nil {
		return nil, err
	}
	gx := &vecmath.Mat{Rows: opt.Batch, Cols: d, Data: make([]float64, opt.Batch*d)}
	gy := make([]float64, opt.Batch)
	gathered := &data.Dataset{X: gx, Y: gy}
	rowBuf := make([]float64, d)
	gsum := newGradSum(opt.Loss, func(buf []float64) { vecmath.ClipL2(buf, opt.Clip) })
	w := make([]float64, d)
	grad := make([]float64, d)
	for t := 1; t <= opt.T; t++ {
		for b := 0; b < opt.Batch; b++ {
			x, y, err := src.RowAt(opt.Rng.Intn(n), rowBuf)
			if err != nil {
				return nil, fmt.Errorf("core: DPSGD step %d: %w", t, err)
			}
			copy(gx.Row(b), x)
			gy[b] = y
		}
		gsum.run(grad, w, gathered, opt.Parallelism)
		vecmath.Scale(grad, 1/float64(opt.Batch))
		for j := range grad {
			grad[j] += sigma * opt.Rng.Normal()
		}
		vecmath.Axpy(-opt.LR, grad, w)
		if opt.Project != nil {
			opt.Project(w)
		}
	}
	return w, nil
}

// RobustGaussianGDOptions configures the low-dimensional baseline in the
// style of Wang, Xiao, Devadas and Xu [57]: the same Catoni robust
// coordinate gradient as Algorithm 1, but privatized by adding Gaussian
// noise to the whole d-dimensional vector instead of selecting through
// the exponential mechanism — which is why its error scales
// polynomially in d (Remark 1) and it loses in high dimension.
type RobustGaussianGDOptions struct {
	Loss    loss.Loss
	Project func(w []float64) []float64
	Eps     float64
	Delta   float64
	T       int     // 0 → 20
	S       float64 // robust truncation scale; 0 → √n (the [57] choice)
	Beta    float64 // 0 → 1
	LR      float64 // 0 → 0.1
	// Parallelism is the worker count for the robust-gradient hot path
	// (0 → GOMAXPROCS, 1 → sequential); bit-identical at every setting.
	Parallelism int
	Rng         *randx.RNG
}

// RobustGaussianGDSource runs the [57]-style baseline over a data
// source; iteration t loads only chunk t−1 of T. The robust estimate
// of one chunk has ℓ2-sensitivity √d·4√2·s/(3m); Gaussian noise at the
// per-iteration budget (disjoint chunks, so no composition) gives
// (ε, δ)-DP.
func RobustGaussianGDSource(src data.Source, opt RobustGaussianGDOptions) ([]float64, error) {
	if opt.Loss == nil || opt.Rng == nil {
		return nil, errors.New("core: RobustGaussianGDOptions needs Loss and Rng")
	}
	if err := (dp.Params{Eps: opt.Eps, Delta: opt.Delta}).Validate(); err != nil {
		return nil, err
	}
	if opt.Delta == 0 {
		return nil, errors.New("core: RobustGaussianGD needs δ > 0")
	}
	if opt.T == 0 {
		opt.T = 20
	}
	n, d := src.N(), src.D()
	if err := checkData(n, d, nil, nil); err != nil {
		return nil, err
	}
	if opt.T > n {
		opt.T = n
	}
	if opt.S == 0 {
		opt.S = math.Sqrt(float64(n))
	}
	if opt.Beta == 0 {
		opt.Beta = 1
	}
	if opt.LR == 0 {
		opt.LR = 0.1
	}
	est := robust.MeanEstimator{S: opt.S, Beta: opt.Beta, Parallelism: opt.Parallelism}

	w := make([]float64, d)
	grad := make([]float64, d)
	gs := newGradState(est, opt.Loss)
	for t := 1; t <= opt.T; t++ {
		part, err := src.Chunk(t-1, opt.T)
		if err != nil {
			return nil, fmt.Errorf("core: RobustGaussianGD chunk %d/%d: %w", t-1, opt.T, err)
		}
		gs.estimate(grad, w, part)
		l2sens := math.Sqrt(float64(d)) * est.Sensitivity(part.N())
		dp.GaussianMechanism(opt.Rng, grad, l2sens, dp.Params{Eps: opt.Eps, Delta: opt.Delta})
		vecmath.Axpy(-opt.LR, grad, w)
		if opt.Project != nil {
			opt.Project(w)
		}
	}
	return w, nil
}
