package robust

import (
	"math"

	"htdp/internal/parallel"
	"htdp/internal/vecmath"
)

// This file is the fused robust-gradient kernel: the allocation-free,
// cache-blocked evaluation of the coordinate-wise estimator over a data
// chunk whose per-sample gradients factorize as c·xᵢ + reg·w (see
// loss.MarginLoss). The row-at-a-time path (EstimateFuncWS) re-derives
// the margin ⟨w, xᵢ⟩ from scratch inside every per-sample gradient and
// materializes each gradient row into a scratch buffer. The fused path
// computes all margins once (one register-blocked X·w product), reduces
// each gradient row to one scalar, and feeds x's rows straight through
// the truncation kernel, column-blocked so the accumulator block stays
// in cache while the rows stream.
//
// Everything here preserves the determinism contract bit for bit: the
// sample-shard structure, the shard-order merge, and the per-coordinate
// accumulation order over samples are exactly those of EstimateFuncWS
// (column-blocking only reorders *across* independent coordinates,
// never within one coordinate's chain), and termKernel reproduces
// Term's arithmetic with its constants hoisted. The old-vs-new suites
// in robust and core pin this.

// colBlock is the coordinate-block width of the fused traversal: the
// accumulator block (colBlock·8 bytes) stays resident in L1 while the
// chunk's rows stream through it. Like the shard constants it is fixed,
// so traversal order never depends on the machine.
const colBlock = 256

// termKernel caches the per-estimator constants of Term — 1/s is free
// (the division stays, for bit-identity), but s·√β costs a Sqrt per
// call in Term — and inlines SmoothedPhi's no-correction fast path so
// the common small-argument case runs without any erf/exp or function
// call. term(x) is bit-identical to MeanEstimator.Term(x).
type termKernel struct {
	s  float64 // truncation scale s
	sb float64 // s·√β: the denominator of the noise ratio b = |x|/(s·√β)
}

// kernel hoists the estimator's constants once per call site.
func (e MeanEstimator) kernel() termKernel {
	return termKernel{s: e.S, sb: e.S * math.Sqrt(e.Beta)}
}

// term evaluates one Catoni summand s·E[φ((x+ηx)/s)], bit-identical to
// MeanEstimator.Term: same a and b (sb carries the identical product
// s·√β), and the inlined branch replicates SmoothedPhi's fast-path
// conditions exactly — when they fail, the full SmoothedPhi re-derives
// the same slow-path value.
func (k termKernel) term(x float64) float64 {
	a := x / k.s
	b := math.Abs(x) / k.sb
	if !(math.Abs(a) > 1e4 || b > 1e4) && b > 0 {
		if vm := (math.Sqrt2 - a) / b; vm > 8 {
			if vp := (math.Sqrt2 + a) / b; vp > 8 {
				return k.s * (a*(1-b*b/2) - a*a*a/6)
			}
		}
	}
	return k.s * SmoothedPhi(a, b)
}

// Workspace holds every reusable buffer of the estimator's hot path:
// the margin and scale vectors of the fused kernel, the per-shard
// reduction partials and gradient scratch rows, and the cached loop
// closures (built once, reading operands through the workspace, so a
// steady-state iteration allocates nothing).
//
// Ownership rules: one workspace belongs to one algorithm run on one
// goroutine — workspaces are not safe for concurrent use, and buffers
// handed out (Margins, Scales) are valid until the next call that asks
// for them. The embedded Mat workspace serves the run's register-blocked
// dense kernels (margins via MatVec, the squared-loss X̃ᵀr products) under
// the same rules. The zero value is ready to use; NewWorkspace exists
// for symmetry and future pre-sizing.
type Workspace struct {
	// Mat serves the run's register-blocked dense kernels (X·w margins,
	// Xᵀr reductions) with the same reuse guarantees.
	Mat vecmath.MatWorkspace

	margins, scales []float64

	red      parallel.VecReducer // shard partials (accs[0] aliases dst)
	bufs     [][]float64         // per-shard gradient scratch rows (generic path)
	bufsPool parallel.ShardBufs

	// Fused-kernel call state, read by the cached chunkBody.
	kern      termKernel
	x         *vecmath.Mat
	sc, w     []float64
	reg       float64
	chunkBody func(shard, lo, hi int)

	// Generic-path call state, read by the cached funcBody.
	grad     func(i int, buf []float64)
	funcBody func(shard, lo, hi int)
}

// NewWorkspace returns an empty workspace; buffers grow on first use
// and are reused afterwards.
func NewWorkspace() *Workspace { return &Workspace{} }

// Margins returns the workspace's margin buffer resized to m.
func (ws *Workspace) Margins(m int) []float64 {
	ws.margins = growFloats(ws.margins, m)
	return ws.margins
}

// Scales returns the workspace's per-sample scale buffer resized to m.
func (ws *Workspace) Scales(m int) []float64 {
	ws.scales = growFloats(ws.scales, m)
	return ws.scales
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// shardBufs sizes one gradient scratch row per shard.
func (ws *Workspace) shardBufs(k, d int) {
	ws.bufs = ws.bufsPool.Get(k, d)
}

// EstimateChunk is the fused EstimateFuncWS for margin-factorized
// gradients: given per-sample scales c (so sample i's gradient is
// c[i]·xᵢ + reg·w, see loss.MarginLoss and loss.ScalesFromMargins), it
// returns the coordinate-wise robust estimate over the chunk's rows,
// bit-identical to EstimateFuncWS over the materialized gradient rows at
// every worker count, with zero allocations per call once ws is warm.
// dst (len x.Cols) is allocated when nil; w may be nil when reg is 0.
func (e MeanEstimator) EstimateChunk(dst []float64, x *vecmath.Mat, scales []float64, reg float64, w []float64, ws *Workspace) []float64 {
	m := x.Rows
	if m <= 0 {
		panic("robust: EstimateChunk needs at least one row")
	}
	if len(scales) != m {
		panic("robust: EstimateChunk scales length mismatch")
	}
	if dst == nil {
		dst = make([]float64, x.Cols)
	}
	if len(dst) != x.Cols {
		panic("robust: EstimateChunk dst length mismatch")
	}
	if reg != 0 && len(w) != x.Cols {
		panic("robust: EstimateChunk w length mismatch")
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	ws.accumulateChunk(e, dst, x, scales, reg, w)
	inv := 1 / float64(m)
	for j := range dst {
		dst[j] *= inv
	}
	return dst
}

// accumulateChunk runs the fused column-blocked reduction, leaving the
// unscaled sum Σᵢ Term(gradᵢⱼ) in dst.
func (ws *Workspace) accumulateChunk(e MeanEstimator, dst []float64, x *vecmath.Mat, scales []float64, reg float64, w []float64) {
	m := x.Rows
	ws.red.Setup(parallel.NumShards(m), dst)
	ws.kern, ws.x, ws.sc, ws.reg, ws.w = e.kernel(), x, scales, reg, w
	if ws.chunkBody == nil {
		ws.chunkBody = func(shard, lo, hi int) {
			kern, x, scales, reg, w := ws.kern, ws.x, ws.sc, ws.reg, ws.w
			acc := ws.red.Accs()[shard]
			if shard > 0 {
				vecmath.Zero(acc)
			}
			d := x.Cols
			for jb := 0; jb < d; jb += colBlock {
				je := jb + colBlock
				if je > d {
					je = d
				}
				ab := acc[jb:je]
				if reg == 0 {
					for i := lo; i < hi; i++ {
						c := scales[i]
						row := x.Row(i)[jb:je]
						for j, xj := range row {
							ab[j] += kern.term(c * xj)
						}
					}
				} else {
					wb := w[jb:je]
					for i := lo; i < hi; i++ {
						c := scales[i]
						row := x.Row(i)[jb:je]
						for j, xj := range row {
							v := c * xj
							v += reg * wb[j]
							ab[j] += kern.term(v)
						}
					}
				}
			}
		}
	}
	parallel.For(e.Parallelism, m, ws.chunkBody)
	ws.red.Merge(dst)
	ws.x, ws.sc, ws.w = nil, nil, nil
}

// EstimateFuncWS is EstimateVec without materializing sample rows:
// grad is called once per sample index with a zeroed scratch buffer to
// fill. Used on hot paths where per-sample gradients are cheap to
// recompute.
//
// The sample range is sharded across Parallelism workers, each with its
// own scratch buffer, so grad may run concurrently for different i and
// must not write shared state beyond buf. Per-shard partial sums merge
// in shard order; the shard structure depends only on n, so the output
// is bit-identical for every worker count. Per-shard partials and
// scratch rows come from ws and the loop closure is cached, so
// steady-state calls allocate nothing; a nil ws allocates a fresh
// workspace.
func (e MeanEstimator) EstimateFuncWS(dst []float64, n int, ws *Workspace, grad func(i int, buf []float64)) []float64 {
	if n <= 0 {
		panic("robust: EstimateFuncWS needs n > 0")
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	ws.accumulateFunc(e, dst, n, grad)
	inv := 1 / float64(n)
	for j := range dst {
		dst[j] *= inv
	}
	return dst
}

// accumulateFunc runs the generic row-at-a-time reduction, leaving the
// unscaled sum in dst.
func (ws *Workspace) accumulateFunc(e MeanEstimator, dst []float64, n int, grad func(i int, buf []float64)) {
	k := parallel.NumShards(n)
	ws.red.Setup(k, dst)
	ws.shardBufs(k, len(dst))
	ws.kern, ws.grad = e.kernel(), grad
	if ws.funcBody == nil {
		ws.funcBody = func(shard, lo, hi int) {
			kern, grad := ws.kern, ws.grad
			acc := ws.red.Accs()[shard]
			if shard > 0 {
				vecmath.Zero(acc)
			}
			buf := ws.bufs[shard]
			vecmath.Zero(buf) // grad receives a zeroed buffer
			for i := lo; i < hi; i++ {
				grad(i, buf)
				for j, x := range buf {
					acc[j] += kern.term(x)
				}
			}
		}
	}
	parallel.For(e.Parallelism, n, ws.funcBody)
	ws.red.Merge(dst)
	ws.grad = nil
}
