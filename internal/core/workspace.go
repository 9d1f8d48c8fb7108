package core

import (
	"reflect"
	"sync"

	"htdp/internal/data"
	"htdp/internal/dp"
	"htdp/internal/loss"
	"htdp/internal/parallel"
	"htdp/internal/polytope"
	"htdp/internal/randx"
	"htdp/internal/robust"
	"htdp/internal/vecmath"
)

// This file holds the per-run iteration workspaces that make the
// algorithms' steady-state loops allocation-free: the fused
// robust-gradient state (gradState), the vertex-selection state
// (vertexSelector), the clipped-gradient reduction of the baselines
// (gradSum), and the memoized vertex-norm bound (maxVertexL1). Every
// helper is created once per run, before the iteration loop, and owns
// its buffers and loop closures for the run's lifetime; none are safe
// for concurrent use. See DESIGN.md, "Performance".

// gradState computes the robust coordinate-wise gradient of one chunk
// per call. Losses that factorize through the margin (loss.MarginLoss)
// take the fused kernel: one register-blocked X·w product for the
// chunk's margins, one scalar pass for the per-sample gradient scales,
// then robust.EstimateChunk straight over the data rows. Other losses take
// the generic row-at-a-time path with a hoisted callback. Both paths
// are bit-identical to MeanEstimator.EstimateFuncWS over Loss.Grad rows.
type gradState struct {
	est robust.MeanEstimator
	l   loss.Loss
	ml  loss.MarginLoss
	ws  *robust.Workspace

	fused bool

	// Call state read by the hoisted generic callback.
	w      []float64
	cur    *data.Dataset
	gradFn func(i int, buf []float64)
}

func newGradState(est robust.MeanEstimator, l loss.Loss) *gradState {
	gs := &gradState{est: est, l: l, ws: robust.NewWorkspace()}
	gs.ml, gs.fused = loss.AsMargin(l)
	if !gs.fused {
		gs.gradFn = func(i int, buf []float64) {
			gs.l.Grad(buf, gs.w, gs.cur.X.Row(i), gs.cur.Y[i])
		}
	}
	return gs
}

// estimate writes the robust gradient estimate g̃(w, ck) into dst.
func (gs *gradState) estimate(dst, w []float64, ck *data.Dataset) {
	m := ck.N()
	if gs.fused {
		margins := gs.ws.Margins(m)
		gs.ws.Mat.MatVec(margins, ck.X, w, gs.est.Parallelism)
		scales := gs.ws.Scales(m)
		loss.ScalesFromMargins(gs.ml, scales, margins, ck.Y)
		gs.est.EstimateChunk(dst, ck.X, scales, gs.ml.RegCoeff(), w, gs.ws)
		return
	}
	gs.w, gs.cur = w, ck
	gs.est.EstimateFuncWS(dst, m, gs.ws, gs.gradFn)
	gs.w, gs.cur = nil, nil
}

// vertexSelector runs the exponential mechanism over a polytope's
// vertex set against the run's gradient buffer. For the ℓ1 ball it
// takes the one-pass dp.ExponentialL1Ball scorer; otherwise it keeps a
// single hoisted score closure for the run.
type vertexSelector struct {
	dom    polytope.Polytope
	grad   []float64 // the run's gradient buffer (stable slice)
	ball   polytope.L1Ball
	isBall bool
	score  func(int) float64
}

func newVertexSelector(dom polytope.Polytope, grad []float64) *vertexSelector {
	vs := &vertexSelector{dom: dom, grad: grad}
	if b, ok := dom.(polytope.L1Ball); ok {
		vs.ball, vs.isBall = b, true
	} else {
		vs.score = func(i int) float64 { return vs.dom.VertexScore(i, vs.grad) }
	}
	return vs
}

// pick samples a vertex index at the given score sensitivity and
// budget, bit-identical to dp.ExponentialLazy over Domain.VertexScore.
func (vs *vertexSelector) pick(r *randx.RNG, sens, eps float64) int {
	if vs.isBall {
		return dp.ExponentialL1Ball(r, vs.grad, vs.ball.Radius, sens, eps)
	}
	return dp.ExponentialLazy(r, vs.dom.NumVertices(), vs.score, sens, eps)
}

// gradSum is the reusable clipped-gradient reduction of the DP
// baselines: Σᵢ transform(∇ℓ(w, sampleᵢ)) over a chunk (for minibatch
// SGD, the gathered batch), with parallel.ReduceVec semantics, pooled
// shard partials and scratch rows, and a cached body closure.
type gradSum struct {
	l         loss.Loss
	transform func(buf []float64) // per-sample map (clipping); nil for none

	red      parallel.VecReducer
	bufsPool parallel.ShardBufs
	bufs     [][]float64

	w    []float64
	ck   *data.Dataset
	body func(shard, lo, hi int)
}

func newGradSum(l loss.Loss, transform func(buf []float64)) *gradSum {
	return &gradSum{l: l, transform: transform}
}

// run accumulates over the chunk's rows into dst, zeroing it first.
func (g *gradSum) run(dst, w []float64, ck *data.Dataset, workers int) {
	m := ck.N()
	if m <= 0 {
		vecmath.Zero(dst)
		return
	}
	k := parallel.NumShards(m)
	g.red.Setup(k, dst)
	g.bufs = g.bufsPool.Get(k, len(dst))
	g.w, g.ck = w, ck
	if g.body == nil {
		g.body = func(shard, lo, hi int) {
			l, w, ck := g.l, g.w, g.ck
			acc := g.red.Accs()[shard]
			if shard > 0 {
				vecmath.Zero(acc)
			}
			buf := g.bufs[shard]
			vecmath.Zero(buf)
			for i := lo; i < hi; i++ {
				l.Grad(buf, w, ck.X.Row(i), ck.Y[i])
				if g.transform != nil {
					g.transform(buf)
				}
				vecmath.Axpy(1, buf, acc)
			}
		}
	}
	parallel.For(workers, m, g.body)
	g.red.Merge(dst)
	g.w, g.ck = nil, nil
}

// vertexL1Cache memoizes maxVertexL1 for generic (vertex-enumerated)
// polytopes, keyed by the Polytope value itself: the scan is O(|V|·d)
// and polytopes are immutable for the lifetime of a run, so one scan
// per distinct polytope suffices for the whole process.
var vertexL1Cache sync.Map

// maxVertexL1 returns max_v ‖v‖₁ over the vertex set — the ‖W‖₁ factor
// in the score sensitivity |u(D,v) − u(D′,v)| ≤ ‖v‖₁·‖g̃−g̃′‖∞. The
// built-in domains are answered in O(1); other polytopes are scanned
// once into buf (len ≥ Dim; nil allocates) and memoized when their
// concrete type is comparable.
func maxVertexL1(p polytope.Polytope, buf []float64) float64 {
	switch q := p.(type) {
	case polytope.L1Ball:
		return q.Radius
	case polytope.Simplex:
		return 1
	}
	cacheable := reflect.TypeOf(p).Comparable()
	if cacheable {
		if v, ok := vertexL1Cache.Load(p); ok {
			return v.(float64)
		}
	}
	if len(buf) < p.Dim() {
		buf = make([]float64, p.Dim())
	}
	buf = buf[:p.Dim()]
	var m float64
	for i := 0; i < p.NumVertices(); i++ {
		if n := vecmath.Norm1(p.Vertex(i, buf)); n > m {
			m = n
		}
	}
	if cacheable {
		vertexL1Cache.Store(p, m)
	}
	return m
}
