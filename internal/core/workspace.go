package core

import (
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
// robust-gradient state (gradState), the shrunken-row view of
// Algorithms 2 and 3 (shrunkRows), the Frank–Wolfe margins carried
// across iterations (fwMargins), the vertex-selection state
// (vertexSelector), the clipped-gradient reduction of the baselines
// (gradSum), and the vertex-norm bound (maxVertexL1). Every
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

// shrunkRows is a run's view of step 2 of Algorithms 2 and 3, the
// entry-wise shrinkage x̃ᵢⱼ = sign(xᵢⱼ)·min(|xᵢⱼ|, K), ỹᵢ likewise,
// without a shrunken copy of the data. For each chunk it hands the
// kernels one slice per row: a row with no entry beyond ±K is read from
// the chunk itself, and a dirty row (one with such an entry) from its
// shrunken copy. The labels are clamped into y. Every view row holds
// the floats of the shrunken row, so the kernels compute bit for bit
// what they compute over Dataset.Shrink; K = +Inf leaves every row
// clean.
//
// A resident view serves a source whose chunks are views of one
// in-memory set (a bare MemSource). It builds each chunk's rows, ỹ and
// dirty-row copies on the chunk's first visit, into slices over all n
// rows, and hands the same slices back on every later visit; its copies
// are of the dirty rows only, so never more than Dataset.Shrink's n×d.
// Any other view holds one chunk: each visit rebuilds the rows and ỹ
// and re-shrinks the chunk's dirty rows into slab, one chunk of rows
// made up front, so its visits allocate nothing.
type shrunkRows struct {
	k        float64
	d, n, C  int // features, rows, and chunks a pass: chunk c starts at row c·n/C
	resident bool

	rows  [][]float64 // the rows' slices: all n when resident, else the visited chunk's
	y     []float64   // ỹ, likewise
	slab  []float64   // a non-resident view's copies of the visited chunk's dirty rows
	built int         // a resident view's chunks built so far, first visited in order
	dirty []int       // a resident view's scratch: the building chunk's dirty rows
}

func newShrunkRows(k float64, d, n, C int, resident bool) *shrunkRows {
	v := &shrunkRows{k: k, d: d, n: n, C: C, resident: resident}
	rows := n
	if !resident {
		rows = data.MaxChunkRows(n, C)
		v.slab = make([]float64, rows*d)
	}
	v.rows, v.y = make([][]float64, rows), make([]float64, rows)
	return v
}

// load points the view at chunk c (ck) and returns its rows and ỹ:
// valid for the run when the view is resident, else until the next
// load.
func (v *shrunkRows) load(c int, ck *data.Dataset) ([][]float64, []float64) {
	m, d, lo := ck.N(), v.d, 0
	if v.resident {
		lo, _ = data.ChunkBounds(c, v.C, v.n)
	}
	rows, y := v.rows[lo:lo+m], v.y[lo:lo+m]
	if v.resident && c < v.built {
		return rows, y
	}
	for i := range rows {
		rows[i] = ck.X.Data[i*d : (i+1)*d]
	}
	copy(y, ck.Y)
	vecmath.Clip(y, v.k)
	if !v.resident {
		p := 0
		for i, r := range rows {
			if v.isDirty(r) {
				rows[i] = v.shrink(v.slab[p*d:(p+1)*d], r)
				p++
			}
		}
		return rows, y
	}
	v.dirty = v.dirty[:0]
	for i, r := range rows {
		if v.isDirty(r) {
			v.dirty = append(v.dirty, i)
		}
	}
	copies := make([]float64, len(v.dirty)*d)
	for j, i := range v.dirty {
		rows[i] = v.shrink(copies[j*d:(j+1)*d], rows[i])
	}
	v.built++
	return rows, y
}

// done drops a non-resident view's slices into the visited chunk once
// the caller is through with them, so the view keeps no chunk alive
// past its visit (a generating source makes a new one per call).
func (v *shrunkRows) done() {
	if !v.resident {
		clear(v.rows)
	}
}

// isDirty reports whether row r has an entry beyond ±K.
func (v *shrunkRows) isDirty(r []float64) bool {
	k := v.k
	for _, x := range r {
		if x > k || x < -k {
			return true
		}
	}
	return false
}

// shrink writes the shrunken row r into dst and returns dst: Clip's
// clamp, fused with the copy.
func (v *shrunkRows) shrink(dst, r []float64) []float64 {
	k := v.k
	dst = dst[:len(r)]
	for j, x := range r {
		if x > k {
			x = k
		} else if x < -k {
			x = -k
		}
		dst[j] = x
	}
	return dst
}

// fwMargins carries u = X̃·w − b across the iterations of a full-data
// Frank–Wolfe loop whose gradient reads the data only through u, over
// the rows of a shrunkRows view at K: b = ỹ for Algorithm 2's residual,
// b = 0 for NonprivateFW's margins (K = +Inf, so X̃ = X). A step
// w ← (1−η)·w + η·v moves u to (1−η)·u + η·(X̃·v − b), and X̃·v reads
// only v's nonzero coordinates — one column for a vertex of the ℓ1
// ball or the simplex. So after the first iteration, a pass brings
// each chunk's rows of u up to date from that chunk's column and runs
// only the X̃ᵀ product on it: one read of the data per iteration
// instead of a MatVec and a MatTVec. The first pass computes u with
// MatVecRows, or as −b without a product when w = 0.
//
// The carried u differs from a recomputed X̃·w − b by rounding only.
// The iterate never reads u, so w is bit-identical to the two-pass
// loop's whenever the vertex choices are; a choice can differ only on
// a near-tie at that rounding level. u holds all n rows (8n bytes).
type fwMargins struct {
	u      []float64
	n, C   int  // rows and data.StreamChunks(n): chunk c starts at row c·n/C
	labels bool // b = ỹ (else b = 0)
	primed bool // u holds X̃·w − b for the iterate before the pending step
	view   *shrunkRows

	// The pending step, applied chunk by chunk on the next pass: η and
	// v's nonzero coordinates with their values.
	eta  float64
	cols []int
	vals []float64
}

// newFWMargins carries u over n rows of d features, read through a
// view at K, resident or not.
func newFWMargins(n, d int, k float64, resident, labels bool) *fwMargins {
	C := data.StreamChunks(n)
	return &fwMargins{u: make([]float64, n), n: n, C: C, labels: labels, view: newShrunkRows(k, d, n, C, resident)}
}

// chunk loads chunk c of the pass (ck) into the view and returns the
// view's rows with u's rows for the chunk, brought up to the current
// iterate w. Every chunk of every pass must be visited once, in chunk
// order (data.EachChunk's), between two steps; the caller calls
// view.done once through with the rows.
func (fm *fwMargins) chunk(c int, ck *data.Dataset, w []float64, mw *vecmath.MatWorkspace, workers int) ([][]float64, []float64) {
	rows, y := fm.view.load(c, ck)
	lo, hi := data.ChunkBounds(c, fm.C, fm.n)
	u := fm.u[lo:hi]
	if !fm.primed {
		if vecmath.Norm0(w) == 0 {
			vecmath.Zero(u) // X̃·0, without reading X̃
		} else {
			mw.MatVecRows(u, rows, w, workers)
		}
		if fm.labels {
			for i := range u {
				u[i] -= y[i]
			}
		}
		return rows, u
	}
	a, eta := 1-fm.eta, fm.eta
	for i, row := range rows {
		var xv float64
		for k, j := range fm.cols {
			xv += row[j] * fm.vals[k]
		}
		if fm.labels {
			xv -= y[i]
		}
		u[i] = a*u[i] + eta*xv
	}
	return rows, u
}

// step records the Frank–Wolfe step w ← (1−η)·w + η·v, which the next
// pass applies to u.
func (fm *fwMargins) step(eta float64, v []float64) {
	fm.primed, fm.eta = true, eta
	fm.cols, fm.vals = fm.cols[:0], fm.vals[:0]
	for j, x := range v {
		if x != 0 {
			fm.cols = append(fm.cols, j)
			fm.vals = append(fm.vals, x)
		}
	}
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

// maxVertexL1 returns max_v ‖v‖₁ over the vertex set — the ‖W‖₁ factor
// in the score sensitivity |u(D,v) − u(D′,v)| ≤ ‖v‖₁·‖g̃−g̃′‖∞. The
// built-in domains are answered in O(1); other polytopes are scanned
// into buf (len ≥ Dim; nil allocates), once per run — about the cost
// of one iteration's vertex selection.
func maxVertexL1(p polytope.Polytope, buf []float64) float64 {
	switch q := p.(type) {
	case polytope.L1Ball:
		return q.Radius
	case polytope.Simplex:
		return 1
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
	return m
}
