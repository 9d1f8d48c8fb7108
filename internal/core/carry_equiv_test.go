package core

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"htdp/internal/data"
	"htdp/internal/dp"
	"htdp/internal/loss"
	"htdp/internal/polytope"
	"htdp/internal/randx"
	"htdp/internal/vecmath"
)

// The carried-margins contract. LassoSource and NonprivateFW carry
// u = X̃·w − b across iterations (fwMargins) instead of recomputing it
// with a MatVec on every chunk of every pass. The carried u differs
// from a recomputed one by rounding, so the loops' decisions — the
// exponential mechanism's Gumbel-max draw and ArgminLinear's argmin —
// could differ only on a near-tie at that level, and w only through
// them. twoPassLassoSource and twoPassNonprivateFW are the loops as
// they were before the carry; TestCarriedMarginsMatchTwoPass runs both
// over a grid and requires the same vertex sequence, a bit-identical
// w, and carried margins within carryTol of recomputed ones after the
// last step.

// carryTol bounds |u_carried − u_recomputed| relative to the row's
// bound ρ·‖xᵢ‖∞ + |bᵢ| on |uᵢ|, where ρ bounds ‖w‖₁. Sixty steps of
// (1−η)·u + η·(X·v − b) add about 3·60 roundings of that size, about
// 4e-14, and the recomputing MatVec about d of them.
const carryTol = 1e-12

// fwRun is one Frank–Wolfe run's trajectory.
type fwRun struct {
	idx []int       // vertex chosen at each step
	ws  [][]float64 // iterate after each step
}

// twoPassLassoSource is LassoSource before the carry, over the
// whole-matrix shrinkage Dataset.Shrink instead of a row view: every
// pass computes r = X̃w − ỹ with MatVec before the MatTVec.
func twoPassLassoSource(src data.Source, opt LassoOptions) (fwRun, error) {
	var run fwRun
	if err := opt.fill(src.N(), src.D()); err != nil {
		return run, err
	}
	n, d := src.N(), src.D()
	full, err := data.Materialize(src)
	if err != nil {
		return run, err
	}
	sh := data.NewMemSource(full.Shrink(opt.K))
	C := data.StreamChunks(n)
	epsIter := opt.Eps / (2 * math.Sqrt(2*float64(opt.T)*math.Log(1/opt.Delta)))
	sens := 8 * maxVertexL1(opt.Domain, nil) * opt.K * opt.K / float64(n)
	w := vecmath.Clone(opt.W0)
	grad := make([]float64, d)
	part := make([]float64, d)
	resid := make([]float64, data.MaxChunkRows(n, C))
	vtx := make([]float64, d)
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
		vecmath.Zero(grad)
		if err := data.EachChunk(sh, C, chunkBody); err != nil {
			return run, err
		}
		vecmath.Scale(grad, 2/float64(n))
		idx := dp.ExponentialL1Ball(opt.Rng, grad, opt.Domain.Radius, sens, epsIter)
		opt.Domain.Vertex(idx, vtx)
		vecmath.Lerp(w, w, vtx, 2/float64(t+2))
		run.idx = append(run.idx, idx)
		run.ws = append(run.ws, vecmath.Clone(w))
	}
	return run, nil
}

// twoPassNonprivateFW is NonprivateFW before the carry: a margin loss
// without a regularizer computes the margins with MatVec on every
// chunk of every pass; every other loss takes the per-sample path.
func twoPassNonprivateFW(ds *data.Dataset, l loss.Loss, p polytope.Polytope, T int, w0 []float64) fwRun {
	var run fwRun
	src := data.NewMemSource(ds)
	n, d := src.N(), src.D()
	w := make([]float64, d)
	if w0 != nil {
		copy(w, w0)
	}
	grad := make([]float64, d)
	part := make([]float64, d)
	vtx := make([]float64, d)
	ml, fused := loss.AsMargin(l)
	fused = fused && ml.RegCoeff() == 0
	var gws loss.GradWorkspace
	var mw vecmath.MatWorkspace
	for t := 1; t <= T; t++ {
		if fused {
			vecmath.Zero(grad)
			err := data.EachChunk(src, data.StreamChunks(n), func(_ int, ck *data.Dataset) error {
				margins := mw.MatVec(make([]float64, ck.N()), ck.X, w, 0)
				scales := loss.ScalesFromMargins(ml, make([]float64, ck.N()), margins, ck.Y)
				mw.MatTVec(part, ck.X, scales, 0)
				vecmath.Axpy(1, part, grad)
				return nil
			})
			if err != nil {
				panic(err)
			}
			vecmath.Scale(grad, 1/float64(n))
		} else if _, err := loss.FullGradientSourceWS(l, grad, w, src, 0, &gws); err != nil {
			panic(err)
		}
		idx := polytope.ArgminLinear(p, grad)
		p.Vertex(idx, vtx)
		vecmath.Lerp(w, w, vtx, 2/float64(t+2))
		run.idx = append(run.idx, idx)
		run.ws = append(run.ws, vecmath.Clone(w))
	}
	return run
}

// recordingPolytope records the vertex index of every Vertex call:
// NonprivateFW makes exactly one per step.
type recordingPolytope struct {
	polytope.Polytope
	idx *[]int
}

func (r recordingPolytope) Vertex(i int, dst []float64) []float64 {
	*r.idx = append(*r.idx, i)
	return r.Polytope.Vertex(i, dst)
}

// carriedDeviation replays a recorded run through an fwMargins at
// shrinkage k over ds the way the production loops drive it — one pass
// per step, then the step — plus one last pass, which brings u to
// X̃·w_T − b. It returns the largest |u − recomputed| relative to each
// row's bound ρ·‖x̃ᵢ‖∞ + |bᵢ| (an exact match counts 0 even where the
// bound is 0), recomputing over ds.Shrink(k). The replay calls the
// production code on the production sequence, so its u is the
// production run's, bit for bit.
func carriedDeviation(t *testing.T, ds *data.Dataset, k float64, labels bool, w0 []float64, p polytope.Polytope, run fwRun, workers int) float64 {
	t.Helper()
	src, shrunk := data.NewMemSource(ds), ds.Shrink(k)
	n, d := src.N(), src.D()
	rho := math.Max(maxVertexL1(p, nil), vecmath.Norm1(w0))
	fm := newFWMargins(n, d, k, true, labels)
	var mw vecmath.MatWorkspace
	w := vecmath.Clone(w0)
	vtx := make([]float64, d)
	C := data.StreamChunks(n)
	pass := func(body func(c int, ck *data.Dataset)) {
		t.Helper()
		if err := data.EachChunk(src, C, func(c int, ck *data.Dataset) error {
			body(c, ck)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for s, idx := range run.idx {
		pass(func(c int, ck *data.Dataset) { fm.chunk(c, ck, w, &mw, workers) })
		p.Vertex(idx, vtx)
		eta := 2 / float64(s+3)
		vecmath.Lerp(w, w, vtx, eta)
		fm.step(eta, vtx)
	}
	var worst float64
	pass(func(c int, ck *data.Dataset) {
		_, u := fm.chunk(c, ck, w, &mw, workers)
		lo, hi := data.ChunkBounds(c, C, n)
		sk := shrunk.Subset(lo, hi)
		z := mw.MatVec(make([]float64, sk.N()), sk.X, w, workers)
		for i := range u {
			var b float64
			if labels {
				b = sk.Y[i]
			}
			dev := math.Abs(u[i] - (z[i] - b))
			if dev == 0 {
				continue
			}
			var xmax float64
			for _, x := range sk.X.Row(i) {
				xmax = math.Max(xmax, math.Abs(x))
			}
			worst = math.Max(worst, dev/(rho*xmax+math.Abs(b)))
		}
	})
	return worst
}

// shrinkGrid returns the shrinkage thresholds the equivalence grids run
// at: below every entry of ds's features and labels (every row dirty),
// 0 (the algorithm's default), and above every entry (none dirty).
func shrinkGrid(ds *data.Dataset) []float64 {
	lo, hi := math.Inf(1), 0.0
	for _, vs := range [][]float64{ds.X.Data, ds.Y} {
		for _, v := range vs {
			if a := math.Abs(v); a > 0 {
				lo, hi = math.Min(lo, a), math.Max(hi, a)
			}
		}
	}
	return []float64{lo / 2, 0, 2 * hi}
}

// carryGridN runs from one row to two stream chunks of unequal size,
// across the 64-row shard boundary.
var carryGridN = []int{1, 2, 63, 64, 65, 500, data.StreamRows + 1}

// carryW0 is the grid's nonzero start: a dense point of ℓ1 norm 1/2 on
// the ball, the barycenter on the simplex.
func carryW0(p polytope.Polytope) []float64 {
	d := p.Dim()
	w0 := make([]float64, d)
	for j := range w0 {
		w0[j] = 0.5 / float64(d)
		if j%2 == 1 {
			w0[j] = -w0[j]
		}
		if _, ok := p.(polytope.Simplex); ok {
			w0[j] = 1 / float64(d)
		}
	}
	return w0
}

// carrySources builds the Mem, Gen and CSV backends over the same n×d
// heavy-tailed rows.
func carrySources(t *testing.T, n, d int) map[string]data.Source {
	t.Helper()
	gen := data.LinearSource(int64(7*n+d), data.LinearOpt{
		N: n, D: d,
		Feature: randx.LogNormal{Mu: 0, Sigma: 1},
		Noise:   randx.StudentT{Nu: 3},
	})
	full := gen.Materialize()
	var buf bytes.Buffer
	if err := data.WriteCSV(&buf, full); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), fmt.Sprintf("carry-%d-%d.csv", n, d))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	csv, err := data.OpenCSV(path, "carry", -1, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { csv.Close() })
	return map[string]data.Source{"mem": data.NewMemSource(full), "gen": gen, "csv": csv}
}

func TestCarriedMarginsMatchTwoPass(t *testing.T) {
	var worst float64
	for _, n := range carryGridN {
		if raceEnabled && n > data.StreamRows {
			continue // seconds of compute per size under the detector; CI runs the full grid without it
		}
		for _, d := range []int{1, 3, 40} {
			srcs := carrySources(t, n, d)
			full, err := data.Materialize(srcs["mem"])
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("lasso/n=%d/d=%d", n, d), func(t *testing.T) {
				worst = math.Max(worst, checkCarriedLasso(t, srcs))
			})
			t.Run(fmt.Sprintf("nonprivatefw/n=%d/d=%d", n, d), func(t *testing.T) {
				worst = math.Max(worst, checkCarriedNonprivateFW(t, full))
			})
		}
	}
	t.Logf("largest carried-margin deviation over the grid: %.3g of the row bound (tolerance %g)", worst, carryTol)
}

// checkCarriedLasso compares LassoSource on every backend with the
// two-pass loop over Dataset.Shrink of the in-memory rows
// (TestSourceEquivalence pins the backends to each other), at workers
// 1 and 4, from w = 0 and from a dense W0, at T = 1, 8 and 60, with K
// at the default. With K below and above every entry (every row of the
// shrunken-row view a copy, or none) it runs T = 8 at workers 1: the
// view is per row, so the worker count does not enter it. The streamed
// backends regenerate or re-parse every chunk of every pass, so past
// one stream chunk they run T = 1 and 8 only. Equal iterates after
// every step mean equal vertices at every step: η ≥ 1/31 keeps any
// vertex's pull on w far above rounding. The carried residual is
// checked on the in-memory rows; the other backends serve the same
// chunk bytes.
func checkCarriedLasso(t *testing.T, srcs map[string]data.Source) float64 {
	var worst float64
	mem := srcs["mem"]
	full, err := data.Materialize(mem)
	if err != nil {
		t.Fatal(err)
	}
	n, d := mem.N(), mem.D()
	ball := polytope.NewL1Ball(d, 1)
	for _, k := range shrinkGrid(full) {
		for _, workers := range []int{1, 4} {
			for _, w0 := range [][]float64{nil, carryW0(ball)} {
				for _, T := range []int{1, 8, 60} {
					if k != 0 && (T != 8 || workers != 1) {
						continue
					}
					ref := LassoOptions{Eps: 1, Delta: 1e-5, T: T, K: k, W0: w0, Parallelism: workers, Rng: randx.New(int64(T + d))}
					want, err := twoPassLassoSource(mem, ref)
					if err != nil {
						t.Fatal(err)
					}
					for _, backend := range []string{"mem", "gen", "csv"} {
						if backend != "mem" && n > data.StreamRows && T > 8 {
							continue
						}
						ctx := fmt.Sprintf("%s K=%g workers=%d w0=%v T=%d", backend, k, workers, w0 != nil, T)
						opt := ref
						opt.Rng = randx.New(int64(T + d))
						var ws [][]float64
						opt.Trace = func(_ int, w []float64) { ws = append(ws, vecmath.Clone(w)) }
						if _, err := LassoSource(srcs[backend], opt); err != nil {
							t.Fatal(err)
						}
						if len(ws) != len(want.ws) {
							t.Fatalf("%s: %d steps, want %d", ctx, len(ws), len(want.ws))
						}
						for s := range ws {
							mustEqualBits(t, ws[s], want.ws[s], fmt.Sprintf("%s step %d (reference vertex %d)", ctx, s+1, want.idx[s]))
						}
					}
					if err := ref.fill(n, d); err != nil {
						t.Fatal(err)
					}
					dev := carriedDeviation(t, full, ref.K, true, ref.W0, ball, want, workers)
					if dev > carryTol {
						t.Fatalf("K=%g workers=%d w0=%v T=%d: carried residual off by %.3g of the row bound, want ≤ %g", k, workers, w0 != nil, T, dev, carryTol)
					}
					worst = math.Max(worst, dev)
				}
			}
		}
	}
	return worst
}

// checkCarriedNonprivateFW compares NonprivateFW with the two-pass loop
// for the squared and logistic losses (carried, T = 60) and the
// regularized logistic and mean-squared losses (the per-sample path in
// both loops, T = 8), on the ℓ1 ball and the simplex, from zero and
// from W0, at GOMAXPROCS 1 and 4 (its kernels run on all cores).
func checkCarriedNonprivateFW(t *testing.T, ds *data.Dataset) float64 {
	var worst float64
	d := ds.D()
	for _, procs := range []int{1, 4} {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		for _, l := range []loss.Loss{loss.Squared{}, loss.Logistic{}, loss.RegLogistic{Lambda: 0.05}, loss.MeanSquared{}} {
			for _, p := range []polytope.Polytope{polytope.NewL1Ball(d, 1), polytope.NewSimplex(d)} {
				for _, w0 := range [][]float64{nil, carryW0(p)} {
					ml, carried := loss.AsMargin(l)
					carried = carried && ml.RegCoeff() == 0
					T := 8
					if carried {
						T = 60
					}
					ctx := fmt.Sprintf("GOMAXPROCS=%d %s %s w0=%v", procs, l.Name(), p.Name(), w0 != nil)
					var idx []int
					got := NonprivateFW(ds, l, recordingPolytope{p, &idx}, T, w0)
					want := twoPassNonprivateFW(ds, l, p, T, w0)
					if len(idx) != T {
						t.Fatalf("%s: %d Vertex calls, want %d", ctx, len(idx), T)
					}
					for s := range want.idx {
						if idx[s] != want.idx[s] {
							t.Fatalf("%s: step %d chose vertex %d, want %d", ctx, s+1, idx[s], want.idx[s])
						}
					}
					mustEqualBits(t, got, want.ws[T-1], ctx)
					if carried {
						if w0 == nil {
							w0 = make([]float64, d)
						}
						dev := carriedDeviation(t, ds, math.Inf(1), false, w0, p, want, 0)
						if dev > carryTol {
							t.Fatalf("%s: carried margins off by %.3g of the row bound, want ≤ %g", ctx, dev, carryTol)
						}
						worst = math.Max(worst, dev)
					}
				}
			}
		}
	}
	return worst
}
