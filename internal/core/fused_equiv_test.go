package core

import (
	"math"
	"testing"

	"htdp/internal/data"
	"htdp/internal/dp"
	"htdp/internal/loss"
	"htdp/internal/parallel"
	"htdp/internal/polytope"
	"htdp/internal/randx"
	"htdp/internal/robust"
	"htdp/internal/vecmath"
)

// The old-vs-new bit-identity suite: un-fused reference implementations
// of the pre-fusion hot paths (per-sample Loss.Grad inside the
// estimator, closure-per-iteration exponential mechanism, one-shot
// Peeling) are kept here, in the test file, and every fused production
// path must reproduce them bit for bit at several worker counts. This
// is the determinism contract extended across the PR boundary: fusion
// is an implementation detail, never a numeric change.

// refEstimateFunc is the pre-fusion MeanEstimator.EstimateFunc: fresh
// per-shard scratch, per-sample Term calls, ReduceVec merge.
func refEstimateFunc(e robust.MeanEstimator, dst []float64, n int, grad func(i int, buf []float64)) []float64 {
	parallel.ReduceVec(e.Parallelism, n, dst, func(acc []float64, _, lo, hi int) {
		buf := make([]float64, len(acc))
		for i := lo; i < hi; i++ {
			grad(i, buf)
			for j, x := range buf {
				acc[j] += e.Term(x)
			}
		}
	})
	inv := 1 / float64(n)
	for j := range dst {
		dst[j] *= inv
	}
	return dst
}

// refRobustGrad is the pre-fusion gradient step of Algorithms 1 and 5:
// the robust estimate over per-sample Loss.Grad rows, margin re-derived
// from scratch per sample.
func refRobustGrad(e robust.MeanEstimator, dst, w []float64, l loss.Loss, ck *data.Dataset) []float64 {
	return refEstimateFunc(e, dst, ck.N(), func(i int, buf []float64) {
		l.Grad(buf, w, ck.X.Row(i), ck.Y[i])
	})
}

// refFrankWolfeSource is the pre-fusion Algorithm 1 loop.
func refFrankWolfeSource(src data.Source, opt FWOptions) ([]float64, error) {
	if err := opt.fill(src.N(), src.D()); err != nil {
		return nil, err
	}
	d := src.D()
	est := robust.MeanEstimator{S: opt.S, Beta: opt.Beta, Parallelism: opt.Parallelism}
	w := vecmath.Clone(opt.W0)
	grad := make([]float64, d)
	vtx := make([]float64, d)
	for t := 1; t <= opt.T; t++ {
		part, err := src.Chunk(t-1, opt.T)
		if err != nil {
			return nil, err
		}
		refRobustGrad(est, grad, w, opt.Loss, part)
		sens := refMaxVertexL1(opt.Domain) * est.Sensitivity(part.N())
		idx := dp.ExponentialLazy(opt.Rng, opt.Domain.NumVertices(), func(i int) float64 {
			return opt.Domain.VertexScore(i, grad)
		}, sens, opt.Eps)
		opt.Domain.Vertex(idx, vtx)
		eta := opt.EtaConst
		if eta <= 0 {
			eta = 2 / float64(t+2)
		}
		vecmath.Lerp(w, w, vtx, eta)
	}
	return w, nil
}

// refMaxVertexL1 is the pre-memoization vertex-norm scan.
func refMaxVertexL1(p polytope.Polytope) float64 {
	switch q := p.(type) {
	case polytope.L1Ball:
		return q.Radius
	case polytope.Simplex:
		return 1
	}
	buf := make([]float64, p.Dim())
	var m float64
	for i := 0; i < p.NumVertices(); i++ {
		if n := vecmath.Norm1(p.Vertex(i, buf)); n > m {
			m = n
		}
	}
	return m
}

// refLassoSource is the pre-fusion Algorithm 2 loop (allocating blocked
// kernels, closure-per-iteration exponential mechanism).
func refLassoSource(src data.Source, opt LassoOptions) ([]float64, error) {
	if err := opt.fill(src.N(), src.D()); err != nil {
		return nil, err
	}
	n, d := src.N(), src.D()
	sh := data.ShrinkSource(src, opt.K)
	C := data.StreamChunks(n)
	epsIter := opt.Eps / (2 * math.Sqrt(2*float64(opt.T)*math.Log(1/opt.Delta)))
	sens := 8 * refMaxVertexL1(opt.Domain) * opt.K * opt.K / float64(n)
	w := vecmath.Clone(opt.W0)
	grad := make([]float64, d)
	part := make([]float64, d)
	resid := make([]float64, data.MaxChunkRows(n, C))
	vtx := make([]float64, d)
	for t := 1; t <= opt.T; t++ {
		vecmath.Zero(grad)
		err := data.EachChunk(sh, C, func(_ int, ck *data.Dataset) error {
			m := ck.N()
			r := resid[:m]
			ck.X.MatVecP(r, w, opt.Parallelism)
			for i := 0; i < m; i++ {
				r[i] -= ck.Y[i]
			}
			ck.X.MatTVecP(part, r, opt.Parallelism)
			vecmath.Axpy(1, part, grad)
			return nil
		})
		if err != nil {
			return nil, err
		}
		vecmath.Scale(grad, 2/float64(n))
		idx := dp.ExponentialLazy(opt.Rng, opt.Domain.NumVertices(), func(i int) float64 {
			return opt.Domain.VertexScore(i, grad)
		}, sens, epsIter)
		opt.Domain.Vertex(idx, vtx)
		vecmath.Lerp(w, w, vtx, 2/float64(t+2))
	}
	return w, nil
}

// refSparseLinRegSource is the pre-fusion Algorithm 3 loop.
func refSparseLinRegSource(src data.Source, opt SparseLinRegOptions) ([]float64, error) {
	if err := opt.fill(src.N(), src.D()); err != nil {
		return nil, err
	}
	d := src.D()
	sh := data.ShrinkSource(src, opt.K)
	w := vecmath.Clone(opt.W0)
	grad := make([]float64, d)
	resid := make([]float64, data.MaxChunkRows(src.N(), opt.T))
	for t := 1; t <= opt.T; t++ {
		part, err := sh.Chunk(t-1, opt.T)
		if err != nil {
			return nil, err
		}
		m := part.N()
		r := resid[:m]
		part.X.MatVecP(r, w, opt.Parallelism)
		for i := 0; i < m; i++ {
			r[i] -= part.Y[i]
		}
		part.X.MatTVecP(grad, r, opt.Parallelism)
		vecmath.Axpy(-opt.Eta0/float64(m), grad, w)
		lambda := 2 * opt.K * opt.K * opt.Eta0 * (math.Sqrt(float64(opt.S)) + 1) / float64(m)
		w = PeelingP(opt.Rng, w, opt.S, opt.Eps, opt.Delta, lambda, opt.Parallelism)
		vecmath.ProjectL2Ball(w, 1)
	}
	return w, nil
}

// refSparseOptSource is the pre-fusion Algorithm 5 loop.
func refSparseOptSource(src data.Source, opt SparseOptOptions) ([]float64, error) {
	if err := opt.fill(src.N(), src.D()); err != nil {
		return nil, err
	}
	d := src.D()
	est := robust.MeanEstimator{S: opt.K, Beta: opt.Beta, Parallelism: opt.Parallelism}
	w := vecmath.Clone(opt.W0)
	grad := make([]float64, d)
	for t := 1; t <= opt.T; t++ {
		part, err := src.Chunk(t-1, opt.T)
		if err != nil {
			return nil, err
		}
		refRobustGrad(est, grad, w, opt.Loss, part)
		vecmath.Axpy(-opt.Eta, grad, w)
		lambda := opt.Eta * est.Sensitivity(part.N())
		w = PeelingP(opt.Rng, w, opt.S, opt.Eps, opt.Delta, lambda, opt.Parallelism)
	}
	return w, nil
}

func equivData(t *testing.T) *data.Dataset {
	t.Helper()
	r := randx.New(71)
	return data.Linear(r, data.LinearOpt{
		N: 700, D: 45,
		Feature: randx.LogNormal{Mu: 0, Sigma: 1},
		Noise:   randx.StudentT{Nu: 3},
	})
}

func mustEqualBits(t *testing.T, got, want []float64, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", ctx, len(got), len(want))
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("%s: coord %d = %v, want bit-identical %v", ctx, j, got[j], want[j])
		}
	}
}

// TestFusedFrankWolfeBitIdentical: the fused margin kernel, the
// workspace-backed estimator, and the one-pass ℓ1-ball exponential
// mechanism must reproduce the pre-PR Algorithm 1 bit for bit, for
// margin and non-margin losses, at several worker counts.
func TestFusedFrankWolfeBitIdentical(t *testing.T) {
	ds := equivData(t)
	ball := polytope.NewL1Ball(45, 1)
	losses := map[string]loss.Loss{
		"squared":     loss.Squared{},
		"logistic":    loss.Logistic{},
		"reglogistic": loss.RegLogistic{Lambda: 0.05},
		"biweight":    loss.Biweight{C: 4.685},
		"meansquared": loss.MeanSquared{}, // non-margin: generic path
	}
	for name, l := range losses {
		for _, p := range []int{1, 3} {
			opt := FWOptions{Loss: l, Domain: ball, Eps: 1, T: 6, Parallelism: p}
			optRef := opt
			opt.Rng, optRef.Rng = randx.New(9), randx.New(9)
			got, err := FrankWolfeSource(data.NewMemSource(ds), opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refFrankWolfeSource(data.NewMemSource(ds), optRef)
			if err != nil {
				t.Fatal(err)
			}
			mustEqualBits(t, got, want, name)
		}
	}
}

// TestFusedFrankWolfeExplicitDomain covers the generic (non-ℓ1-ball)
// vertex selector and the memoized maxVertexL1 against the reference,
// on a caller-defined domain no kernel special-cases.
func TestFusedFrankWolfeExplicitDomain(t *testing.T) {
	ds := equivData(t)
	dom := scaledSimplex{Simplex: polytope.NewSimplex(45), Scale: 1.5}
	for _, p := range []int{1, 3} {
		opt := FWOptions{Loss: loss.Squared{}, Domain: dom, Eps: 1, T: 5, Parallelism: p,
			W0: dom.Vertex(0, make([]float64, 45))}
		optRef := opt
		opt.Rng, optRef.Rng = randx.New(3), randx.New(3)
		got, err := FrankWolfeSource(data.NewMemSource(ds), opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refFrankWolfeSource(data.NewMemSource(ds), optRef)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualBits(t, got, want, "explicit domain")
	}
}

// TestFusedLassoBitIdentical pins Algorithm 2's workspace kernels and
// one-pass vertex scoring to the reference loop.
func TestFusedLassoBitIdentical(t *testing.T) {
	ds := equivData(t)
	for _, p := range []int{1, 3} {
		opt := LassoOptions{Eps: 1, Delta: 1e-5, T: 6, Parallelism: p}
		optRef := opt
		opt.Rng, optRef.Rng = randx.New(21), randx.New(21)
		got, err := LassoSource(data.NewMemSource(ds), opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refLassoSource(data.NewMemSource(ds), optRef)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualBits(t, got, want, "lasso")
	}
}

// TestFusedSparseLinRegBitIdentical pins Algorithm 3's workspace
// kernels and reusable Peeling scratch to the reference loop.
func TestFusedSparseLinRegBitIdentical(t *testing.T) {
	ds := equivData(t)
	for _, p := range []int{1, 3} {
		opt := SparseLinRegOptions{Eps: 1, Delta: 1e-5, SStar: 6, T: 5, Parallelism: p}
		optRef := opt
		opt.Rng, optRef.Rng = randx.New(33), randx.New(33)
		got, err := SparseLinRegSource(data.NewMemSource(ds), opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refSparseLinRegSource(data.NewMemSource(ds), optRef)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualBits(t, got, want, "sparselinreg")
	}
}

// TestFusedSparseOptBitIdentical pins Algorithm 5 (fused robust
// gradient + reusable Peeling) to the reference loop, for margin and
// non-margin losses.
func TestFusedSparseOptBitIdentical(t *testing.T) {
	ds := equivData(t)
	for name, l := range map[string]loss.Loss{
		"squared":     loss.Squared{},
		"reglogistic": loss.RegLogistic{Lambda: 0.1},
		"meansquared": loss.MeanSquared{},
	} {
		for _, p := range []int{1, 3} {
			opt := SparseOptOptions{Loss: l, Eps: 1, Delta: 1e-5, SStar: 6, T: 5, Parallelism: p}
			optRef := opt
			opt.Rng, optRef.Rng = randx.New(44), randx.New(44)
			got, err := SparseOptSource(data.NewMemSource(ds), opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refSparseOptSource(data.NewMemSource(ds), optRef)
			if err != nil {
				t.Fatal(err)
			}
			mustEqualBits(t, got, want, name)
		}
	}
}

// TestPeelingScratchBitIdentical: the reusable-scratch peeling must
// reproduce one-shot PeelingP draws exactly, call after call.
func TestPeelingScratchBitIdentical(t *testing.T) {
	r := randx.New(2)
	v := r.NormalVec(make([]float64, 500), 1)
	var ps peelScratch
	dst := make([]float64, 500)
	rngA, rngB := randx.New(7), randx.New(7)
	for round := 0; round < 4; round++ {
		want := PeelingP(rngA, v, 20, 1, 1e-5, 0.01, 3)
		got := peeling(&ps, dst, rngB, v, 20, 1, 1e-5, 0.01, 3)
		mustEqualBits(t, got, want, "peeling round")
		// Perturb v between rounds so stale scratch would be caught.
		v[round*7] = -v[round*7]
	}
}

// TestFullDataFWFusedBitIdentical pins the streaming fused AddChunk
// path to the generic Add path (margin fusion must not change the
// full-data variant either).
func TestFullDataFWFusedBitIdentical(t *testing.T) {
	ds := equivData(t)
	ball := polytope.NewL1Ball(45, 1)
	run := func(l loss.Loss, seed int64) []float64 {
		w, err := FullDataFWSource(data.NewMemSource(ds), FullDataFWOptions{
			Loss: l, Domain: ball, Eps: 1, Delta: 1e-5, T: 4,
			Parallelism: 2, Rng: randx.New(seed),
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	// wrapLoss hides the MarginLoss factorization, forcing the generic
	// path on the same arithmetic.
	got := run(loss.Squared{}, 6)
	want := run(hideMargin{loss.Squared{}}, 6)
	mustEqualBits(t, got, want, "fulldatafw fused-vs-generic")
}

// hideMargin wraps a loss, stripping its MarginLoss interface so tests
// can force the generic gradient path.
type hideMargin struct{ l loss.Loss }

func (h hideMargin) Name() string { return h.l.Name() }
func (h hideMargin) Value(w, x []float64, y float64) float64 {
	return h.l.Value(w, x, y)
}
func (h hideMargin) Grad(dst, w, x []float64, y float64) []float64 {
	return h.l.Grad(dst, w, x, y)
}
