package robust

import (
	"math"
	"testing"

	"htdp/internal/randx"
	"htdp/internal/vecmath"
)

// TestTermKernelMatchesTerm: the hoisted-constant kernel must agree
// with Term bit for bit everywhere — across the saturation fast path,
// the correction branch, the stable branch, zeros, and extremes.
func TestTermKernelMatchesTerm(t *testing.T) {
	ests := []MeanEstimator{
		{S: 1, Beta: 1},
		{S: 10, Beta: 1},
		{S: 0.03, Beta: 7},
		{S: 1e6, Beta: 0.25},
	}
	r := randx.New(1)
	vals := []float64{0, math.Copysign(0, -1), 1e-300, -1e-300, 0.5, -0.5,
		1, -1, 3, 17, -17, 1e4, -1e4, 1e5, 1e8, -1e8, math.Sqrt2, -math.Sqrt2}
	for i := 0; i < 2000; i++ {
		vals = append(vals, r.StudentT(2))
	}
	for _, e := range ests {
		k := e.kernel()
		for _, x := range vals {
			if got, want := k.term(x), e.Term(x); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("s=%v β=%v: term(%v) = %v, want bit-identical %v", e.S, e.Beta, x, got, want)
			}
		}
	}
}

// refEstimateRows is the textbook unfused estimate over materialized
// gradient rows c[i]·xᵢ + reg·w: EstimateFuncWS with a fresh workspace.
func refEstimateRows(e MeanEstimator, x *vecmath.Mat, scales []float64, reg float64, w []float64) []float64 {
	dst := make([]float64, x.Cols)
	e.EstimateFuncWS(dst, x.Rows, nil, func(i int, buf []float64) {
		c := scales[i]
		for j, xj := range x.Row(i) {
			buf[j] = c * xj
		}
		if reg != 0 {
			vecmath.Axpy(reg, w, buf)
		}
	})
	return dst
}

// TestEstimateChunkBitIdentical: the fused column-blocked kernel must
// reproduce the row-at-a-time estimator bit for bit, with and without
// a regularization term, at several worker counts and shapes (including
// d straddling the colBlock boundary), and across workspace reuse with
// changing shapes.
func TestEstimateChunkBitIdentical(t *testing.T) {
	r := randx.New(3)
	e := MeanEstimator{S: 5, Beta: 1}
	ws := NewWorkspace()
	shapes := []struct{ m, d int }{{1, 1}, {7, 3}, {130, 40}, {65, colBlock}, {64, colBlock + 5}, {200, 2*colBlock + 17}}
	for _, sh := range shapes {
		x := vecmath.NewMat(sh.m, sh.d)
		for i := range x.Data {
			x.Data[i] = r.StudentT(3)
		}
		scales := r.NormalVec(make([]float64, sh.m), 2)
		w := r.NormalVec(make([]float64, sh.d), 1)
		for _, reg := range []float64{0, 0.3} {
			for _, p := range []int{1, 4} {
				e.Parallelism = p
				got := e.EstimateChunk(nil, x, scales, reg, w, ws)
				want := refEstimateRows(e, x, scales, reg, w)
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("m=%d d=%d reg=%v p=%d: coord %d = %v, want bit-identical %v",
							sh.m, sh.d, reg, p, j, got[j], want[j])
					}
				}
			}
		}
	}
}

// TestEstimateChunkZeroAllocs: with a warm workspace and the sequential
// engine, the fused kernel performs zero allocations per call — the
// contract the reusable iteration workspaces exist for.
func TestEstimateChunkZeroAllocs(t *testing.T) {
	r := randx.New(4)
	const m, d = 500, 300
	x := vecmath.NewMat(m, d)
	for i := range x.Data {
		x.Data[i] = r.Normal()
	}
	scales := r.NormalVec(make([]float64, m), 1)
	e := MeanEstimator{S: 5, Beta: 1, Parallelism: 1}
	ws := NewWorkspace()
	dst := make([]float64, d)
	e.EstimateChunk(dst, x, scales, 0, nil, ws) // warm-up
	if allocs := testing.AllocsPerRun(10, func() {
		e.EstimateChunk(dst, x, scales, 0, nil, ws)
	}); allocs != 0 {
		t.Fatalf("EstimateChunk allocates %v per call with a warm workspace", allocs)
	}
}

// TestEstimateFuncWSZeroAllocs covers the generic workspace path.
func TestEstimateFuncWSZeroAllocs(t *testing.T) {
	r := randx.New(5)
	const m, d = 500, 300
	rows := vecmath.NewMat(m, d)
	for i := range rows.Data {
		rows.Data[i] = r.Normal()
	}
	e := MeanEstimator{S: 5, Beta: 1, Parallelism: 1}
	ws := NewWorkspace()
	dst := make([]float64, d)
	grad := func(i int, buf []float64) { copy(buf, rows.Row(i)) }
	e.EstimateFuncWS(dst, m, ws, grad) // warm-up
	if allocs := testing.AllocsPerRun(10, func() {
		e.EstimateFuncWS(dst, m, ws, grad)
	}); allocs != 0 {
		t.Fatalf("EstimateFuncWS allocates %v per call with a warm workspace", allocs)
	}
}

// TestAddChunkMatchesAdd: the streaming accumulator's fused path must
// match its generic path bit for bit block by block.
func TestAddChunkMatchesAdd(t *testing.T) {
	r := randx.New(6)
	const d = 30
	e := MeanEstimator{S: 3, Beta: 1, Parallelism: 2}
	a, b := e.NewStream(d), e.NewStream(d)
	for block := 0; block < 3; block++ {
		m := 50 + 13*block
		x := vecmath.NewMat(m, d)
		for i := range x.Data {
			x.Data[i] = r.StudentT(3)
		}
		scales := r.NormalVec(make([]float64, m), 1)
		a.AddChunk(x, scales, 0, nil)
		b.Add(m, func(i int, buf []float64) {
			c := scales[i]
			for j, xj := range x.Row(i) {
				buf[j] = c * xj
			}
		})
	}
	ga, gb := a.Finish(nil), b.Finish(nil)
	for j := range ga {
		if ga[j] != gb[j] {
			t.Fatalf("coord %d: AddChunk %v != Add %v", j, ga[j], gb[j])
		}
	}
	if a.Count() != b.Count() {
		t.Fatalf("counts differ: %d != %d", a.Count(), b.Count())
	}
}
