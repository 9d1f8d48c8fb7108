// Micro-benchmarks for the primitives on the hot path, their
// worker-count sweeps, and the Source backends. The figure, lower-bound
// and ablation benchmarks are registered once, in internal/benchio
// (`go run ./cmd/htdp -benchjson out.json -benchfilter '^fig:'`), at a
// reduced scale; `go run ./cmd/htdp -run figN -reps 20 -scale 1`
// executes the full paper protocol.
package htdp_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"os"
	"path/filepath"

	"htdp"
	"htdp/internal/dp"
	"htdp/internal/randx"
	"htdp/internal/robust"
	"htdp/internal/vecmath"
)

// --- primitive micro-benchmarks -------------------------------------

// BenchmarkRobustMeanTerm measures one Catoni term evaluation — the
// innermost operation of Algorithms 1 and 5 (n·d calls per iteration).
func BenchmarkRobustMeanTerm(b *testing.B) {
	e := robust.MeanEstimator{S: 10, Beta: 1}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += e.Term(float64(i%17) - 8)
	}
	_ = sink
}

// BenchmarkRobustGradient measures a full robust coordinate-wise
// gradient estimate over a 1000-sample, 500-dimensional chunk.
func BenchmarkRobustGradient(b *testing.B) {
	const m, d = 1000, 500
	r := randx.New(1)
	rows := make([][]float64, m)
	for i := range rows {
		rows[i] = r.NormalVec(make([]float64, d), 3)
	}
	e := robust.MeanEstimator{S: 20, Beta: 1}
	dst := make([]float64, d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EstimateVec(dst, rows)
	}
}

// workerLevels sweeps the Parallelism knob: 1 (sequential reference),
// then doublings up to GOMAXPROCS. On a ≥4-core machine the d ≥ 1000
// sub-benchmarks below demonstrate the ≥2× speedup of the sharded
// engine; every level returns bit-identical results.
func workerLevels() []int {
	levels := []int{1}
	for w := 2; w < runtime.GOMAXPROCS(0); w *= 2 {
		levels = append(levels, w)
	}
	if g := runtime.GOMAXPROCS(0); g > 1 {
		levels = append(levels, g)
	}
	return levels
}

// BenchmarkCatoni measures the robust coordinate-wise gradient estimate
// (EstimateVec) on a 1000-sample, d=2000 chunk across worker counts —
// the n·d Term evaluation that dominates Algorithms 1 and 5.
func BenchmarkCatoni(b *testing.B) {
	const m, d = 1000, 2000
	r := randx.New(1)
	rows := make([][]float64, m)
	for i := range rows {
		rows[i] = r.NormalVec(make([]float64, d), 3)
	}
	dst := make([]float64, d)
	for _, w := range workerLevels() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			e := robust.MeanEstimator{S: 20, Beta: 1, Parallelism: w}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.EstimateVec(dst, rows)
			}
		})
	}
}

// BenchmarkCatoniFused measures the fused margin kernel on the
// workload of BenchmarkCatoniFunc — margins via the blocked X·w
// product, per-sample gradient scales, column-blocked truncation with
// a warm workspace — the steady-state gradient iteration of
// Algorithms 1 and 5 after this PR. Compare against BenchmarkCatoniFunc
// (the row-at-a-time shape) to see the fusion win; allocs/op is 0 at
// workers=1.
func BenchmarkCatoniFused(b *testing.B) {
	const m, d = 1000, 2000
	r := randx.New(2)
	x := htdp.NewMat(m, d)
	for i := range x.Data {
		x.Data[i] = r.Normal() * 3
	}
	y := r.NormalVec(make([]float64, m), 1)
	w := make([]float64, d)
	for j := 0; j < d; j++ {
		w[j] = 1 / float64(d)
	}
	l := htdp.SquaredLoss{}
	dst := make([]float64, d)
	for _, workers := range workerLevels() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e := htdp.MeanEstimator{S: 20, Beta: 1, Parallelism: workers}
			ws := htdp.NewRobustWorkspace()
			run := func() {
				margins := ws.Margins(m)
				ws.Mat.MatVec(margins, x, w, workers)
				scales := ws.Scales(m)
				for i := range scales {
					scales[i] = l.GradScale(margins[i], y[i])
				}
				e.EstimateChunk(dst, x, scales, 0, nil, ws)
			}
			run() // warm the workspace
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// BenchmarkCatoniFunc measures the buffer-filling variant
// (EstimateFuncWS) on the same shape — the path the optimization loops
// use, where per-sample gradients are recomputed inside each shard.
func BenchmarkCatoniFunc(b *testing.B) {
	const m, d = 1000, 2000
	r := randx.New(2)
	rows := make([][]float64, m)
	for i := range rows {
		rows[i] = r.NormalVec(make([]float64, d), 3)
	}
	dst := make([]float64, d)
	for _, w := range workerLevels() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			e := robust.MeanEstimator{S: 20, Beta: 1, Parallelism: w}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.EstimateFuncWS(dst, m, nil, func(i int, buf []float64) { copy(buf, rows[i]) })
			}
		})
	}
}

// BenchmarkPeelingP measures the parallel noisy top-50 scan in d=10000
// across worker counts.
func BenchmarkPeelingP(b *testing.B) {
	r := randx.New(2)
	v := r.NormalVec(make([]float64, 10000), 1)
	for _, w := range workerLevels() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			rng := randx.New(3)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				htdp.PeelingP(rng, v, 50, 1, 1e-5, 0.01, w)
			}
		})
	}
}

// BenchmarkMatTVec measures the blocked Xᵀv kernel (n=4000, d=1500)
// behind the LASSO/IHT gradient steps.
func BenchmarkMatTVec(b *testing.B) {
	const n, d = 4000, 1500
	r := randx.New(4)
	m := vecmath.NewMat(n, d)
	for i := range m.Data {
		m.Data[i] = r.Normal()
	}
	v := r.NormalVec(make([]float64, n), 1)
	dst := make([]float64, d)
	for _, w := range workerLevels() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.MatTVecP(dst, v, w)
			}
		})
	}
}

// BenchmarkPeeling measures private top-50 selection in d=10000 — the
// selection primitive of Algorithms 3 and 5.
func BenchmarkPeeling(b *testing.B) {
	r := randx.New(2)
	v := r.NormalVec(make([]float64, 10000), 1)
	rng := randx.New(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		htdp.Peeling(rng, v, 50, 1, 1e-5, 0.01)
	}
}

// BenchmarkExponentialMechanism measures a private vertex selection
// over the 2·d implicit vertices of an ℓ1 ball in d=10000.
func BenchmarkExponentialMechanism(b *testing.B) {
	r := randx.New(4)
	g := r.NormalVec(make([]float64, 10000), 1)
	ball := htdp.NewL1Ball(10000, 1)
	rng := randx.New(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dp.ExponentialLazy(rng, ball.NumVertices(), func(j int) float64 {
			return ball.VertexScore(j, g)
		}, 0.01, 1)
	}
}

// BenchmarkFrankWolfeRun measures a complete Algorithm 1 run on a
// mid-sized heavy-tailed instance (n=5000, d=200).
func BenchmarkFrankWolfeRun(b *testing.B) {
	rng := randx.New(6)
	ds := htdp.LinearData(rng, htdp.LinearOpt{
		N: 5000, D: 200,
		Feature: htdp.LogNormal{Mu: 0, Sigma: math.Sqrt(0.6)},
		Noise:   htdp.Normal{Mu: 0, Sigma: math.Sqrt(0.1)},
	})
	dom := htdp.NewL1Ball(200, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := htdp.FrankWolfe(ds, htdp.FWOptions{
			Loss: htdp.SquaredLoss{}, Domain: dom, Eps: 1, Rng: randx.New(int64(i)),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSparseMean measures the one-shot private sparse mean
// estimator on n=5000, d=200.
func BenchmarkSparseMean(b *testing.B) {
	r := randx.New(8)
	x := htdp.NewMat(5000, 200)
	for i := range x.Data {
		x.Data[i] = r.Normal()
	}
	src := htdp.NewMemSource(&htdp.Dataset{X: x, Y: make([]float64, x.Rows)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := htdp.SparseMeanSource(src, htdp.SparseMeanOptions{
			Eps: 1, Delta: 1e-5, SStar: 10, Rng: randx.New(int64(i)),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDPSGDStep measures minibatch DP-SGD (100 steps, batch 200)
// on n=10000, d=100.
func BenchmarkDPSGDStep(b *testing.B) {
	rng := randx.New(9)
	ds := htdp.LinearData(rng, htdp.LinearOpt{
		N: 10000, D: 100,
		Feature: htdp.LogNormal{Mu: 0, Sigma: 1},
		Noise:   htdp.Normal{Mu: 0, Sigma: 0.3},
	})
	src := htdp.NewMemSource(ds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := htdp.DPSGDSource(src, htdp.DPSGDOptions{
			Loss: htdp.SquaredLoss{}, Eps: 1, Delta: 1e-5,
			T: 100, Batch: 200, Clip: 2, LR: 0.01, Rng: randx.New(int64(i)),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSparseLinRegRun measures a complete Algorithm 3 run
// (n=20000, d=400, s*=10).
func BenchmarkSparseLinRegRun(b *testing.B) {
	rng := randx.New(7)
	w := htdp.SparseWStar(rng, 400, 10)
	ds := htdp.LinearData(rng, htdp.LinearOpt{
		N: 20000, D: 400,
		Feature: htdp.Normal{Mu: 0, Sigma: math.Sqrt(5)},
		Noise:   htdp.Shifted{Base: htdp.LogNormal{Mu: 0, Sigma: math.Sqrt(0.5)}},
		WStar:   w,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := htdp.SparseLinReg(ds, htdp.SparseLinRegOptions{
			Eps: 1, Delta: 1e-5, SStar: 10, Rng: randx.New(int64(i)),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStreamOpt is the shared workload of the Source-backend
// benchmarks: heavy-tailed linear regression at n=20000, d=200.
var benchStreamOpt = htdp.LinearOpt{
	N: 20000, D: 200,
	Feature: htdp.LogNormal{Mu: 0, Sigma: 0.9},
	Noise:   htdp.Normal{Mu: 0, Sigma: 0.3},
}

// benchSourceFW runs one ε-DP Frank–Wolfe pass from the given source.
func benchSourceFW(b *testing.B, src htdp.Source) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := htdp.FrankWolfeSource(src, htdp.FWOptions{
			Loss: htdp.SquaredLoss{}, Domain: htdp.NewL1Ball(benchStreamOpt.D, 1),
			Eps: 1, Rng: randx.New(int64(i)),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSourceMemFW is the in-memory baseline of the Source sweep:
// chunks are zero-copy views.
func BenchmarkSourceMemFW(b *testing.B) {
	src := htdp.NewMemSource(htdp.LinearSource(11, benchStreamOpt).Materialize())
	benchSourceFW(b, src)
}

// BenchmarkSourceGenFW regenerates every chunk on demand — the price
// of trading memory for compute.
func BenchmarkSourceGenFW(b *testing.B) {
	benchSourceFW(b, htdp.LinearSource(11, benchStreamOpt))
}

// BenchmarkSourceCSVFW streams every chunk from a CSV on disk — the
// price of trading memory for I/O and parsing.
func BenchmarkSourceCSVFW(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.csv")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := htdp.WriteCSV(f, htdp.LinearSource(11, benchStreamOpt).Materialize()); err != nil {
		b.Fatal(err)
	}
	f.Close()
	src, err := htdp.OpenCSV(path, "bench", -1, false)
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	benchSourceFW(b, src)
}

// BenchmarkSourceCSVChunk isolates the per-chunk cost of the CSV
// backend: seek + parse of one StreamRows-sized chunk.
func BenchmarkSourceCSVChunk(b *testing.B) {
	path := filepath.Join(b.TempDir(), "chunk.csv")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := htdp.WriteCSV(f, htdp.LinearSource(12, benchStreamOpt).Materialize()); err != nil {
		b.Fatal(err)
	}
	f.Close()
	src, err := htdp.OpenCSV(path, "bench", -1, false)
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	C := htdp.StreamChunks(benchStreamOpt.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := src.Chunk(i%C, C); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSourceCSVRowAt measures shuffled random row access on the
// CSV backend at two file sizes. The row-block cache amortizes seeks
// and parses over 256-row blocks, so per-row cost should be roughly
// flat in n — not the O(n) a naive scan-per-row would show.
func BenchmarkSourceCSVRowAt(b *testing.B) {
	for _, n := range []int{5000, 20000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			opt := benchStreamOpt
			opt.N = n
			path := filepath.Join(b.TempDir(), "rowat.csv")
			f, err := os.Create(path)
			if err != nil {
				b.Fatal(err)
			}
			if err := htdp.WriteCSV(f, htdp.LinearSource(13, opt).Materialize()); err != nil {
				b.Fatal(err)
			}
			f.Close()
			src, err := htdp.OpenCSV(path, "bench", -1, false)
			if err != nil {
				b.Fatal(err)
			}
			defer src.Close()
			perm := randx.New(17).Perm(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := src.RowAt(perm[i%n], nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
