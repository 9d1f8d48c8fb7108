package benchio

import (
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"testing"
	"time"

	"htdp/internal/core"
	"htdp/internal/data"
	"htdp/internal/dp"
	"htdp/internal/experiments"
	"htdp/internal/loss"
	"htdp/internal/polytope"
	"htdp/internal/randx"
	"htdp/internal/robust"
	"htdp/internal/vecmath"
)

// The registered suite: one benchmark per experiment of the figure
// registry (reduced scale, same code paths as the paper protocol) and
// one per hot-path kernel. Kernel benchmarks pin the fused gradient
// pipeline — margins, scales, truncation, selection — at both the
// sequential and the all-cores setting, and their allocs/op are part of
// the regression gate (a zero-alloc kernel must stay zero-alloc).

// figCfg runs every figure code path at a laptop-sized scale. The fig:
// entries are the repository's one set of figure benchmarks: `go test
// -bench` runs no figure of its own.
var figCfg = experiments.Config{Reps: 2, Scale: 0.02, Seed: 1}

func init() {
	for _, spec := range experiments.Registry() {
		spec := spec
		Register("fig:"+spec.ID, func(b *testing.B) {
			b.ReportAllocs()
			b.StopTimer() // the sampler's start and stop stay out of B/op and allocs/op
			peak := sampleHeapPeak()
			b.StartTimer()
			for i := 0; i < b.N; i++ {
				panels, err := spec.Run(figCfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(panels) == 0 {
					b.Fatal("no panels")
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(peak())/1e6, "peak-heap-MB")
		})
	}

	Register("data:gen-chunk", benchGenChunk)
	Register("data:gen-rowat", benchGenRowAt)
	Register("data:pool-csv-pass", benchPoolCSVPass)
	Register("data:pool-csv-rowat", benchPoolCSVRowAt)

	Register("kernel:robust-term", benchRobustTerm)
	Register("kernel:catoni-chunk-seq", benchCatoniChunk(1))
	Register("kernel:catoni-chunk-par", benchCatoniChunk(0))
	Register("kernel:catoni-rows-seq", benchCatoniRows(1))
	Register("kernel:matvec", benchMatVec)
	Register("kernel:mattvec", benchMatTVec)
	Register("kernel:peeling", benchPeeling)
	Register("kernel:expmech-l1", benchExpMechL1)
	Register("kernel:rdp-sigma", benchRDPSigma)
	Register("kernel:fw-run-seq", benchFWRun(1))
	Register("kernel:fw-run-par", benchFWRun(0))

	Register("iter:lasso", benchIterLasso)
	Register("iter:iht", benchIterIHT)
	Register("iter:nonprivate-fw", benchIterNonprivateFW)
}

// sampleHeapPeak starts sampling the runtime's
// /memory/classes/heap/objects:bytes, the bytes of live objects and of
// dead ones not yet swept, every millisecond. The returned stop
// function ends the sampling and returns the largest value seen. Only
// the start and the stop allocate, so a sample moves no allocation
// count.
func sampleHeapPeak() (stop func() uint64) {
	done, peak := make(chan struct{}), make(chan uint64)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var top uint64
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > top {
				top = v
			}
			select {
			case <-done:
				peak <- top
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-peak
	}
}

// genDemoLinear is cmd/htdp's built-in demo-linear dataset: 2000 rows
// of 100 log-normal features (the §6 workload shape) behind a GenSource.
func genDemoLinear() *data.GenSource {
	return data.LinearSource(1, data.LinearOpt{
		N: 2000, D: 100,
		Feature: randx.LogNormal{Mu: 0, Sigma: 0.8},
		Noise:   randx.Normal{Mu: 0, Sigma: 0.3},
	})
}

// benchGenChunk regenerates all of demo-linear as the single chunk a
// full-data streaming pass reads (StreamChunks(2000) = 1) and reports
// the per-row cost as ns/row. Its allocations — the chunk's storage and
// one RNG re-seeded per row — do not grow with the row count.
func benchGenChunk(b *testing.B) {
	g := genDemoLinear()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.Chunk(0, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g.N()), "ns/row")
}

// benchGenRowAt regenerates one demo-linear row per op into a reused
// buffer, at scattered indices like DPSGD's minibatch draws. Once the
// handle's RNG exists a row allocates nothing.
func benchGenRowAt(b *testing.B) {
	g := genDemoLinear()
	buf := make([]float64, g.D())
	if _, _, err := g.RowAt(0, buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := g.RowAt(i*7919%g.N(), buf); err != nil {
			b.Fatal(err)
		}
	}
}

// poolHeavy writes a CSV of perfbench's heavy shape — 9000 rows of 40
// log-normal features, more rows than one streaming chunk — into the
// benchmark's temp dir and registers it as "heavy" in a fresh pool,
// closed when the benchmark ends.
func poolHeavy(b *testing.B) *data.SourcePool {
	ds := data.LinearSource(5, data.LinearOpt{
		N: 9000, D: 40,
		Feature: randx.LogNormal{Mu: 0, Sigma: 0.8},
		Noise:   randx.Normal{Mu: 0, Sigma: 0.3},
	}).Materialize()
	path := filepath.Join(b.TempDir(), "heavy.csv")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := data.WriteCSV(f, ds); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	p := data.NewSourcePool()
	b.Cleanup(func() { p.Close() })
	if _, err := p.RegisterCSV("heavy", path, -1, false); err != nil {
		b.Fatal(err)
	}
	return p
}

// poolPass is one served request's full-data pass: Acquire the pooled
// dataset, read it in StreamChunks(n) chunks, Close the handle.
func poolPass(p *data.SourcePool) error {
	src, err := p.Acquire("heavy")
	if err != nil {
		return err
	}
	defer src.Close()
	return data.EachChunk(src, data.StreamChunks(src.N()), func(int, *data.Dataset) error { return nil })
}

// benchPoolCSVPass measures poolPass over the pooled heavy CSV after
// one warm-up pass, reported per row as ns/row. A decoded entry serves
// the pass as views over its resident rows; a streaming one parses
// every row of the file again.
func benchPoolCSVPass(b *testing.B) {
	p := poolHeavy(b)
	if err := poolPass(p); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := poolPass(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*9000), "ns/row")
}

// benchPoolCSVRowAt reads one scattered row per op from a pooled handle
// over the heavy CSV, DPSGD's minibatch access pattern. The handle is
// acquired, and so the entry decoded, before the timer.
func benchPoolCSVRowAt(b *testing.B) {
	p := poolHeavy(b)
	src, err := p.Acquire("heavy")
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	buf := make([]float64, src.D())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := src.RowAt(i*7919%src.N(), buf); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRobustTerm(b *testing.B) {
	e := robust.MeanEstimator{S: 10, Beta: 1}
	var sink float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink += e.Term(float64(i%17) - 8)
	}
	_ = sink
}

// benchChunk builds the shared robust-gradient workload: a 1000×500
// heavy-tailed chunk and a unit-ℓ1 iterate.
func benchChunk() (*vecmath.Mat, []float64, []float64) {
	r := randx.New(1)
	const m, d = 1000, 500
	x := vecmath.NewMat(m, d)
	for i := range x.Data {
		x.Data[i] = r.StudentT(3)
	}
	y := r.NormalVec(make([]float64, m), 1)
	w := data.L1UnitWStar(r, d)
	return x, y, w
}

// benchCatoniChunk measures one fused robust-gradient evaluation —
// margins, scales, column-blocked truncation — at the given worker
// setting. The steady-state iteration of Algorithms 1 and 5.
func benchCatoniChunk(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		x, y, w := benchChunk()
		e := robust.MeanEstimator{S: 20, Beta: 1, Parallelism: workers}
		ws := robust.NewWorkspace()
		l := loss.Squared{}
		dst := make([]float64, x.Cols)
		run := func() {
			margins := ws.Margins(x.Rows)
			ws.Mat.MatVec(margins, x, w, workers)
			scales := ws.Scales(x.Rows)
			loss.ScalesFromMargins(l, scales, margins, y)
			e.EstimateChunk(dst, x, scales, 0, nil, ws)
		}
		run() // warm the workspace
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
	}
}

// benchCatoniRows measures the pre-fusion shape of the same estimate:
// per-sample Loss.Grad rows through EstimateFuncWS (margin re-derived
// per sample). Kept in the trajectory so the fusion win stays visible.
func benchCatoniRows(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		x, y, w := benchChunk()
		e := robust.MeanEstimator{S: 20, Beta: 1, Parallelism: workers}
		ws := robust.NewWorkspace()
		l := loss.Squared{}
		dst := make([]float64, x.Cols)
		grad := func(i int, buf []float64) { l.Grad(buf, w, x.Row(i), y[i]) }
		e.EstimateFuncWS(dst, x.Rows, ws, grad)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.EstimateFuncWS(dst, x.Rows, ws, grad)
		}
	}
}

func benchMatVec(b *testing.B) {
	x, _, w := benchChunk()
	var ws vecmath.MatWorkspace
	dst := make([]float64, x.Rows)
	ws.MatVec(dst, x, w, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.MatVec(dst, x, w, 1)
	}
}

func benchMatTVec(b *testing.B) {
	x, y, _ := benchChunk()
	var ws vecmath.MatWorkspace
	dst := make([]float64, x.Cols)
	ws.MatTVec(dst, x, y, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.MatTVec(dst, x, y, 1)
	}
}

func benchPeeling(b *testing.B) {
	r := randx.New(2)
	v := r.NormalVec(make([]float64, 10000), 1)
	rng := randx.New(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.PeelingP(rng, v, 50, 1, 1e-5, 0.01, 1)
	}
}

func benchExpMechL1(b *testing.B) {
	r := randx.New(4)
	g := r.NormalVec(make([]float64, 10000), 1)
	rng := randx.New(5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dp.ExponentialL1Ball(rng, g, 1, 0.01, 1)
	}
}

// benchRDPSigma measures one DPSGD rdp calibration at perfbench's
// dp.rdp_sigma_ms probe parameters: Δ = 1, q = 40/9000 (batch 40 of the
// 9000-row heavy dataset), ε = 1, δ = 9000^-1.1, T = 2.
func benchRDPSigma(b *testing.B) {
	p := dp.Params{Eps: 1, Delta: math.Pow(9000, -1.1)}
	var sink float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink += dp.SubsampledGaussianSigma(1, 40.0/9000, p, 2)
	}
	_ = sink
}

// benchFWRun measures a complete Algorithm 1 run (n=5000, d=200,
// heavy-tailed linear model) at the given worker setting — the
// figure-level unit of the robust-mean-term path.
func benchFWRun(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		rng := randx.New(6)
		ds := data.Linear(rng, data.LinearOpt{
			N: 5000, D: 200,
			Feature: randx.LogNormal{Mu: 0, Sigma: math.Sqrt(0.6)},
			Noise:   randx.Normal{Mu: 0, Sigma: math.Sqrt(0.1)},
		})
		dom := polytope.NewL1Ball(200, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.FrankWolfeSource(data.NewMemSource(ds), core.FWOptions{
				Loss: loss.Squared{}, Domain: dom, Eps: 1,
				Parallelism: workers, Rng: randx.New(int64(i)),
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// iterData is the iter: entries' dataset: 9000 rows of 200 §6
// log-normal features, two stream chunks of 4500 rows. Built once per
// process.
var iterData = sync.OnceValue(func() *data.Dataset {
	return data.Linear(randx.New(7), data.LinearOpt{
		N: 9000, D: 200,
		Feature: randx.LogNormal{Mu: 0, Sigma: math.Sqrt(0.6)},
		Noise:   randx.Normal{Mu: 0, Sigma: math.Sqrt(0.1)},
	})
})

// benchIterLasso measures one warm Algorithm 2 iteration on iterData
// with the sequential engine: a run of b.N+1 iterations whose timer
// and allocation counters restart when the first iteration's Trace
// fires, so setup and the first pass, which primes the carried residual
// and copies the shrunken dirty rows, are not counted.
func benchIterLasso(b *testing.B) {
	ds := iterData()
	b.ReportAllocs()
	if _, err := core.LassoSource(data.NewMemSource(ds), core.LassoOptions{
		Eps: 1, Delta: 1e-5, T: b.N + 1, Parallelism: 1, Rng: randx.New(8),
		Trace: func(t int, _ []float64) {
			if t == 1 {
				b.ResetTimer()
			}
		},
	}); err != nil {
		b.Fatal(err)
	}
}

// ihtChunkRows is the chunk iter:iht steps on: iterData's rows split
// nine ways, the default T = ⌊ln 9000⌋.
const ihtChunkRows = 1000

// ihtChunks serves an Algorithm 3 run of T iterations T chunks of
// ihtChunkRows rows each, cycling through iterData's nine, so every
// iteration steps on a chunk of the same size whatever b.N is. Only
// N and Chunk are meaningful; the run calls nothing else.
type ihtChunks struct {
	*data.MemSource
	T int
}

func (s ihtChunks) N() int { return s.T * ihtChunkRows }

func (s ihtChunks) Chunk(t, _ int) (*data.Dataset, error) {
	return s.MemSource.Chunk(t%9, 9)
}

// benchIterIHT measures one warm Algorithm 3 iteration on a
// 1000-row chunk of iterData with the sequential engine, timed like
// iter:lasso: a run of b.N+1 iterations whose counters restart when the
// first iteration's Trace fires. An iteration shrinks its chunk's dirty
// rows, runs the mat-vec pair, and peels s = 20 of d = 200 coordinates.
// K stays at (ihtChunkRows·ε/s)^{1/4} for every b.N.
func benchIterIHT(b *testing.B) {
	src := ihtChunks{MemSource: data.NewMemSource(iterData()), T: b.N + 1}
	b.ReportAllocs()
	if _, err := core.SparseLinRegSource(src, core.SparseLinRegOptions{
		Eps: 1, Delta: 1e-5, SStar: 10, T: src.T, Parallelism: 1, Rng: randx.New(9),
		Trace: func(t int, _ []float64) {
			if t == 1 {
				b.ResetTimer()
			}
		},
	}); err != nil {
		b.Fatal(err)
	}
}

// warmBall is the unit ℓ1 ball of NonprivateFW's callers, whose first
// Vertex call — the end of the run's first iteration — restarts the
// benchmark's timer and allocation counters.
type warmBall struct {
	polytope.L1Ball
	b    *testing.B
	warm bool
}

func (p *warmBall) Vertex(i int, dst []float64) []float64 {
	if !p.warm {
		p.warm = true
		p.b.ResetTimer()
	}
	return p.L1Ball.Vertex(i, dst)
}

// benchIterNonprivateFW measures one warm iteration of the non-private
// Frank–Wolfe reference (squared loss, carried margins, all cores) on
// iterData: a run of b.N+1 iterations timed from the end of the first.
func benchIterNonprivateFW(b *testing.B) {
	ds := iterData()
	b.ReportAllocs()
	core.NonprivateFW(ds, loss.Squared{}, &warmBall{L1Ball: polytope.NewL1Ball(ds.D(), 1), b: b}, b.N+1, nil)
}
