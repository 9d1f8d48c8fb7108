package main

import (
	"math"
	"time"

	"htdp/internal/core"
	"htdp/internal/data"
	"htdp/internal/dp"
	"htdp/internal/loss"
	"htdp/internal/randx"
	"htdp/internal/robust"
	"htdp/internal/vecmath"
)

// kernelChunk is the chunk the kernel probes are shaped from: the first
// chunk the cold-runs fw request reads from heavy (T = 40), copied.
func kernelChunk(in *Inputs) (*data.Dataset, error) {
	src, err := data.OpenCSV(in.HeavyCSV, "heavy", -1, false)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	ck, err := src.Chunk(0, coldMix[0].T)
	if err != nil {
		return nil, err
	}
	return ck.Clone(), nil
}

// kernelSink keeps the probed results observable, so the compiler
// cannot drop the calls.
var kernelSink float64

// perCall times fn in batches of at least 10ms and returns the median
// per-call duration over five batches, recording one span per batch.
func perCall(tr *Tracer, name string, fn func()) time.Duration {
	fn() // warm workspaces and caches
	reps := 1
	for {
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		if time.Since(start) >= 10*time.Millisecond {
			break
		}
		reps *= 2
	}
	var per []float64
	for k := 0; k < 5; k++ {
		id := tr.Begin(0, -1, name, "")
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		el := time.Since(start)
		tr.End(id, reps)
		per = append(per, float64(el)/float64(reps))
	}
	return time.Duration(vecmath.Median(per))
}

// KernelProbes times the hot-path kernels on the captured chunk and
// returns per-layer metrics.
func KernelProbes(tr *Tracer, ck *data.Dataset) []Metric {
	x, y := ck.X, ck.Y
	m, d := x.Rows, x.Cols
	r := randx.New(7)
	w := data.L1UnitWStar(r, d)
	e := robust.MeanEstimator{S: 20, Beta: 1, Parallelism: 1}
	ws := robust.NewWorkspace()
	dst := make([]float64, d)
	estimate := perCall(tr, "kernel.robust.EstimateChunk", func() {
		margins := ws.Margins(m)
		ws.Mat.MatVec(margins, x, w, 1)
		scales := ws.Scales(m)
		loss.ScalesFromMargins(loss.Squared{}, scales, margins, y)
		e.EstimateChunk(dst, x, scales, 0, nil, ws)
	})
	var mw vecmath.MatWorkspace
	mv := make([]float64, m)
	matvec := perCall(tr, "kernel.vecmath.MatVec", func() { mw.MatVec(mv, x, w, 1) })
	mattvec := perCall(tr, "kernel.vecmath.MatTVec", func() { mw.MatTVec(dst, x, y, 1) })
	g := append([]float64(nil), dst...)
	rng := randx.New(8)
	expmech := perCall(tr, "kernel.dp.ExponentialL1Ball", func() { dp.ExponentialL1Ball(rng, g, 1, 0.01, 1) })
	peel := perCall(tr, "kernel.core.PeelingP", func() { core.PeelingP(rng, g, 10, 1, 1e-5, 0.01, 1) })
	term := perCall(tr, "kernel.robust.Term", func() {
		for _, v := range x.Data {
			kernelSink += e.Term(v)
		}
	})
	q := coldMix[10] // dpsgd/rdp on heavy
	sigma := perCall(tr, "kernel.dp.SubsampledGaussianSigma", func() {
		kernelSink += dp.SubsampledGaussianSigma(1, float64(q.Batch)/heavyRows, dp.Params{Eps: 1, Delta: math.Pow(heavyRows, -1.1)}, q.T)
	})
	bytesMoved := float64((m*d + d + m) * 8)
	return []Metric{
		{Name: "robust.estimate_chunk_us", Unit: "us", Value: us(estimate), N: 5, Note: shape(m, d)},
		{Name: "vecmath.matvec_us", Unit: "us", Value: us(matvec), N: 5, Note: shape(m, d)},
		{Name: "vecmath.mattvec_us", Unit: "us", Value: us(mattvec), N: 5, Note: shape(m, d)},
		{Name: "vecmath.matvec_gbps", Unit: "GB/s", Value: bytesMoved / float64(matvec), N: 5, Note: "bytes computed from the array sizes"},
		{Name: "dp.expmech_l1_us", Unit: "us", Value: us(expmech), N: 5, Note: "d=" + itoa(d)},
		{Name: "core.peeling_us", Unit: "us", Value: us(peel), N: 5, Note: "d=" + itoa(d) + " s=10"},
		{Name: "robust.term_ns", Unit: "ns", Value: float64(term) / float64(len(x.Data)), N: 5, Note: "per truncation term"},
		{Name: "dp.rdp_sigma_ms", Unit: "ms", Value: ms(sigma), N: 5, Note: "cold-runs dpsgd/rdp on heavy"},
	}
}

func shape(m, d int) string { return itoa(m) + "x" + itoa(d) + " chunk of heavy" }

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
