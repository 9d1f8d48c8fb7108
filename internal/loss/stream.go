package loss

import (
	"fmt"

	"htdp/internal/data"
	"htdp/internal/parallel"
	"htdp/internal/vecmath"
)

// The streaming evaluators walk a data.Source in StreamChunks(n) chunks
// so risk and gradients can be computed over data that never fits in
// memory at once. Within a chunk the samples are sharded exactly like
// EmpiricalP/FullGradientP; chunks merge in chunk order. Both orders
// are functions of n alone, so the value is bit-identical for every
// worker count and every backend serving the same rows — but it is a
// different (fixed) summation order than the matrix-resident Empirical/
// FullGradient, which keep their historical full-range order.

// EmpiricalSource returns the empirical risk (1/n)·Σᵢ ℓ(w, (xᵢ, yᵢ))
// over the source, streaming one chunk at a time. workers resolves as
// everywhere (0 → GOMAXPROCS, 1 → sequential).
func EmpiricalSource(l Loss, w []float64, src data.Source, workers int) (float64, error) {
	risks, err := EmpiricalSourceMulti(l, [][]float64{w}, src, workers)
	if err != nil {
		return 0, err
	}
	return risks[0], nil
}

// EmpiricalSourceMulti returns the empirical risk at every parameter
// vector of ws from a single streaming pass: the pass shares each
// chunk read, while every vector's sum is taken shard by shard and
// chunk by chunk in the one fixed order, so risks[j] is what
// EmpiricalSource(l, ws[j], src, workers) returns, bit for bit. A
// run's risk at its estimate and at a reference then reads the data
// once instead of twice.
func EmpiricalSourceMulti(l Loss, ws [][]float64, src data.Source, workers int) ([]float64, error) {
	risks := make([]float64, len(ws))
	n := src.N()
	if n < 1 {
		return risks, nil
	}
	k := len(ws)
	var part []float64 // shard s's partial sum at ws[j] is part[s·k+j]
	err := data.EachChunk(src, data.StreamChunks(n), func(_ int, ck *data.Dataset) error {
		shards := parallel.NumShards(ck.N())
		part = growFloats(part, shards*k)
		parallel.For(workers, ck.N(), func(shard, lo, hi int) {
			for j, w := range ws {
				var p float64
				for i := lo; i < hi; i++ {
					p += l.Value(w, ck.X.Row(i), ck.Y[i])
				}
				part[shard*k+j] = p
			}
		})
		for j := range risks {
			var sum float64
			for s := 0; s < shards; s++ {
				sum += part[s*k+j]
			}
			risks[j] += sum
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("loss: EmpiricalSource: %w", err)
	}
	for j := range risks {
		risks[j] /= float64(n)
	}
	return risks, nil
}

// ExcessRiskSource returns EmpiricalSource(w) − EmpiricalSource(ref),
// the §6 measurement, in one streaming pass.
func ExcessRiskSource(l Loss, w, ref []float64, src data.Source, workers int) (float64, error) {
	risks, err := EmpiricalSourceMulti(l, [][]float64{w, ref}, src, workers)
	if err != nil {
		return 0, err
	}
	return risks[0] - risks[1], nil
}

// FullGradientSource writes the empirical-risk gradient
// (1/n)·Σᵢ ∇ℓ(w, (xᵢ, yᵢ)) over the source into dst (allocated when
// nil) and returns it, streaming one chunk at a time.
func FullGradientSource(l Loss, dst, w []float64, src data.Source, workers int) ([]float64, error) {
	return FullGradientSourceWS(l, dst, w, src, workers, nil)
}

// GradWorkspace is the reusable scratch of FullGradientSourceWS: the
// margin/scale buffers of the fused path, the per-chunk partial, the
// per-shard reduction buffers of the generic path, and the cached loop
// closures. One workspace per run per goroutine; reusing it across a
// loop's iterations eliminates the per-iteration allocations of the
// full-gradient baselines.
type GradWorkspace struct {
	// Mat serves the fused path's blocked X·w and Xᵀc products.
	Mat vecmath.MatWorkspace

	margins, scales, part []float64

	red      parallel.VecReducer
	bufsPool parallel.ShardBufs
	bufs     [][]float64

	l    Loss
	w    []float64
	ck   *data.Dataset
	body func(shard, lo, hi int)
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// FullGradientSourceWS is FullGradientSource with a reusable workspace
// (nil behaves like FullGradientSource). Margin-factorized losses
// without a regularization term take the fused path — one blocked X·w
// product for the margins, one scalar pass for the gradient scales, one
// blocked Xᵀc product for the chunk gradient — instead of materializing
// n gradient rows; the result is bit-identical (the per-shard,
// per-coordinate accumulation chains are unchanged, see
// loss.MarginLoss).
func FullGradientSourceWS(l Loss, dst, w []float64, src data.Source, workers int, ws *GradWorkspace) ([]float64, error) {
	if dst == nil {
		dst = make([]float64, src.D())
	}
	vecmath.Zero(dst)
	n := src.N()
	if n < 1 {
		return dst, nil
	}
	if ws == nil {
		ws = &GradWorkspace{}
	}
	ml, fused := AsMargin(l)
	if fused && ml.RegCoeff() != 0 {
		// The λ·w term is folded into every per-sample row by the unfused
		// path; summing it separately would change the addition order, so
		// regularized losses keep the row-at-a-time path for bit-identity.
		fused = false
	}
	ws.part = growFloats(ws.part, len(dst))
	part := ws.part
	err := data.EachChunk(src, data.StreamChunks(n), func(_ int, ck *data.Dataset) error {
		m := ck.N()
		if fused {
			margins := ws.Mat.MatVec(growFloats(ws.margins, m), ck.X, w, workers)
			ws.margins = margins
			ws.scales = growFloats(ws.scales, m)
			ScalesFromMargins(ml, ws.scales, margins, ck.Y)
			ws.Mat.MatTVec(part, ck.X, ws.scales, workers)
		} else {
			ws.reduceGrad(part, l, w, ck, workers)
		}
		vecmath.Axpy(1, part, dst)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("loss: FullGradientSource: %w", err)
	}
	vecmath.Scale(dst, 1/float64(n))
	return dst, nil
}

// reduceGrad is the generic per-sample gradient sum over one chunk:
// parallel.ReduceVec semantics with pooled shard partials and scratch
// rows and a cached body closure.
func (ws *GradWorkspace) reduceGrad(dst []float64, l Loss, w []float64, ck *data.Dataset, workers int) {
	m := ck.N()
	if m <= 0 {
		vecmath.Zero(dst)
		return
	}
	k := parallel.NumShards(m)
	ws.red.Setup(k, dst)
	ws.bufs = ws.bufsPool.Get(k, len(dst))
	ws.l, ws.w, ws.ck = l, w, ck
	if ws.body == nil {
		ws.body = func(shard, lo, hi int) {
			l, w, ck := ws.l, ws.w, ws.ck
			acc := ws.red.Accs()[shard]
			if shard > 0 {
				vecmath.Zero(acc)
			}
			buf := ws.bufs[shard]
			vecmath.Zero(buf)
			for i := lo; i < hi; i++ {
				l.Grad(buf, w, ck.X.Row(i), ck.Y[i])
				vecmath.Axpy(1, buf, acc)
			}
		}
	}
	parallel.For(workers, m, ws.body)
	ws.red.Merge(dst)
	ws.l, ws.w, ws.ck = nil, nil, nil
}
