package robust

import "htdp/internal/vecmath"

// StreamMean accumulates the coordinate-wise robust mean estimator
// ˆx(s, β) over sample blocks delivered sequentially, so the estimate
// can be computed over data that never fits in memory at once — the
// out-of-core counterpart of MeanEstimator.EstimateFuncWS used by the
// full-data streaming passes (see DESIGN.md, "Source backends").
//
// Within a block the samples are sharded exactly like EstimateFuncWS and
// partials merge in shard order; blocks merge in arrival order. Both
// orders are fixed by the block sizes alone, so the result is
// bit-identical for every worker count and every source backend that
// delivers the same blocks — but it is a different (fixed) summation
// order than one EstimateFuncWS call over the concatenated samples.
//
// The accumulator owns a reusable Workspace, so Add and AddChunk
// allocate nothing once warm: full-data passes that stream every
// iteration (FullDataFW, SparseMean) produce no per-iteration garbage.
type StreamMean struct {
	est   MeanEstimator
	sums  []float64
	block []float64
	n     int
	ws    *Workspace
}

// NewStream returns a d-dimensional streaming accumulator for the
// estimator (workers come from e.Parallelism, resolved per block).
func (e MeanEstimator) NewStream(d int) *StreamMean {
	return &StreamMean{est: e, sums: make([]float64, d), block: make([]float64, d), ws: NewWorkspace()}
}

// Workspace exposes the accumulator's reusable scratch so callers can
// stage margins and scales for AddChunk without buffers of their own.
func (s *StreamMean) Workspace() *Workspace { return s.ws }

// Reset clears the accumulator for reuse (e.g. the next iteration's
// gradient).
func (s *StreamMean) Reset() {
	for j := range s.sums {
		s.sums[j] = 0
	}
	s.n = 0
}

// Add accumulates one block of m samples; grad is called once per
// sample index in [0, m) with a scratch buffer to fill, concurrently
// across block shards (it must not write shared state beyond buf).
func (s *StreamMean) Add(m int, grad func(i int, buf []float64)) {
	if m < 1 {
		return
	}
	s.ws.accumulateFunc(s.est, s.block, m, grad)
	for j, v := range s.block {
		s.sums[j] += v
	}
	s.n += m
}

// AddChunk accumulates one block through the fused margin kernel:
// sample i's gradient is scales[i]·xᵢ + reg·w (see loss.MarginLoss),
// so the block's contribution is computed straight from the data rows
// with no gradient materialization — bit-identical to Add over the same
// gradients, with zero allocations once the workspace is warm.
func (s *StreamMean) AddChunk(x *vecmath.Mat, scales []float64, reg float64, w []float64) {
	m := x.Rows
	if m < 1 {
		return
	}
	if len(scales) != m {
		panic("robust: AddChunk scales length mismatch")
	}
	s.ws.accumulateChunk(s.est, s.block, x, scales, reg, w)
	for j, v := range s.block {
		s.sums[j] += v
	}
	s.n += m
}

// Count returns the number of samples added since the last Reset.
func (s *StreamMean) Count() int { return s.n }

// Finish writes the estimate (1/n)·Σ Term into dst (allocated when
// nil) and returns it; zero samples yield the zero vector.
func (s *StreamMean) Finish(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(s.sums))
	}
	var inv float64
	if s.n > 0 {
		inv = 1 / float64(s.n)
	}
	for j := range dst {
		dst[j] = s.sums[j] * inv
	}
	return dst
}
