package data

import (
	"fmt"

	"htdp/internal/randx"
	"htdp/internal/vecmath"
)

// Source abstracts where a dataset's rows live. Every algorithm in the
// paper consumes the data as T disjoint contiguous chunks (Algorithms 1,
// 3, and 5 literally; the full-data passes stream StreamChunks(n) chunks
// per iteration), so the interface exposes exactly that access pattern:
// chunk t of T covers rows [t·n/T, (t+1)·n/T), the same near-equal
// partition as Dataset.Split. Backends trade memory for recompute or
// I/O — MemSource serves views of an in-memory matrix, CSVSource reads
// row ranges from disk with a one-chunk cache, GenSource regenerates
// synthetic rows on demand — and all of them return bit-identical chunk
// contents for the same underlying data, which is what keeps streamed
// and in-memory runs bit-identical (see DESIGN.md, "Source backends").
//
// Sources are not safe for concurrent use; open one per goroutine. A
// SourcePool hands out exactly such per-goroutine handles over shared
// immutable state (offset index, matrix, generator spec), which is how
// the serving layer answers concurrent requests from one registered
// dataset.
//
// RowAt is the random-access face of the same data: uniform minibatch
// subsampling (DPSGD) draws rows by index, which the chunk protocol
// cannot serve. Every backend answers RowAt(i) with bytes identical to
// row i of any chunk covering it, so an algorithm that gathers a batch
// by index sees the same floats on every backend — the property the
// cross-backend RowAt equivalence suite and the DPSGD determinism
// golden pin (see DESIGN.md, "Random row access").
type Source interface {
	// N returns the total number of samples.
	N() int
	// D returns the feature dimension.
	D() int
	// Chunk returns the t-th of T contiguous chunks: rows
	// [t·n/T, (t+1)·n/T). The returned dataset may be a view into shared
	// storage or a cache slot reused by the next Chunk call — callers
	// must not mutate it and must not use it after the next Chunk call
	// unless the backend documents otherwise.
	Chunk(t, T int) (*Dataset, error)
	// RowAt returns row i of the source: x its feature vector (length
	// D()), y its label — bit-identical to row i of any chunk covering
	// it. buf, when cap(buf) ≥ D(), may back the returned x; callers
	// that loop RowAt should pass one reusable buffer so regenerating
	// backends allocate nothing per row. x may instead alias
	// backend-owned storage (a MemSource view, a CSV row-cache block)
	// and is valid only until the next RowAt or Chunk call on the same
	// source; callers must never mutate it. An out-of-range i is an
	// error, never a panic.
	RowAt(i int, buf []float64) (x []float64, y float64, err error)
	// Close releases any resources (file handles) held by the source.
	Close() error
}

// StreamRows is the row budget per chunk of a full-data streaming pass:
// algorithms that need the whole dataset each iteration (LASSO's exact
// gradient, the full-data baselines, risk evaluation) walk it in
// StreamChunks(n) chunks of at most StreamRows rows, so peak residency
// is one chunk (StreamRows·d·8 bytes ≈ 26 MB at d = 400) instead of
// n·d·8.
const StreamRows = 8192

// StreamChunks returns the number of chunks a full-data pass streams a
// source of n rows in: ⌈n/StreamRows⌉, at least 1. A function of n only
// — never of the backend or the worker count — so in-memory and
// streamed runs share one summation order and stay bit-identical.
func StreamChunks(n int) int {
	if n <= StreamRows {
		return 1
	}
	return (n + StreamRows - 1) / StreamRows
}

// MaxChunkRows bounds the size of any of the T chunks of n rows.
func MaxChunkRows(n, T int) int {
	return (n + T - 1) / T
}

// ChunkBounds returns the row range [lo, hi) of chunk t of T over n
// rows — the same partition as Dataset.Split.
func ChunkBounds(t, T, n int) (lo, hi int) {
	return t * n / T, (t + 1) * n / T
}

// checkRow validates a RowAt(i) request against n rows.
func checkRow(i, n int) error {
	if i < 0 || i >= n {
		return fmt.Errorf("data: row index %d outside [0,%d)", i, n)
	}
	return nil
}

// checkChunk validates a Chunk(t, T) request against n rows.
func checkChunk(t, T, n int) error {
	if T < 1 || T > n {
		return fmt.Errorf("data: chunk count T=%d outside [1,%d]", T, n)
	}
	if t < 0 || t >= T {
		return fmt.Errorf("data: chunk index t=%d outside [0,%d)", t, T)
	}
	return nil
}

// Materialize loads the whole source into one in-memory Dataset via a
// single Chunk(0, 1) call. The result is n×d resident; use it only when
// that fits.
func Materialize(src Source) (*Dataset, error) {
	return src.Chunk(0, 1)
}

// EachChunk streams the source in C chunks, invoking body in chunk
// order — the shared scaffold of every full-data streaming pass. Chunk
// errors come back wrapped with their position; body errors abort the
// walk unchanged.
func EachChunk(src Source, C int, body func(c int, ck *Dataset) error) error {
	for c := 0; c < C; c++ {
		ck, err := src.Chunk(c, C)
		if err != nil {
			return fmt.Errorf("data: chunk %d/%d: %w", c, C, err)
		}
		if err := body(c, ck); err != nil {
			return err
		}
	}
	return nil
}

// WStarOf returns the planted parameter the source's chunks carry, or
// nil when unknown (e.g. CSV data). It loads one bounded chunk to look.
func WStarOf(src Source) []float64 {
	if src.N() < 1 {
		return nil
	}
	ck, err := src.Chunk(0, StreamChunks(src.N()))
	if err != nil {
		return nil
	}
	return ck.WStar
}

// MemSource serves chunks of an in-memory Dataset as zero-copy views —
// the backend behind every Dataset-taking algorithm entry point, and
// the reference the streamed backends must match bit for bit.
//
// Chunk reuses one view header across calls (per the Source contract, a
// chunk is valid only until the next Chunk call), so the per-iteration
// chunk loads of the algorithms allocate nothing. Chunk(0, 1) returns
// the wrapped dataset itself, which stays valid forever — Materialize
// over a MemSource is free and stable.
type MemSource struct {
	ds    *Dataset
	view  Dataset     // reusable chunk header, repointed per Chunk call
	viewX vecmath.Mat // reusable matrix header backing view.X
}

// NewMemSource wraps an in-memory dataset as a Source.
func NewMemSource(ds *Dataset) *MemSource {
	if ds == nil {
		panic("data: NewMemSource nil dataset")
	}
	return &MemSource{ds: ds}
}

// N returns the number of samples.
func (s *MemSource) N() int { return s.ds.N() }

// D returns the feature dimension.
func (s *MemSource) D() int { return s.ds.D() }

// Dataset returns the wrapped in-memory dataset.
func (s *MemSource) Dataset() *Dataset { return s.ds }

// Chunk returns rows [t·n/T, (t+1)·n/T) as a view sharing the wrapped
// dataset's storage. The view's header is reused by the next Chunk call
// (except the full-range chunk, which is the wrapped dataset itself).
func (s *MemSource) Chunk(t, T int) (*Dataset, error) {
	if err := checkChunk(t, T, s.N()); err != nil {
		return nil, err
	}
	lo, hi := ChunkBounds(t, T, s.N())
	if lo == 0 && hi == s.N() {
		return s.ds, nil
	}
	cols := s.ds.X.Cols
	s.viewX = vecmath.Mat{Rows: hi - lo, Cols: cols, Data: s.ds.X.Data[lo*cols : hi*cols]}
	s.view = Dataset{Label: s.ds.Label, X: &s.viewX, Y: s.ds.Y[lo:hi], WStar: s.ds.WStar}
	return &s.view, nil
}

// RowAt returns row i as a zero-copy view into the wrapped dataset —
// stable for the source's lifetime, unlike the general contract's
// next-call bound. buf is unused.
func (s *MemSource) RowAt(i int, _ []float64) ([]float64, float64, error) {
	if err := checkRow(i, s.ds.N()); err != nil {
		return nil, 0, err
	}
	return s.ds.X.Row(i), s.ds.Y[i], nil
}

// Close is a no-op; the wrapped dataset stays usable.
func (s *MemSource) Close() error { return nil }

// RowGen generates sample i from its private random stream: it fills
// the feature vector x and returns the label. r is re-seeded for the
// next row once the call returns, so a RowGen must not keep it.
type RowGen func(r *randx.RNG, i int, x []float64) float64

// GenSource materializes synthetic chunks on the fly: row i is drawn
// from its own deterministic RNG stream derived from (seed, i) — the
// per-chunk RNG split taken to its finest grain — so Chunk(t, T)
// contains exactly the rows [t·n/T, (t+1)·n/T) of the eagerly
// materialized dataset, bit for bit, for every T. Nothing is cached:
// a chunk costs its regeneration each time it is requested, and only
// the requested chunk is ever resident. Rows reuse one RNG re-seeded
// per row (per Chunk call, and per handle for RowAt), so a generated
// row allocates nothing.
type GenSource struct {
	label string
	seed  int64
	n, d  int
	wstar []float64
	gen   RowGen
	rng   *randx.RNG // RowAt's row stream, nil until first used
}

// NewGenSource builds a generator-backed source. wstar (may be nil) is
// attached to every chunk as the planted parameter.
func NewGenSource(label string, seed int64, n, d int, wstar []float64, gen RowGen) *GenSource {
	validateShape(n, d)
	if gen == nil {
		panic("data: NewGenSource nil generator")
	}
	return &GenSource{label: label, seed: seed, n: n, d: d, wstar: wstar, gen: gen}
}

// N returns the number of samples.
func (g *GenSource) N() int { return g.n }

// D returns the feature dimension.
func (g *GenSource) D() int { return g.d }

// WStar returns the planted parameter, nil when unknown.
func (g *GenSource) WStar() []float64 { return g.wstar }

// Chunk generates rows [t·n/T, (t+1)·n/T), each from its own
// deterministic per-row stream.
func (g *GenSource) Chunk(t, T int) (*Dataset, error) {
	if err := checkChunk(t, T, g.n); err != nil {
		return nil, err
	}
	lo, hi := ChunkBounds(t, T, g.n)
	x := vecmath.NewMat(hi-lo, g.d)
	y := make([]float64, hi-lo)
	var r *randx.RNG
	for i := lo; i < hi; i++ {
		r = g.rowRNG(r, i)
		y[i-lo] = g.gen(r, i, x.Row(i-lo))
	}
	return &Dataset{Label: g.label, X: x, Y: y, WStar: g.wstar}, nil
}

// RowAt regenerates row i from its private (seed, i) stream into buf
// (allocating only when cap(buf) < D()) — random access is as cheap as
// chunked access because every row already owns its stream.
func (g *GenSource) RowAt(i int, buf []float64) ([]float64, float64, error) {
	if err := checkRow(i, g.n); err != nil {
		return nil, 0, err
	}
	if cap(buf) < g.d {
		buf = make([]float64, g.d)
	}
	x := buf[:g.d]
	g.rng = g.rowRNG(g.rng, i)
	y := g.gen(g.rng, i, x)
	return x, y, nil
}

// rowRNG re-seeds r to row i's stream, allocating it when nil.
func (g *GenSource) rowRNG(r *randx.RNG, i int) *randx.RNG {
	if r == nil {
		return randx.New(rowSeed(g.seed, i))
	}
	r.Reseed(rowSeed(g.seed, i))
	return r
}

// Close is a no-op.
func (g *GenSource) Close() error { return nil }

// Clone returns an independent handle replaying the same (seed, opt)
// stream: chunks are a pure function of (seed, row), so a clone's
// chunks are bit-identical to the original's. SourcePool hands one
// clone to every request that acquires a generator-backed dataset. The
// clone gets its own RowAt stream, so handles never share an RNG.
func (g *GenSource) Clone() *GenSource {
	c := *g
	c.rng = nil
	return &c
}

// Materialize eagerly generates the full dataset — bit-identical to the
// concatenation of Chunk(0, T)…Chunk(T−1, T) for every T.
func (g *GenSource) Materialize() *Dataset {
	ds, err := g.Chunk(0, 1)
	if err != nil {
		panic(err) // unreachable: n ≥ 1 by construction
	}
	return ds
}

// rowSeed derives row i's RNG seed from the source seed by a
// SplitMix64-style finalizer, so neighbouring rows get well-separated
// streams. Row −1 is reserved for source-level draws (e.g. w*).
//
// The 64-bit seed does not give 2⁶⁴ streams: math/rand's generator
// (and so randx) reduces every seed mod 2³¹−1, so two rows of one
// source share a stream, and are identical, with probability about
// n²/2³² over n rows. Measured over source seeds 1–10 that is about 1.6
// duplicated rows at n = 100 000 and about 236 at n = 10⁶. Widening
// the seed space changes every generated byte, so it waits for a
// deliberate regeneration of the goldens.
func rowSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(int64(i)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// LinearSource is the streaming counterpart of Linear: the same
// y = ⟨w*, x⟩ + ι workload, materialized chunk by chunk. A nil WStar is
// replaced by L1UnitWStar drawn on the source-level stream, so the
// whole source is a deterministic function of (seed, opt).
func LinearSource(seed int64, opt LinearOpt) *GenSource {
	validateShape(opt.N, opt.D)
	w := opt.WStar
	if w == nil {
		w = L1UnitWStar(randx.New(rowSeed(seed, -1)), opt.D)
	}
	if len(w) != opt.D {
		panic("data: WStar dimension mismatch")
	}
	label := fmt.Sprintf("linear-stream(%s,%s,n=%d,d=%d)", opt.Feature.Name(), noiseName(opt.Noise), opt.N, opt.D)
	return NewGenSource(label, seed, opt.N, opt.D, w, func(r *randx.RNG, _ int, x []float64) float64 {
		randx.SampleVec(opt.Feature, r, x)
		y := vecmath.Dot(w, x)
		if opt.Noise != nil {
			y += opt.Noise.Sample(r)
		}
		return y
	})
}

// LogisticSource is the streaming counterpart of LogisticModel:
// y = sign(sigmoid(⟨x, w*⟩ + ζ) − 1/2) ∈ {−1, +1}, chunk by chunk.
func LogisticSource(seed int64, opt LogisticOpt) *GenSource {
	validateShape(opt.N, opt.D)
	w := opt.WStar
	if w == nil {
		w = L1UnitWStar(randx.New(rowSeed(seed, -1)), opt.D)
	}
	if len(w) != opt.D {
		panic("data: WStar dimension mismatch")
	}
	label := fmt.Sprintf("logistic-stream(%s,%s,n=%d,d=%d)", opt.Feature.Name(), noiseName(opt.Noise), opt.N, opt.D)
	return NewGenSource(label, seed, opt.N, opt.D, w, func(r *randx.RNG, _ int, x []float64) float64 {
		randx.SampleVec(opt.Feature, r, x)
		z := vecmath.Dot(w, x)
		if opt.Noise != nil {
			z += opt.Noise.Sample(r)
		}
		if z >= 0 {
			return 1
		}
		return -1
	})
}

// shrinkSource applies the entry-wise shrinkage of Algorithms 2–3 to
// every chunk on load, so shrinkage never materializes an n×d copy the
// way Dataset.Shrink does. Shrinking chunk t of T equals chunk t of the
// shrunken full dataset (the map is entry-wise), so streamed and
// in-memory runs agree bit for bit.
type shrinkSource struct {
	src Source
	k   float64

	// One-slot output buffer, recycled across Chunk calls like the CSV
	// backend's parse buffer (the Source contract already limits a chunk's
	// lifetime to the next Chunk call).
	bufX, bufY []float64
	out        Dataset
	outX       vecmath.Mat

	// rowBuf backs RowAt's shrunken row, recycled across calls (the
	// wrapped source's row may be an immutable view, so shrinking in
	// place is never an option).
	rowBuf []float64
}

// ShrinkSource wraps src so every chunk is entry-wise truncated at k:
// x̃ᵢⱼ = sign(xᵢⱼ)·min(|xᵢⱼ|, k), ỹᵢ likewise. Each Chunk call shrinks a
// fresh copy of the underlying chunk (the wrapped source's cache, if
// any, stays unshrunken). An in-memory source is shrunken whole, once,
// up front instead — the data is already n×d resident, and algorithms
// that stream it every iteration (LASSO) would otherwise pay a clone
// per chunk per iteration. Both paths produce bit-identical chunks:
// the map is entry-wise.
func ShrinkSource(src Source, k float64) Source {
	if ms, ok := src.(*MemSource); ok {
		return NewMemSource(ms.ds.Shrink(k))
	}
	return &shrinkSource{src: src, k: k}
}

func (s *shrinkSource) N() int { return s.src.N() }

func (s *shrinkSource) D() int { return s.src.D() }

func (s *shrinkSource) Chunk(t, T int) (*Dataset, error) {
	ck, err := s.src.Chunk(t, T)
	if err != nil {
		return nil, err
	}
	m, d := ck.X.Rows, ck.X.Cols
	if cap(s.bufX) < m*d {
		s.bufX = make([]float64, m*d)
	}
	if cap(s.bufY) < m {
		s.bufY = make([]float64, m)
	}
	xd, yd := s.bufX[:m*d], s.bufY[:m]
	for i, v := range ck.X.Data {
		if v > s.k {
			v = s.k
		} else if v < -s.k {
			v = -s.k
		}
		xd[i] = v
	}
	for i, v := range ck.Y {
		if v > s.k {
			v = s.k
		} else if v < -s.k {
			v = -s.k
		}
		yd[i] = v
	}
	s.outX = vecmath.Mat{Rows: m, Cols: d, Data: xd}
	s.out = Dataset{Label: ck.Label, X: &s.outX, Y: yd, WStar: ck.WStar}
	return &s.out, nil
}

// RowAt forwards to the wrapped source and shrinks the row into the
// source's recycled row buffer — entry-wise, so a shrunken RowAt(i)
// equals row i of a shrunken chunk bit for bit.
func (s *shrinkSource) RowAt(i int, buf []float64) ([]float64, float64, error) {
	x, y, err := s.src.RowAt(i, buf)
	if err != nil {
		return nil, 0, err
	}
	if cap(s.rowBuf) < len(x) {
		s.rowBuf = make([]float64, len(x))
	}
	out := s.rowBuf[:len(x)]
	for j, v := range x {
		if v > s.k {
			v = s.k
		} else if v < -s.k {
			v = -s.k
		}
		out[j] = v
	}
	if y > s.k {
		y = s.k
	} else if y < -s.k {
		y = -s.k
	}
	return out, y, nil
}

func (s *shrinkSource) Close() error { return s.src.Close() }
