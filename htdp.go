// Package htdp is a Go implementation of "High Dimensional
// Differentially Private Stochastic Optimization with Heavy-tailed
// Data" (Hu, Ni, Xiao, Wang; PODS 2022, arXiv:2107.11136): private
// convex optimization when the dimension d far exceeds the sample size
// n and the data distribution has only a few finite moments.
//
// The package re-exports the library's public surface from the internal
// packages. The paper's algorithms:
//
//   - FrankWolfe — Algorithm 1, Heavy-tailed DP-FW: ε-DP optimization
//     over a polytope via a Catoni-style robust coordinate-wise gradient
//     estimator and the exponential mechanism. Excess risk
//     Õ(log d/(nε)^{1/3}) under a gradient second-moment bound.
//   - Lasso — Algorithm 2: entry-wise shrinkage plus DP-FW with advanced
//     composition, (ε, δ)-DP. Excess risk Õ(log d/(nε)^{2/5}) under a
//     fourth-moment bound.
//   - SparseLinReg — Algorithm 3 (with Peeling, Algorithm 4): private
//     iterative hard thresholding for the sparse linear model,
//     Õ(s*²·log²d/(nε)).
//   - SparseOpt — Algorithm 5: DP-SCO over the ℓ0 ball for smooth,
//     strongly convex losses, Õ(s*^{3/2}·log d/(nε)).
//
// Baselines (NonprivateFW, NonprivateIHT, TalwarDPFW, DPGD,
// RobustGaussianGD), the data generators of §6.1, and the experiment
// registry reproducing Figures 1–11 (documented entry by entry in
// EXPERIMENTS.md) are exported alongside, as is the estimation service
// (NewServer over a NewSourcePool; HTTP surface in API.md) that serves
// all of it concurrently with bit-identical, cacheable results.
//
// Every algorithm's per-coordinate hot path runs on a sharded worker
// pool (internal/parallel). The Parallelism field on each option struct
// picks the worker count — 0 for GOMAXPROCS, 1 for sequential — and the
// engine guarantees bit-identical output at every setting: shard
// structure depends only on problem size, partial results merge in
// shard order, and randomized scans split one RNG stream per shard.
//
// A minimal end-to-end run:
//
//	rng := htdp.NewRNG(1)
//	ds := htdp.LinearData(rng, htdp.LinearOpt{
//		N: 10000, D: 400,
//		Feature: htdp.LogNormal{Mu: 0, Sigma: 0.77},
//		Noise:   htdp.Normal{Mu: 0, Sigma: 0.32},
//	})
//	w, err := htdp.FrankWolfe(ds, htdp.FWOptions{
//		Loss:   htdp.SquaredLoss{},
//		Domain: htdp.NewL1Ball(400, 1),
//		Eps:    1,
//		Rng:    rng.Split(),
//	})
package htdp

import (
	"context"
	"io"

	"htdp/internal/core"
	"htdp/internal/data"
	"htdp/internal/dp"
	"htdp/internal/experiments"
	"htdp/internal/loss"
	"htdp/internal/minimax"
	"htdp/internal/parallel"
	"htdp/internal/polytope"
	"htdp/internal/randx"
	"htdp/internal/robust"
	"htdp/internal/serve"
	"htdp/internal/vecmath"
)

// RNG and distributions (internal/randx).
type (
	// RNG is the deterministic, splittable random source every
	// algorithm consumes.
	RNG = randx.RNG
	// Dist is a scalar distribution; the concrete types below implement
	// it and cover every law used in the paper's experiments.
	Dist        = randx.Dist
	Normal      = randx.Normal
	Laplace     = randx.Laplace
	LogNormal   = randx.LogNormal
	StudentT    = randx.StudentT
	Logistic    = randx.Logistic
	LogLogistic = randx.LogLogistic
	LogGamma    = randx.LogGamma
	Pareto      = randx.Pareto
	Shifted     = randx.Shifted
	Mixture     = randx.Mixture
)

// NewRNG returns a deterministic random source.
func NewRNG(seed int64) *RNG { return randx.New(seed) }

// Datasets and generators (internal/data).
type (
	Dataset     = data.Dataset
	LinearOpt   = data.LinearOpt
	LogisticOpt = data.LogisticOpt
	RealSpec    = data.RealSpec

	// Source abstracts where the rows live: every algorithm consumes T
	// disjoint contiguous chunks — or, for minibatch DP-SGD, random
	// rows via RowAt — and a Source serves exactly that: from memory
	// (MemSource), from disk (CSVSource), or generated on demand
	// (GenSource). All backends yield bit-identical chunks and rows for
	// the same indices, so streamed and in-memory runs agree bit for
	// bit (see DESIGN.md, "Source backends").
	Source    = data.Source
	MemSource = data.MemSource
	CSVSource = data.CSVSource
	GenSource = data.GenSource
)

// LinearData generates the §6.1 linear model y = ⟨w*, x⟩ + ι.
func LinearData(r *RNG, opt LinearOpt) *Dataset { return data.Linear(r, opt) }

// LogisticData generates the §6.1 classification model.
func LogisticData(r *RNG, opt LogisticOpt) *Dataset { return data.LogisticModel(r, opt) }

// SparseWStar samples the §6.1 s*-sparse parameter on the unit sphere.
func SparseWStar(r *RNG, d, sStar int) []float64 { return data.SparseWStar(r, d, sStar) }

// SimulatedReal deterministically generates the stand-in for one of the
// paper's UCI datasets (see DESIGN.md, "Substitutions") at ⌈scale·N⌉
// rows. A scale that is NaN or outside (0, 1] is an error.
func SimulatedReal(r *RNG, spec RealSpec, scale float64) (*Dataset, error) {
	return data.SimulatedReal(r, spec, scale)
}

// RealSpecs lists the four §6.1 dataset profiles.
func RealSpecs() []RealSpec { return data.RealSpecs }

// ReadCSV parses a numeric CSV into an in-memory Dataset (labelCol
// negative counts from the end; −1 is the last column). For data larger
// than memory use OpenCSV instead.
func ReadCSV(r io.Reader, label string, labelCol int, hasHeader bool) (*Dataset, error) {
	return data.ReadCSV(r, label, labelCol, hasHeader)
}

// WriteCSV writes the dataset as numeric CSV with the label last — the
// inverse of ReadCSV/OpenCSV with labelCol = −1, in shortest
// round-trip decimal, so streaming the file back yields bit-identical
// rows.
func WriteCSV(w io.Writer, ds *Dataset) error { return data.WriteCSV(w, ds) }

// NewMemSource wraps an in-memory dataset as a Source (zero-copy chunk
// views).
func NewMemSource(ds *Dataset) *MemSource { return data.NewMemSource(ds) }

// OpenCSV opens a numeric CSV file as an out-of-core Source: one scan
// indexes the row offsets (8 bytes/row) and each Chunk call reads only
// its row range, so peak memory is one chunk instead of n×d.
func OpenCSV(path, label string, labelCol int, hasHeader bool) (*CSVSource, error) {
	return data.OpenCSV(path, label, labelCol, hasHeader)
}

// LinearSource is the streaming counterpart of LinearData: chunks of
// the §6.1 linear model are generated on demand from per-row seeded
// streams, bit-identical to the eager Materialize for every chunking.
func LinearSource(seed int64, opt LinearOpt) *GenSource { return data.LinearSource(seed, opt) }

// LogisticSource is the streaming counterpart of LogisticData.
func LogisticSource(seed int64, opt LogisticOpt) *GenSource { return data.LogisticSource(seed, opt) }

// Materialize loads a whole source into one in-memory Dataset (n×d
// resident; use only when that fits).
func Materialize(src Source) (*Dataset, error) { return data.Materialize(src) }

// StreamChunks returns the number of chunks a full-data pass streams a
// source of n rows in — a function of n only, so in-memory and
// streamed runs share one summation order.
func StreamChunks(n int) int { return data.StreamChunks(n) }

// Losses (internal/loss).
type (
	Loss            = loss.Loss
	SquaredLoss     = loss.Squared
	LogisticLoss    = loss.Logistic
	RegLogisticLoss = loss.RegLogistic
	BiweightLoss    = loss.Biweight
	MeanSquaredLoss = loss.MeanSquared

	// MarginLoss is a Loss whose gradient factorizes through the margin
	// z = ⟨w, x⟩ as GradScale(z, y)·x + RegCoeff()·w. Every built-in
	// loss except MeanSquaredLoss implements it; the optimizers detect
	// it and take the fused, allocation-free gradient kernel.
	MarginLoss = loss.MarginLoss
)

// AsMarginLoss reports whether l factorizes through the margin,
// returning the MarginLoss view when it does.
func AsMarginLoss(l Loss) (MarginLoss, bool) { return loss.AsMargin(l) }

// GradFromMargin writes ∇ℓ into dst given the precomputed margin
// z = ⟨w, x⟩, bit-identical to l.Grad.
func GradFromMargin(l MarginLoss, dst, w, x []float64, y, z float64) []float64 {
	return loss.GradFromMargin(l, dst, w, x, y, z)
}

// MarginsChunk computes all margins zᵢ = ⟨w, xᵢ⟩ of a chunk via the
// sharded kernel (workers as everywhere: 0 → GOMAXPROCS).
func MarginsChunk(dst, w []float64, x *Mat, workers int) []float64 {
	return loss.MarginsChunk(dst, w, x, workers)
}

// EmpiricalRisk evaluates (1/n)·Σ ℓ(w, (xᵢ, yᵢ)) on ds.
func EmpiricalRisk(l Loss, w []float64, ds *Dataset) float64 {
	return loss.Empirical(l, w, ds.X, ds.Y)
}

// ExcessRisk evaluates EmpiricalRisk(w) − EmpiricalRisk(ref).
func ExcessRisk(l Loss, w, ref []float64, ds *Dataset) float64 {
	return loss.ExcessRisk(l, w, ref, ds.X, ds.Y)
}

// EmpiricalRiskSource evaluates the empirical risk over a streaming
// source, one chunk resident at a time.
func EmpiricalRiskSource(l Loss, w []float64, src Source) (float64, error) {
	return loss.EmpiricalSource(l, w, src, 0)
}

// ExcessRiskSource evaluates EmpiricalRiskSource(w) −
// EmpiricalRiskSource(ref) in one streaming pass.
func ExcessRiskSource(l Loss, w, ref []float64, src Source) (float64, error) {
	return loss.ExcessRiskSource(l, w, ref, src, 0)
}

// Constraint sets (internal/polytope).
type (
	Polytope = polytope.Polytope
	L1Ball   = polytope.L1Ball
	Simplex  = polytope.Simplex
)

// NewL1Ball returns the ℓ1 ball of the given radius in R^dims.
func NewL1Ball(dims int, radius float64) L1Ball { return polytope.NewL1Ball(dims, radius) }

// NewSimplex returns the probability simplex in R^dims.
func NewSimplex(dims int) Simplex { return polytope.NewSimplex(dims) }

// The paper's algorithms (internal/core).
type (
	FWOptions           = core.FWOptions
	LassoOptions        = core.LassoOptions
	SparseLinRegOptions = core.SparseLinRegOptions
	SparseOptOptions    = core.SparseOptOptions
)

// FrankWolfe runs Heavy-tailed DP-FW (Algorithm 1); the run is ε-DP.
func FrankWolfe(ds *Dataset, opt FWOptions) ([]float64, error) {
	return core.FrankWolfeSource(data.NewMemSource(ds), opt)
}

// FrankWolfeSource runs Algorithm 1 over a streaming source; iteration
// t loads only chunk t−1 of T, so n may exceed local memory. Output is
// bit-identical to FrankWolfe on the same rows.
func FrankWolfeSource(src Source, opt FWOptions) ([]float64, error) {
	return core.FrankWolfeSource(src, opt)
}

// Lasso runs Heavy-tailed Private LASSO (Algorithm 2); (ε, δ)-DP.
func Lasso(ds *Dataset, opt LassoOptions) ([]float64, error) {
	return core.LassoSource(data.NewMemSource(ds), opt)
}

// LassoSource runs Algorithm 2 over a streaming source: every
// iteration streams the shrunken data one chunk at a time. Output is
// bit-identical to Lasso on the same rows.
func LassoSource(src Source, opt LassoOptions) ([]float64, error) {
	return core.LassoSource(src, opt)
}

// SparseLinReg runs Heavy-tailed Private Sparse Linear Regression
// (Algorithm 3); (ε, δ)-DP.
func SparseLinReg(ds *Dataset, opt SparseLinRegOptions) ([]float64, error) {
	return core.SparseLinRegSource(data.NewMemSource(ds), opt)
}

// SparseLinRegSource runs Algorithm 3 over a streaming source; chunks
// are shrunken on load. Output is bit-identical to SparseLinReg on the
// same rows.
func SparseLinRegSource(src Source, opt SparseLinRegOptions) ([]float64, error) {
	return core.SparseLinRegSource(src, opt)
}

// SparseOpt runs Heavy-tailed Private Sparse Optimization
// (Algorithm 5); (ε, δ)-DP.
func SparseOpt(ds *Dataset, opt SparseOptOptions) ([]float64, error) {
	return core.SparseOptSource(data.NewMemSource(ds), opt)
}

// SparseOptSource runs Algorithm 5 over a streaming source. Output is
// bit-identical to SparseOpt on the same rows.
func SparseOptSource(src Source, opt SparseOptOptions) ([]float64, error) {
	return core.SparseOptSource(src, opt)
}

// Peeling is the (ε, δ)-DP noisy top-s selection of Algorithm 4; lambda
// bounds the ℓ∞-sensitivity of v (0 releases the exact top s). The
// selection scan runs on all cores; PeelingP selects the worker count
// explicitly. It panics, naming the argument, on s outside [1, len(v)],
// an ε that is not finite and positive, δ outside (0, 1), a λ that is
// not finite and ≥ 0, a noise scale that overflows, or a non-finite
// entry of v.
func Peeling(r *RNG, v []float64, s int, eps, delta, lambda float64) []float64 {
	return core.PeelingP(r, v, s, eps, delta, lambda, 0)
}

// PeelingP is Peeling with an explicit worker count (0 → GOMAXPROCS,
// 1 → sequential); the output is bit-identical at every setting.
func PeelingP(r *RNG, v []float64, s int, eps, delta, lambda float64, workers int) []float64 {
	return core.PeelingP(r, v, s, eps, delta, lambda, workers)
}

// DefaultParallelism resolves a Parallelism knob as every option struct
// does: 0 → GOMAXPROCS, values below 1 → 1. All algorithms shard their
// hot paths deterministically, so any setting returns bit-identical
// results; the knob trades wall-clock only.
func DefaultParallelism(p int) int { return parallel.Workers(p) }

// Extensions beyond the paper's listings (internal/core).
type (
	SparseMeanOptions       = core.SparseMeanOptions
	RobustRegressionOptions = core.RobustRegressionOptions
	FullDataFWOptions       = core.FullDataFWOptions
)

// SparseMeanSource is the one-shot (ε, δ)-DP sparse heavy-tailed
// mean estimator over a source's feature rows (labels ignored): robust
// coordinate means, accumulated one chunk at a time, plus a single
// Peeling release.
func SparseMeanSource(src Source, opt SparseMeanOptions) ([]float64, error) {
	return core.SparseMeanSource(src, opt)
}

// FullDataFWSource is FullDataFW over a streaming source; each
// iteration streams the whole source chunk by chunk.
func FullDataFWSource(src Source, opt FullDataFWOptions) ([]float64, error) {
	return core.FullDataFWSource(src, opt)
}

// RobustRegression runs the Theorem 3 instance: ε-DP Frank–Wolfe on the
// non-convex biweight loss with the constant-step schedule.
func RobustRegression(ds *Dataset, opt RobustRegressionOptions) ([]float64, error) {
	return core.RobustRegressionSource(data.NewMemSource(ds), opt)
}

// FullDataFW is the (ε, δ)-DP full-data variant of Algorithm 1 whose
// utility analysis the paper leaves open; privacy holds by advanced
// composition.
func FullDataFW(ds *Dataset, opt FullDataFWOptions) ([]float64, error) {
	return core.FullDataFWSource(data.NewMemSource(ds), opt)
}

// Baselines (internal/core).
type (
	TalwarFWOptions         = core.TalwarFWOptions
	DPGDOptions             = core.DPGDOptions
	DPSGDOptions            = core.DPSGDOptions
	RobustGaussianGDOptions = core.RobustGaussianGDOptions
)

// The DPSGD accountants: AccountantCompose calibrates noise by the
// classical amplification lemma plus advanced composition;
// AccountantRDP by subsampled-Gaussian RDP (tighter σ at the same
// budget). Select via DPSGDOptions.Accountant; empty means compose.
const (
	AccountantCompose = core.AccountantCompose
	AccountantRDP     = core.AccountantRDP
)

// DPSGDSource runs minibatch DP-SGD with subsampling amplification
// over a source, drawing each batch by uniform random row access
// (Source.RowAt). Output is bit-identical on every backend serving the
// same rows — the batch draw order is a pure function of Rng,
// independent of backend and Parallelism.
func DPSGDSource(src Source, opt DPSGDOptions) ([]float64, error) {
	return core.DPSGDSource(src, opt)
}

// NonprivateFW runs exact Frank–Wolfe (the ε→∞ reference).
func NonprivateFW(ds *Dataset, l Loss, p Polytope, T int, w0 []float64) []float64 {
	return core.NonprivateFW(ds, l, p, T, w0)
}

// NonprivateIHT runs exact iterative hard thresholding on squared loss.
func NonprivateIHT(ds *Dataset, s, T int, eta float64) []float64 {
	return core.NonprivateIHT(ds, s, T, eta)
}

// TalwarDPFW runs the clipping-based DP-FW baseline of [50].
func TalwarDPFW(ds *Dataset, opt TalwarFWOptions) ([]float64, error) {
	return core.TalwarDPFWSource(data.NewMemSource(ds), opt)
}

// DPGD runs the gradient-clipping DP-GD baseline of [1].
func DPGD(ds *Dataset, opt DPGDOptions) ([]float64, error) {
	return core.DPGDSource(data.NewMemSource(ds), opt)
}

// RobustGaussianGD runs the robust-plus-Gaussian baseline of [57].
func RobustGaussianGD(ds *Dataset, opt RobustGaussianGDOptions) ([]float64, error) {
	return core.RobustGaussianGDSource(data.NewMemSource(ds), opt)
}

// Robust statistics (internal/robust).
type (
	// MeanEstimator is the Catoni–Giulini robust scalar mean estimator
	// ˆx(s, β) of eqs. (1)–(5).
	MeanEstimator = robust.MeanEstimator

	// RobustWorkspace is the reusable iteration workspace of the fused
	// robust-gradient kernel (margins, scales, shard partials, cached
	// loop closures): one per run, steady-state calls allocate nothing.
	RobustWorkspace = robust.Workspace
)

// NewRobustWorkspace returns an empty fused-kernel workspace; buffers
// grow on first use and are reused afterwards.
func NewRobustWorkspace() *RobustWorkspace { return robust.NewWorkspace() }

// RobustMean estimates E x from heavy-tailed samples with truncation
// scale s and smoothing precision beta.
func RobustMean(xs []float64, s, beta float64) float64 {
	return robust.MeanEstimator{S: s, Beta: beta}.Estimate(xs)
}

// CatoniMean is Catoni's classical (non-private) M-estimator with the
// scale CatoniAlpha(n, v, ζ).
func CatoniMean(xs []float64, alpha float64) float64 { return robust.CatoniMean(xs, alpha) }

// CatoniAlpha returns the classical Catoni scale √(n·v/(2·log(1/ζ))).
func CatoniAlpha(n int, v, zeta float64) float64 { return robust.CatoniAlpha(n, v, zeta) }

// MedianOfMeans is the k-block median-of-means robust mean baseline.
func MedianOfMeans(xs []float64, k int) float64 { return robust.MedianOfMeans(xs, k) }

// GeometricMedian is the Weiszfeld geometric median of the rows.
func GeometricMedian(rows [][]float64) []float64 {
	return robust.GeometricMedian(rows, 500, 1e-10)
}

// SecondMomentUpperBound estimates a data-driven moment bound τ̂ via
// median-of-means on the squares, inflated by the given factor — a
// practical substitute for the paper's assumption that τ is known.
func SecondMomentUpperBound(xs []float64, blocks int, inflation float64) float64 {
	return robust.SecondMomentUpperBound(xs, blocks, inflation)
}

// DP mechanisms (internal/dp).
type (
	// DPParams is an (ε, δ) privacy budget.
	DPParams = dp.Params
)

// AdvancedComposition splits a total (ε, δ) budget across T mechanisms
// per Lemma 2.
func AdvancedComposition(total DPParams, T int) (DPParams, error) {
	return dp.AdvancedComposition(total, T)
}

// Lower bound (internal/minimax).

// MinimaxLowerBound returns the Theorem 9 private minimax floor for
// sparse heavy-tailed mean estimation in squared ℓ2 error.
func MinimaxLowerBound(tau float64, s, d, n int, eps, delta float64) float64 {
	return minimax.LowerBound(tau, s, d, n, eps, delta)
}

// Experiments (internal/experiments).
type (
	ExperimentConfig = experiments.Config
	ExperimentSpec   = experiments.Spec
	Panel            = experiments.Panel
	Series           = experiments.Series
)

// Experiments returns the registry reproducing Figures 1–11, the
// Theorem 9 check, and the ablations.
func Experiments() []ExperimentSpec { return experiments.Registry() }

// LookupExperiment finds an experiment by ID (e.g. "fig7").
func LookupExperiment(id string) (ExperimentSpec, error) { return experiments.Lookup(id) }

// The estimation service (internal/serve) and its pooled data layer
// (internal/data). See API.md for the HTTP surface and DESIGN.md,
// "Serving", for the architecture.
type (
	// SourcePool is the concurrency-safe registry of named datasets that
	// hands out per-request Source handles over shared immutable state.
	SourcePool = data.SourcePool
	// PoolEntry describes one registered pool dataset.
	PoolEntry = data.PoolEntry
	// Server is the HTTP handler of the estimation service; mount it on
	// any http.Server.
	Server = serve.Server
	// ServeOptions sizes the service (workers, queue depth, the
	// two-tier result cache, job TTL) and configures its multi-tenant
	// front door (TokensPath/NoAuth, per-tenant rate limits and
	// quotas, fair-queueing weights via the token file).
	ServeOptions = serve.Options
	// RunRequest is the body of POST /v1/run — and the parameter set of
	// ExecuteRun.
	RunRequest = serve.RunRequest
	// RunResult is the response of POST /v1/run.
	RunResult = serve.RunResult
	// JobStatus is the JSON shape of one async job.
	JobStatus = serve.JobStatus
	// SweepRequest is the body of POST /v1/sweep: one experiment
	// registry sweep, runnable by request.
	SweepRequest = experiments.SweepRequest
	// SweepProgress is one per-panel progress event of a running sweep,
	// delivered to RunSweep's optional callback and over the serving
	// layer's SSE stream.
	SweepProgress = experiments.Progress
)

// NewSourcePool returns an empty dataset pool.
func NewSourcePool() *SourcePool { return data.NewSourcePool() }

// NewServer builds the estimation service over an already-populated
// pool; the caller keeps pool ownership and must Close the server to
// drain its scheduler (or Shutdown for a deadline-bounded drain — see
// OPERATIONS.md, "Deploys and drains"). Exactly one of
// ServeOptions.TokensPath and ServeOptions.NoAuth must be set: the
// front door authenticates every request to a tenant or is explicitly
// opted out. It errors when the token file is missing or malformed, or
// when the durable cache tier (ServeOptions.CacheDir) cannot be
// created or scanned.
func NewServer(pool *SourcePool, opt ServeOptions) (*Server, error) { return serve.New(pool, opt) }

// ExecuteRun runs one algorithm over a source per the request — the
// dispatch shared by POST /v1/run and cmd/htdp -stream, so served and
// batch results are bit-identical by construction. ctx cancels the run
// cooperatively at chunk granularity; an uncancelled run is
// bit-identical under any context.
func ExecuteRun(ctx context.Context, src Source, q RunRequest) (*RunResult, error) {
	return serve.ExecuteRun(ctx, src, q)
}

// RunSweep runs one experiment registry sweep per the request,
// optionally feeding the source-streaming experiments from the given
// factory (nil for the default generators). A non-nil factory must be
// seed-invariant — same data regardless of the seed argument, like a
// CSV reopen or a pool acquire — because batched trials read it once
// and serve every grid point from that one pass; results are
// bit-identical to opening per point. ctx cancels the sweep
// cooperatively (workers stop within one grid point; a cancelled sweep
// returns the context's cause and no panels) and never affects the
// bytes of a sweep that runs to completion. An optional progress
// callback (at most one) receives one SweepProgress event per completed
// panel; it observes the sweep without changing its bytes. Trial
// failures come back as errors, never panics, and a failed sweep
// returns no panels.
func RunSweep(ctx context.Context, q SweepRequest, src func(seed int64) (Source, error), progress ...func(SweepProgress)) ([]Panel, error) {
	return experiments.RunSweep(ctx, q, src, progress...)
}

// Rényi-DP accounting (internal/dp).
type (
	// RDP is a Rényi-DP curve; compose with Compose/SelfCompose and
	// convert with ToDP.
	RDP = dp.RDP
)

// GaussianRDP returns the RDP curve of a Gaussian mechanism.
func GaussianRDP(sigma, sensitivity float64) RDP { return dp.GaussianRDP(sigma, sensitivity) }

// GaussianSigmaRDP calibrates σ for T-fold Gaussian composition under
// RDP accounting (tighter than advanced composition); +Inf when no σ
// meets the budget.
func GaussianSigmaRDP(sensitivity float64, p DPParams, T int) float64 {
	return dp.GaussianSigmaRDP(sensitivity, p, T)
}

// AmplifyBySubsampling applies the classical subsampling amplification
// lemma to an (ε, δ) guarantee.
func AmplifyBySubsampling(p DPParams, q float64) DPParams {
	return dp.AmplifyBySubsampling(p, q)
}

// Vector and matrix utilities commonly needed around the API
// (internal/vecmath).
type (
	// Mat is the dense row-major matrix backing Dataset features.
	Mat = vecmath.Mat
)

// NewMat allocates a zeroed r×c matrix.
func NewMat(r, c int) *Mat { return vecmath.NewMat(r, c) }

// Norm2 returns ‖v‖₂.
func Norm2(v []float64) float64 { return vecmath.Norm2(v) }

// Dist2 returns ‖a−b‖₂.
func Dist2(a, b []float64) float64 { return vecmath.Dist2(a, b) }

// Norm0 returns the number of non-zeros.
func Norm0(v []float64) int { return vecmath.Norm0(v) }
