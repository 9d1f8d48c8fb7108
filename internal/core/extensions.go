package core

import (
	"errors"
	"fmt"
	"math"

	"htdp/internal/data"
	"htdp/internal/dp"
	"htdp/internal/loss"
	"htdp/internal/polytope"
	"htdp/internal/randx"
	"htdp/internal/robust"
	"htdp/internal/vecmath"
)

// This file implements extensions beyond the paper's algorithm listings:
// the one-shot private sparse mean estimator (the Theorem 9
// upper-bound instance in closed form), the Theorem 3 robust-regression
// wrapper with its constant-step schedule, and the full-data (ε, δ)-DP
// Frank–Wolfe variant whose utility analysis the paper leaves open
// (discussion after Theorem 3) — privacy follows from advanced
// composition regardless, so the variant is well-defined and the
// ablations compare it against Algorithm 1's data-splitting.

// SparseMeanOptions configures the one-shot private sparse mean
// estimator: Catoni robust means per coordinate followed by a single
// Peeling call.
type SparseMeanOptions struct {
	Eps   float64
	Delta float64
	// SStar is the sparsity of the released mean.
	SStar int
	// K is the robust truncation scale (0 → the Lemma-4-optimal
	// √(n·τ/(2·log(2·d/ζ)))).
	K float64
	// Beta is the smoothing precision (0 → 1).
	Beta float64
	// Tau bounds max_j E[xⱼ²] (0 → 1).
	Tau float64
	// Zeta is the failure probability entering the default K (0 → 0.05).
	Zeta float64
	// Parallelism is the worker count for the robust coordinate means
	// and the Peeling scan (0 → GOMAXPROCS, 1 → sequential);
	// bit-identical at every setting.
	Parallelism int
	Rng         *randx.RNG
}

// SparseMeanSource privately estimates an s*-sparse mean of the
// source's feature rows (labels are ignored), streaming the robust
// coordinate-wise mean one chunk at a time. The estimate has
// ℓ∞-sensitivity 4√2·K/(3n), so the single Peeling release is
// (ε, δ)-DP.
func SparseMeanSource(src data.Source, opt SparseMeanOptions) ([]float64, error) {
	if opt.Rng == nil {
		return nil, errors.New("core: SparseMeanOptions needs Rng")
	}
	if err := (dp.Params{Eps: opt.Eps, Delta: opt.Delta}).Validate(); err != nil {
		return nil, err
	}
	if opt.Delta == 0 {
		return nil, errors.New("core: SparseMean needs δ > 0")
	}
	n, d := src.N(), src.D()
	if err := checkData(n, d, nil, nil); err != nil {
		return nil, err
	}
	if opt.SStar < 1 || opt.SStar > d {
		return nil, fmt.Errorf("core: SStar=%d outside [1,%d]", opt.SStar, d)
	}
	if opt.Beta == 0 {
		opt.Beta = 1
	}
	if opt.Tau == 0 {
		opt.Tau = 1
	}
	if opt.Zeta == 0 {
		opt.Zeta = 0.05
	}
	if opt.K == 0 {
		opt.K = math.Sqrt(float64(n) * opt.Tau / (2 * math.Log(2*float64(d)/opt.Zeta)))
	}
	if !(opt.K > 0) {
		return nil, fmt.Errorf("core: invalid truncation scale K=%v", opt.K)
	}
	est := robust.MeanEstimator{S: opt.K, Beta: opt.Beta, Parallelism: opt.Parallelism}
	sm := est.NewStream(d)
	var cur *data.Dataset
	rowFn := func(i int, buf []float64) { copy(buf, cur.X.Row(i)) }
	err := data.EachChunk(src, data.StreamChunks(n), func(_ int, ck *data.Dataset) error {
		cur = ck
		sm.Add(ck.N(), rowFn)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: SparseMean: %w", err)
	}
	mean := sm.Finish(make([]float64, d))
	return PeelingP(opt.Rng, mean, opt.SStar, opt.Eps, opt.Delta, est.Sensitivity(n), opt.Parallelism), nil
}

// RobustRegressionOptions configures the Theorem 3 instance: ε-DP
// Frank–Wolfe on the non-convex biweight loss with the constant-step
// schedule η = 1/√T and T = Θ(√(nε/log(d/ζ))).
type RobustRegressionOptions struct {
	// C is the biweight window parameter (0 → 1).
	C float64
	// Domain is the polytope (zero value → unit ℓ1 ball).
	Domain polytope.Polytope
	Eps    float64
	// T overrides the Theorem-3 iteration count when positive.
	T int
	// Tau bounds E[xⱼ²] (0 → 1); Zeta is the failure probability (0 → 0.05).
	Tau, Zeta float64
	// Parallelism is forwarded to the underlying Frank–Wolfe run
	// (0 → GOMAXPROCS, 1 → sequential).
	Parallelism int
	Rng         *randx.RNG
	Trace       Trace
}

// RobustRegressionSource runs the Theorem 3 robust-regression
// algorithm over a data source: Algorithm 1 on ψ(⟨x, w⟩ − y) with the
// constant step size. It is ε-DP and achieves excess risk
// Õ(λmax·log^{1/4}(dn/ζ)/(nε)^{1/4}) under Assumption 2.
func RobustRegressionSource(src data.Source, opt RobustRegressionOptions) ([]float64, error) {
	if opt.Rng == nil {
		return nil, errors.New("core: RobustRegressionOptions needs Rng")
	}
	if opt.C == 0 {
		opt.C = 1
	}
	if opt.Zeta == 0 {
		opt.Zeta = 0.05
	}
	if opt.Tau == 0 {
		opt.Tau = 1
	}
	if opt.Domain == nil {
		opt.Domain = polytope.NewL1Ball(src.D(), 1)
	}
	T := opt.T
	if T == 0 {
		logTerm := math.Log(float64(src.D()) / opt.Zeta)
		if logTerm < 1 {
			logTerm = 1
		}
		T = defaultT(math.Sqrt(float64(src.N())*opt.Eps/logTerm), src.N())
	}
	if T < 1 {
		T = 1
	}
	if T > src.N() {
		T = src.N()
	}
	return FrankWolfeSource(src, FWOptions{
		Loss:        loss.Biweight{C: opt.C},
		Domain:      opt.Domain,
		Eps:         opt.Eps,
		T:           T,
		Tau:         opt.Tau,
		Zeta:        opt.Zeta,
		EtaConst:    1 / math.Sqrt(float64(T)),
		Parallelism: opt.Parallelism,
		Rng:         opt.Rng,
		Trace:       opt.Trace,
	})
}

// FullDataFWOptions configures the (ε, δ)-DP full-data variant of
// Algorithm 1: every iteration computes the robust gradient on the
// whole dataset and pays for it through advanced composition, instead
// of splitting the data into T disjoint chunks.
type FullDataFWOptions struct {
	Loss   loss.Loss
	Domain polytope.Polytope
	Eps    float64
	Delta  float64
	// T is the iteration count (0 → ⌈(nε)^{2/5}⌉, the [50]-style order,
	// clamped to [1, n]).
	T int
	// S is the robust truncation scale (0 → √(nε·τ/(√T·log(|V|·d·T/ζ)))).
	S float64
	// Beta, Tau, Zeta as in FWOptions (0 → 1, 1, 0.05).
	Beta, Tau, Zeta float64
	W0              []float64
	// Parallelism is the worker count for the robust-gradient hot path
	// (0 → GOMAXPROCS, 1 → sequential); bit-identical at every setting.
	Parallelism int
	Rng         *randx.RNG
	Trace       Trace
}

// FullDataFWSource runs the full-data heavy-tailed DP-FW over a data
// source; each iteration streams the whole source one chunk at a time
// through a robust.StreamMean accumulator, so at most one chunk is
// resident. Privacy: each iteration's exponential mechanism touches
// the whole dataset at budget ε/(2√(2T·log(1/δ))), so the composition
// is (ε, δ)-DP by Lemma 2. The paper leaves this variant's utility
// analysis open (the iterate depends on all data, breaking the
// independence used in the proof of Theorem 2); the abl-split-vs-full
// experiment measures it instead.
func FullDataFWSource(src data.Source, opt FullDataFWOptions) ([]float64, error) {
	if opt.Loss == nil || opt.Domain == nil || opt.Rng == nil {
		return nil, errors.New("core: FullDataFWOptions needs Loss, Domain and Rng")
	}
	if err := (dp.Params{Eps: opt.Eps, Delta: opt.Delta}).Validate(); err != nil {
		return nil, err
	}
	if opt.Delta == 0 {
		return nil, errors.New("core: FullDataFW needs δ > 0")
	}
	n, d := src.N(), src.D()
	if err := checkData(n, d, opt.Domain, opt.W0); err != nil {
		return nil, err
	}
	if opt.Beta == 0 {
		opt.Beta = 1
	}
	if opt.Tau == 0 {
		opt.Tau = 1
	}
	if opt.Zeta == 0 {
		opt.Zeta = 0.05
	}
	if opt.T == 0 {
		opt.T = defaultT(math.Ceil(math.Pow(float64(n)*opt.Eps, 0.4)), n)
	}
	if opt.T < 1 {
		opt.T = 1
	}
	if opt.S == 0 {
		nv := float64(opt.Domain.NumVertices())
		logTerm := math.Log(nv * float64(d) * float64(opt.T) / opt.Zeta)
		if logTerm < 1 {
			logTerm = 1
		}
		opt.S = math.Sqrt(float64(n) * opt.Eps * opt.Tau / (math.Sqrt(float64(opt.T)) * logTerm))
	}
	if opt.W0 == nil {
		opt.W0 = make([]float64, d)
	}
	if !opt.Domain.Contains(opt.W0, 1e-9) {
		return nil, errors.New("core: W0 outside the domain")
	}

	est := robust.MeanEstimator{S: opt.S, Beta: opt.Beta, Parallelism: opt.Parallelism}
	epsIter := opt.Eps / (2 * math.Sqrt(2*float64(opt.T)*math.Log(1/opt.Delta)))
	sm := est.NewStream(d)
	C := data.StreamChunks(n)

	w := vecmath.Clone(opt.W0)
	grad := make([]float64, d)
	vtx := make([]float64, d)
	sens := maxVertexL1(opt.Domain, vtx) * est.Sensitivity(n)
	sel := newVertexSelector(opt.Domain, grad)
	// The per-chunk accumulation is hoisted: margin losses stream
	// through the fused AddChunk kernel, others through the generic Add
	// with a current-chunk callback.
	ml, fused := loss.AsMargin(opt.Loss)
	var cur *data.Dataset
	var gradFn func(i int, buf []float64)
	if !fused {
		gradFn = func(i int, buf []float64) {
			opt.Loss.Grad(buf, w, cur.X.Row(i), cur.Y[i])
		}
	}
	chunkBody := func(_ int, ck *data.Dataset) error {
		if fused {
			sws := sm.Workspace()
			m := ck.N()
			margins := sws.Margins(m)
			sws.Mat.MatVec(margins, ck.X, w, opt.Parallelism)
			scales := sws.Scales(m)
			loss.ScalesFromMargins(ml, scales, margins, ck.Y)
			sm.AddChunk(ck.X, scales, ml.RegCoeff(), w)
		} else {
			cur = ck
			sm.Add(ck.N(), gradFn)
		}
		return nil
	}
	for t := 1; t <= opt.T; t++ {
		sm.Reset()
		if err := data.EachChunk(src, C, chunkBody); err != nil {
			return nil, fmt.Errorf("core: FullDataFW: %w", err)
		}
		sm.Finish(grad)
		idx := sel.pick(opt.Rng, sens, epsIter)
		opt.Domain.Vertex(idx, vtx)
		vecmath.Lerp(w, w, vtx, 2/float64(t+2))
		if opt.Trace != nil {
			opt.Trace(t, w)
		}
	}
	return w, nil
}
