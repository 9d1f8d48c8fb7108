package dp

import (
	"fmt"
	"math"
)

// RDP is a Rényi differential privacy curve: ε(α) at a fixed grid of
// orders α > 1. RDP composes by addition, converts to (ε, δ)-DP via
// ε = ε(α) + log(1/δ)/(α−1), and gives substantially tighter multi-round
// accounting than the advanced composition theorem — the modern
// accountant behind DP-SGD implementations. The package keeps Lemma 2
// (the paper's tool) as the default and offers RDP as an extension for
// the baselines.
type RDP struct {
	Orders []float64
	Eps    []float64
}

// DefaultOrders is the standard accountant grid.
func DefaultOrders() []float64 {
	orders := []float64{1.25, 1.5, 1.75, 2, 2.5, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 48, 64, 128, 256, 512}
	return append([]float64(nil), orders...)
}

// GaussianRDP returns the RDP curve of the Gaussian mechanism with the
// given noise standard deviation and ℓ2 sensitivity:
// ε(α) = α·Δ²/(2σ²).
func GaussianRDP(sigma, sensitivity float64) RDP {
	if sigma <= 0 || sensitivity < 0 {
		panic("dp: GaussianRDP needs σ > 0 and Δ ≥ 0")
	}
	orders := DefaultOrders()
	eps := make([]float64, len(orders))
	c := sensitivity * sensitivity / (2 * sigma * sigma)
	for i, a := range orders {
		eps[i] = a * c
	}
	return RDP{Orders: orders, Eps: eps}
}

// logAddExp returns log(e^a + e^b) without overflow.
func logAddExp(a, b float64) float64 {
	if a < b {
		a, b = b, a
	}
	if math.IsInf(a, -1) {
		return a
	}
	if b-a < -746 {
		// math.Exp is exactly 0 below its underflow bound (≈ −745.13),
		// so the sum is a + log1p(0): skip both calls. The + 0 keeps
		// their result for a = −0, which comes out +0.
		return a + 0
	}
	return a + math.Log1p(math.Exp(b-a))
}

// Compose returns the curve of running both mechanisms: RDP adds
// order-wise. Both curves must share the same order grid.
func (r RDP) Compose(o RDP) RDP {
	if len(r.Orders) != len(o.Orders) {
		panic("dp: Compose order-grid mismatch")
	}
	out := RDP{Orders: append([]float64(nil), r.Orders...), Eps: make([]float64, len(r.Eps))}
	for i := range r.Eps {
		if r.Orders[i] != o.Orders[i] {
			panic("dp: Compose order-grid mismatch")
		}
		out.Eps[i] = r.Eps[i] + o.Eps[i]
	}
	return out
}

// SelfCompose returns the curve of running the mechanism k times.
func (r RDP) SelfCompose(k int) RDP {
	if k < 1 {
		panic("dp: SelfCompose needs k ≥ 1")
	}
	out := RDP{Orders: append([]float64(nil), r.Orders...), Eps: make([]float64, len(r.Eps))}
	for i, e := range r.Eps {
		out.Eps[i] = float64(k) * e
	}
	return out
}

// ToDP converts the curve to the best (ε, δ)-DP guarantee on the grid:
// ε = min_α [ε(α) + log(1/δ)/(α−1)].
func (r RDP) ToDP(delta float64) float64 {
	if delta <= 0 || delta >= 1 {
		panic("dp: ToDP needs 0 < δ < 1")
	}
	best := math.Inf(1)
	for i, a := range r.Orders {
		if a <= 1 {
			continue
		}
		if e := r.Eps[i] + math.Log(1/delta)/(a-1); e < best {
			best = e
		}
	}
	return best
}

// GaussianSigmaRDP returns the smallest σ on a bisection grid such that
// T-fold composition of the Gaussian mechanism with ℓ2-sensitivity Δ is
// (ε, δ)-DP under RDP accounting, or +Inf when the search certifies no
// σ. It is never larger than the advanced-composition calibration and
// is typically ~2–3× smaller for large T.
func GaussianSigmaRDP(sensitivity float64, p Params, T int) float64 {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("dp: GaussianSigmaRDP: %v", err))
	}
	if p.Delta == 0 {
		panic("dp: GaussianSigmaRDP needs δ > 0")
	}
	if T < 1 {
		panic("dp: GaussianSigmaRDP needs T ≥ 1")
	}
	orders := DefaultOrders()
	logInvDelta := math.Log(1 / p.Delta)
	// ok(σ) is GaussianRDP(σ, Δ).SelfCompose(T).ToDP(δ) ≤ ε, evaluated
	// order by order with the same operations and without building the
	// curve: the minimum is ≤ ε exactly when some order is.
	ok := func(sigma float64) bool {
		if sigma <= 0 {
			panic("dp: GaussianRDP needs σ > 0 and Δ ≥ 0")
		}
		c := sensitivity * sensitivity / (2 * sigma * sigma)
		for _, a := range orders {
			// float64() rounds the product before the add, as storing
			// the composed curve did, on platforms that fuse them too.
			if float64(float64(T)*(a*c))+logInvDelta/(a-1) <= p.Eps {
				return true
			}
		}
		return false
	}
	// Bracket: the advanced-composition σ.
	perIter, err := AdvancedComposition(p, T)
	if err != nil {
		// T small or δ tiny: fall back to basic composition bracket.
		perIter = Params{Eps: p.Eps / float64(T), Delta: p.Delta / float64(T+1)}
	}
	return bisectSigma(GaussianSigma(sensitivity, Params{Eps: perIter.Eps, Delta: math.Max(perIter.Delta, 1e-12)}), ok)
}

// bisectSigma is the σ search behind GaussianSigmaRDP and
// SubsampledGaussianSigma. Starting from the bracket hi, it doubles hi
// (at most 60 times) until ok(hi), then runs 80 steps of geometric
// bisection on [hi/1024, hi], keeping hi on the passing side, and
// returns hi: the smallest passing σ on that grid. When no probe
// passed, no σ it tried is certified, and it returns +Inf.
//
// The midpoint is √(lo·hi), taken as √lo·√hi where the product would
// lose precision (0, subnormal) or overflow (+Inf): brackets scale with
// the sensitivity, which may sit at either end of the float range.
//
// The bisection reaches adjacent floats after about 55 steps; from then
// on mid equals lo or hi. Once mid equals an end whose outcome is known
// (hi after a passing probe, lo after a failing one; the initial lo is
// never probed), the step would leave both ends unchanged, and so would
// every step after it, so the loop stops there with the same hi.
func bisectSigma(hi float64, ok func(sigma float64) bool) float64 {
	hiPasses := false
	for i := 0; i < 60; i++ {
		if hiPasses = ok(hi); hiPasses {
			break
		}
		hi *= 2
	}
	lo, loFails := hi/1024, false
	for i := 0; i < 80; i++ {
		p := lo * hi
		mid := math.Sqrt(p)
		if p < 0x1p-1022 || math.IsInf(p, 1) {
			mid = math.Sqrt(lo) * math.Sqrt(hi)
		}
		if (mid == hi && hiPasses) || (mid == lo && loFails) {
			break
		}
		if ok(mid) {
			hi, hiPasses = mid, true
		} else {
			lo, loFails = mid, true
		}
	}
	if !hiPasses {
		return math.Inf(1)
	}
	return hi
}

// SampledGaussianRDP returns the RDP curve of the subsampled Gaussian
// mechanism: each round touches a uniformly sampled q-fraction of the
// data and adds Gaussian noise with multiplier m = σ/Δ. The curve is
// the Mironov–Talwar–Zhang bound at integer orders α ≥ 2,
//
//	ε(α) = (1/(α−1))·log Σ_{k=0}^{α} C(α,k)(1−q)^{α−k} q^k e^{k(k−1)/(2m²)},
//
// evaluated in log space (binomials via lgamma) so large orders and
// small m never overflow. At q = 1 only the k = α term survives and the
// curve reduces to the plain Gaussian α/(2m²). This is the accountant
// that makes subsampling amplification quantitative for DP-SGD: per-step
// ε shrinks roughly like q at small q, instead of the lossier
// log(1 + q(e^ε − 1)) amplification lemma applied after calibration.
func SampledGaussianRDP(noiseMult, q float64) RDP {
	if noiseMult <= 0 {
		panic("dp: SampledGaussianRDP needs noise multiplier > 0")
	}
	if q <= 0 || q > 1 {
		panic("dp: SampledGaussianRDP needs 0 < q ≤ 1")
	}
	plan := newSGMPlan(q)
	den := 2 * noiseMult * noiseMult
	eps := make([]float64, len(plan.orders))
	for i, a := range plan.orders {
		terms, _ := plan.terms(i, den)
		eps[i] = logSumExp(terms) / (a - 1)
	}
	return RDP{Orders: plan.orders, Eps: eps}
}

// sgmPlan holds the parts of SampledGaussianRDP's bound that do not
// depend on the noise multiplier m, for one sampling rate q and every
// integer order α ≥ 2 of DefaultOrders. Term k of order α is
//
//	log[C(α,k) q^k (1−q)^{α−k} e^{k(k−1)/(2m²)}] = (A + k(k−1)/(2m²)) + (α−k)·ln(1−q)
//
// with A = lnBinom(α,k) + k·ln q tabulated here (lnBinom from one lgamma
// table), and the last product left out at k = α. A σ search evaluates
// the bound at ~55 values of m against one plan.
type sgmPlan struct {
	orders  []float64   // the integer orders α ≥ 2, ascending
	a       [][]float64 // a[i][k]: A of order orders[i], k = 0..α
	ln1Q    float64     // ln(1−q)
	full    bool        // q = 1: (1−q)^{α−k} = 0, only the k = α term survives
	scratch []float64   // one order's terms, reused by every evaluation
}

func newSGMPlan(q float64) *sgmPlan {
	lnQ := math.Log(q)
	p := &sgmPlan{ln1Q: math.Log1p(-q), full: q == 1}
	var lnFact []float64 // lnFact[j] = ln j! = lgamma(j+1)
	for _, a := range DefaultOrders() {
		if a < 2 || a != math.Trunc(a) {
			continue // the closed form needs integer α
		}
		alpha := int(a)
		for j := len(lnFact); j <= alpha; j++ {
			v, _ := math.Lgamma(float64(j + 1))
			lnFact = append(lnFact, v)
		}
		row := make([]float64, alpha+1)
		for k := range row {
			row[k] = lnFact[alpha] - lnFact[k] - lnFact[alpha-k] + float64(k)*lnQ
		}
		p.orders = append(p.orders, a)
		p.a = append(p.a, row)
	}
	p.scratch = make([]float64, len(lnFact))
	return p
}

// term is term k of the order whose A row is row, at den = 2m².
func (p *sgmPlan) term(row []float64, k int, den float64) float64 {
	fk, alpha := float64(k), len(row)-1
	t := row[k] + fk*(fk-1)/den
	if k < alpha {
		t += (float64(alpha) - fk) * p.ln1Q
	}
	return t
}

// terms evaluates order i's terms, k ascending, at den = 2m² into the
// plan's scratch and returns them with their largest value (−∞ if every
// term is NaN). At q = 1 that is the k = α term alone.
func (p *sgmPlan) terms(i int, den float64) (terms []float64, largest float64) {
	row := p.a[i]
	k0 := 0
	if p.full {
		k0 = len(row) - 1
	}
	terms = p.scratch[:len(row)-k0]
	largest = math.Inf(-1)
	for k := k0; k < len(row); k++ {
		t := p.term(row, k, den)
		terms[k-k0] = t
		if t > largest {
			largest = t
		}
	}
	return terms, largest
}

// logSumExp folds the terms in order with logAddExp: log Σ e^t.
func logSumExp(terms []float64) float64 {
	s := math.Inf(-1)
	for _, t := range terms {
		s = logAddExp(s, t)
	}
	return s
}

// meets reports SampledGaussianRDP(m, q).SelfCompose(T).ToDP(δ) ≤ ε —
// the same bool, computed with the same operations — without building
// the curve. logInvDelta is log(1/δ). The minimum over orders is ≤ ε
// exactly when some order's value is (NaN orders count in neither
// form), so it returns at the first such order. An order fails without
// its log-sum when one of its terms already puts it over ε: the fold
// never yields less than its largest term (each logAddExp step adds
// log1p of a non-negative value to the larger argument, and rounding
// is monotone) unless it yields NaN, and the order's value
// T·(S/(α−1)) + log(1/δ)/(α−1) is non-decreasing in its log-sum S.
// The k = α term, which dominates at small m, is tried first. A
// multiplier that is not positive adds no noise and meets no budget.
func (p *sgmPlan) meets(m float64, T int, eps, logInvDelta float64) bool {
	if !(m > 0) {
		return false
	}
	den := 2 * m * m
	for i, a := range p.orders {
		// The order's value at log-sum s, as SelfCompose then ToDP
		// compute it; float64() rounds the product before the add, as
		// storing the composed curve did.
		value := func(s float64) float64 {
			return float64(float64(T)*(s/(a-1))) + logInvDelta/(a-1)
		}
		row := p.a[i]
		if value(p.term(row, len(row)-1, den)) > eps {
			continue
		}
		terms, largest := p.terms(i, den)
		if value(largest) > eps {
			continue
		}
		if value(logSumExp(terms)) <= eps {
			return true
		}
	}
	return false
}

// SubsampledGaussianSigma returns the smallest σ on a bisection grid
// such that T rounds of the Gaussian mechanism with ℓ2-sensitivity Δ,
// each run on a uniformly sampled q-fraction of the data, are
// (ε, δ)-DP under subsampled-Gaussian RDP accounting
// (SampledGaussianRDP). The search starts from the "compose"
// calibration (the amplification lemma over an advanced-composition
// per-step budget), so σ is never larger than that one whenever this
// accountant certifies it. At small q·T it may not: the search then
// doubles its bracket and σ comes out larger. Over q ∈ [40/9000, 1],
// T ∈ [1, 1000], ε ∈ [0.1, 8] and δ ∈ [1e-9, 1e-3] that happens in 16
// of 1 008 cases, all with q ≤ 0.01 and T ≤ 5 (q = 40/9000, T = 1,
// ε = 1, δ = 1e-5: 1.154 against 1.105). Elsewhere σ is typically
// severalfold smaller at small q and large T.
//
// No σ meets a budget at the accountant's floor, ε ≤ log(1/δ)/511 (the
// δ term of the largest order, which remains as σ → ∞), and the search
// then returns +Inf, which callers must refuse.
func SubsampledGaussianSigma(sensitivity, q float64, p Params, T int) float64 {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("dp: SubsampledGaussianSigma: %v", err))
	}
	if p.Delta == 0 {
		panic("dp: SubsampledGaussianSigma needs δ > 0")
	}
	if sensitivity <= 0 {
		panic("dp: SubsampledGaussianSigma needs Δ > 0")
	}
	if q <= 0 || q > 1 {
		panic("dp: SubsampledGaussianSigma needs 0 < q ≤ 1")
	}
	if T < 1 {
		panic("dp: SubsampledGaussianSigma needs T ≥ 1")
	}
	plan := newSGMPlan(q)
	logInvDelta := math.Log(1 / p.Delta)
	ok := func(sigma float64) bool {
		return plan.meets(sigma/sensitivity, T, p.Eps, logInvDelta)
	}
	// Bracket with the amplification-lemma calibration: per-step budget
	// by advanced composition, de-amplified through the subsampling
	// lemma, Gaussian-calibrated — the "compose" accountant's σ.
	perStep, err := AdvancedComposition(p, T)
	if err != nil {
		perStep = Params{Eps: p.Eps / float64(T), Delta: p.Delta / float64(T+1)}
	}
	eps0 := math.Log1p((math.Exp(perStep.Eps) - 1) / q)
	delta0 := perStep.Delta / q
	if delta0 >= 1 {
		delta0 = perStep.Delta
	}
	return bisectSigma(GaussianSigma(sensitivity, Params{Eps: eps0, Delta: math.Max(delta0, 1e-12)}), ok)
}

// AmplifyBySubsampling returns the privacy of running an (ε, δ)-DP
// mechanism on a uniformly subsampled q-fraction of the data:
// (log(1 + q(e^ε − 1)), q·δ) — the classical amplification lemma.
func AmplifyBySubsampling(p Params, q float64) Params {
	if q <= 0 || q > 1 {
		panic("dp: AmplifyBySubsampling needs 0 < q ≤ 1")
	}
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("dp: AmplifyBySubsampling: %v", err))
	}
	return Params{
		Eps:   math.Log1p(q * (math.Exp(p.Eps) - 1)),
		Delta: q * p.Delta,
	}
}
