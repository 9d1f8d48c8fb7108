package dp

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

func TestGaussianRDPShape(t *testing.T) {
	r := GaussianRDP(2, 1)
	// ε(α) = α/(2σ²) = α/8.
	for i, a := range r.Orders {
		want := a / 8
		if math.Abs(r.Eps[i]-want) > 1e-12 {
			t.Fatalf("ε(%v) = %v, want %v", a, r.Eps[i], want)
		}
	}
}

func TestLaplaceRDPLimits(t *testing.T) {
	// As α → ∞ the Laplace RDP approaches the pure-DP level Δ/b.
	r := LaplaceRDP(0.5, 1) // pure ε = 2
	last := r.Eps[len(r.Eps)-1]
	if math.Abs(last-2) > 0.05 {
		t.Fatalf("ε(α→∞) = %v, want ≈2", last)
	}
	// Monotone non-decreasing in α.
	for i := 1; i < len(r.Eps); i++ {
		if r.Eps[i] < r.Eps[i-1]-1e-12 {
			t.Fatalf("Laplace RDP not monotone at order %v", r.Orders[i])
		}
	}
	// At α = 2 the closed form from Mironov Table II.
	t2 := 2.0
	a := 2.0
	want := math.Log(a/(2*a-1)*math.Exp((a-1)*t2)+(a-1)/(2*a-1)*math.Exp(-a*t2)) / (a - 1)
	for i, ord := range r.Orders {
		if ord == 2 {
			if math.Abs(r.Eps[i]-want) > 1e-12 {
				t.Fatalf("ε(2) = %v, want %v", r.Eps[i], want)
			}
		}
	}
}

func TestComposeSelfCompose(t *testing.T) {
	g := GaussianRDP(1, 1)
	both := g.Compose(g)
	ten := g.SelfCompose(10)
	for i := range g.Eps {
		if math.Abs(both.Eps[i]-2*g.Eps[i]) > 1e-12 {
			t.Fatal("Compose != 2×")
		}
		if math.Abs(ten.Eps[i]-10*g.Eps[i]) > 1e-12 {
			t.Fatal("SelfCompose != 10×")
		}
	}
}

func TestToDPDecreasesInDelta(t *testing.T) {
	g := GaussianRDP(1, 1).SelfCompose(10)
	if g.ToDP(1e-3) > g.ToDP(1e-9) {
		t.Fatal("larger δ should give smaller ε")
	}
}

func TestRDPBeatsAdvancedComposition(t *testing.T) {
	// Calibrating T-fold Gaussian composition by RDP must need no more
	// noise than advanced composition, and strictly less for large T.
	total := Params{Eps: 1, Delta: 1e-5}
	for _, T := range []int{10, 100, 1000} {
		perIter, err := AdvancedComposition(total, T)
		if err != nil {
			t.Fatal(err)
		}
		sigmaAdv := GaussianSigma(1, perIter)
		sigmaRDP := GaussianSigmaRDP(1, total, T)
		if sigmaRDP > sigmaAdv*1.001 {
			t.Fatalf("T=%d: σ_RDP=%v worse than σ_adv=%v", T, sigmaRDP, sigmaAdv)
		}
		if T >= 100 && sigmaRDP > sigmaAdv*0.8 {
			t.Errorf("T=%d: σ_RDP=%v not clearly better than σ_adv=%v", T, sigmaRDP, sigmaAdv)
		}
		// The calibrated σ actually meets the budget under RDP accounting.
		if got := GaussianRDP(sigmaRDP, 1).SelfCompose(T).ToDP(total.Delta); got > total.Eps*1.01 {
			t.Fatalf("T=%d: calibrated σ yields ε=%v > %v", T, got, total.Eps)
		}
	}
}

func TestAmplifyBySubsampling(t *testing.T) {
	p := Params{Eps: 1, Delta: 1e-5}
	amp := AmplifyBySubsampling(p, 0.1)
	want := math.Log1p(0.1 * (math.E - 1))
	if math.Abs(amp.Eps-want) > 1e-12 {
		t.Fatalf("amplified ε = %v, want %v", amp.Eps, want)
	}
	if math.Abs(amp.Delta-1e-6) > 1e-18 {
		t.Fatalf("amplified δ = %v", amp.Delta)
	}
	// q = 1 is a no-op on ε.
	if got := AmplifyBySubsampling(p, 1); math.Abs(got.Eps-p.Eps) > 1e-12 {
		t.Fatalf("q=1 changed ε: %v", got.Eps)
	}
	// Small q: ε′ ≈ q·(e^ε − 1), strictly smaller.
	small := AmplifyBySubsampling(p, 0.01)
	if small.Eps >= amp.Eps || small.Eps <= 0 {
		t.Fatalf("amplification not monotone: %v", small.Eps)
	}
}

func TestSampledGaussianRDP(t *testing.T) {
	// q = 1 reduces to the plain Gaussian curve α/(2m²) at every
	// integer order.
	m := 2.0
	full := SampledGaussianRDP(m, 1)
	for i, a := range full.Orders {
		if a != math.Trunc(a) || a < 2 {
			t.Fatalf("non-integer order %v in curve", a)
		}
		want := a / (2 * m * m)
		if math.Abs(full.Eps[i]-want) > 1e-9 {
			t.Fatalf("q=1: ε(%v) = %v, want %v", a, full.Eps[i], want)
		}
	}
	// Hand-evaluated α = 2 term: ε(2) = log((1−q)² + 2q(1−q) + q²e^{1/m²}).
	q := 0.1
	sub := SampledGaussianRDP(m, q)
	want2 := math.Log((1-q)*(1-q) + 2*q*(1-q) + q*q*math.Exp(1/(m*m)))
	if math.Abs(sub.Eps[0]-want2) > 1e-12 {
		t.Fatalf("ε(2) = %v, want %v", sub.Eps[0], want2)
	}
	// Subsampling strictly helps at every order, and more for smaller q.
	tiny := SampledGaussianRDP(m, 0.01)
	for i := range sub.Eps {
		if sub.Eps[i] >= full.Eps[i] {
			t.Fatalf("order %v: q=0.1 ε=%v not below q=1 ε=%v",
				sub.Orders[i], sub.Eps[i], full.Eps[i])
		}
		if tiny.Eps[i] >= sub.Eps[i] {
			t.Fatalf("order %v: q=0.01 not below q=0.1", sub.Orders[i])
		}
		if tiny.Eps[i] <= 0 {
			t.Fatalf("order %v: ε=%v not positive", sub.Orders[i], tiny.Eps[i])
		}
	}
}

func TestSubsampledGaussianSigmaBeatsAmplifiedComposition(t *testing.T) {
	total := Params{Eps: 1, Delta: 1e-5}
	q := 0.02
	for _, T := range []int{50, 500} {
		perStep, err := AdvancedComposition(total, T)
		if err != nil {
			t.Fatal(err)
		}
		eps0 := math.Log1p((math.Exp(perStep.Eps) - 1) / q)
		sigmaAmp := GaussianSigma(1, Params{Eps: eps0, Delta: perStep.Delta / q})
		sigmaRDP := SubsampledGaussianSigma(1, q, total, T)
		if sigmaRDP > sigmaAmp*1.001 {
			t.Fatalf("T=%d: σ_RDP=%v worse than amplified-AC σ=%v", T, sigmaRDP, sigmaAmp)
		}
		// The calibrated σ actually meets the budget under the accountant.
		got := SampledGaussianRDP(sigmaRDP, q).SelfCompose(T).ToDP(total.Delta)
		if got > total.Eps*1.01 {
			t.Fatalf("T=%d: calibrated σ yields ε=%v > %v", T, got, total.Eps)
		}
		// And barely smaller σ does not (the bisection is tight).
		slack := SampledGaussianRDP(sigmaRDP*0.99, q).SelfCompose(T).ToDP(total.Delta)
		if slack <= total.Eps {
			t.Fatalf("T=%d: σ not tight (0.99σ still meets budget)", T)
		}
	}
	// q = 1 matches the unsubsampled RDP calibration closely.
	full := SubsampledGaussianSigma(1, 1, total, 100)
	plain := GaussianSigmaRDP(1, total, 100)
	if math.Abs(full-plain)/plain > 0.05 {
		t.Fatalf("q=1 σ=%v far from GaussianSigmaRDP σ=%v", full, plain)
	}
}

// composeSigma is core's "compose" DPSGD calibration: the per-step
// advanced-composition budget, de-amplified through the subsampling
// lemma and Gaussian-calibrated.
func composeSigma(sens, q float64, p Params, T int) float64 {
	perStep, err := AdvancedComposition(p, T)
	if err != nil {
		panic(err)
	}
	eps0 := math.Log1p((math.Exp(perStep.Eps) - 1) / q)
	delta0 := perStep.Delta / q
	if delta0 >= 1 {
		delta0 = perStep.Delta
	}
	return GaussianSigma(sens, Params{Eps: eps0, Delta: delta0})
}

// TestSubsampledGaussianSigmaProperties checks the accountant over a
// (q, T, ε, δ) grid: σ is non-increasing in ε and δ and non-decreasing
// in T and q (to a relative 1e-12), never above the compose
// calibration outside the small-q·T corner (q ≤ 0.01 with T ≤ 5) where
// the RDP conversion is the looser one, and at q = 1 the plain
// Gaussian RDP calibration is never above advanced composition.
func TestSubsampledGaussianSigmaProperties(t *testing.T) {
	qs := []float64{40.0 / 9000, .01, .02, .05, .1, .25, .5, 1}
	Ts := []int{1, 2, 5, 20, 60, 200, 1000}
	epss := []float64{.1, .5, 1, 2, 4, 8}
	deltas := []float64{1e-9, 1e-5, 1e-3}
	sigma := make([][][][]float64, len(qs))
	corner := 0
	for qi, q := range qs {
		sigma[qi] = make([][][]float64, len(Ts))
		for ti, T := range Ts {
			sigma[qi][ti] = make([][]float64, len(epss))
			for ei, eps := range epss {
				sigma[qi][ti][ei] = make([]float64, len(deltas))
				for di, delta := range deltas {
					p := Params{Eps: eps, Delta: delta}
					s := SubsampledGaussianSigma(1, q, p, T)
					sigma[qi][ti][ei][di] = s
					if c := composeSigma(1, q, p, T); s > c*(1+1e-12) {
						if q > .01 || T > 5 {
							t.Errorf("q=%g T=%d ε=%g δ=%g: rdp σ %v above compose σ %v", q, T, eps, delta, s, c)
						}
						corner++
					}
					if q == 1 {
						perIter, err := AdvancedComposition(p, T)
						if err != nil {
							t.Fatal(err)
						}
						if g, ac := GaussianSigmaRDP(1, p, T), GaussianSigma(1, perIter); g > ac*(1+1e-12) {
							t.Errorf("T=%d ε=%g δ=%g: GaussianSigmaRDP %v above advanced composition %v", T, eps, delta, g, ac)
						}
					}
				}
			}
		}
	}
	t.Logf("rdp σ above compose σ in %d small-q·T cases", corner)
	// The documented counterexample: rdp is not always the smaller σ.
	p := Params{Eps: 1, Delta: 1e-5}
	if s, c := SubsampledGaussianSigma(1, 40.0/9000, p, 1), composeSigma(1, 40.0/9000, p, 1); s <= c {
		t.Errorf("q=40/9000 T=1 ε=1 δ=1e-5: rdp σ %v no longer above compose σ %v; update the docs", s, c)
	}
	// Monotonicity along each axis, between neighbouring grid points.
	notAbove := func(what string, a, b float64) { // want a ≤ b
		if a > b*(1+1e-12) {
			t.Errorf("%s: σ %v then %v", what, a, b)
		}
	}
	for qi := range qs {
		for ti := range Ts {
			for ei := range epss {
				for di := range deltas {
					at := fmt.Sprintf("q=%g T=%d ε=%g δ=%g", qs[qi], Ts[ti], epss[ei], deltas[di])
					s := sigma[qi][ti][ei][di]
					if qi > 0 {
						notAbove(at+": rises in q", sigma[qi-1][ti][ei][di], s)
					}
					if ti > 0 {
						notAbove(at+": rises in T", sigma[qi][ti-1][ei][di], s)
					}
					if ei > 0 {
						notAbove(at+": falls in ε", s, sigma[qi][ti][ei-1][di])
					}
					if di > 0 {
						notAbove(at+": falls in δ", s, sigma[qi][ti][ei][di-1])
					}
				}
			}
		}
	}
}

func TestRDPPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"gauss-sigma":   func() { GaussianRDP(0, 1) },
		"laplace-scale": func() { LaplaceRDP(0, 1) },
		"self-k":        func() { GaussianRDP(1, 1).SelfCompose(0) },
		"todp-delta":    func() { GaussianRDP(1, 1).ToDP(0) },
		"amp-q":         func() { AmplifyBySubsampling(Params{Eps: 1, Delta: 1e-5}, 0) },
		"sgm-m":         func() { SampledGaussianRDP(0, 0.5) },
		"sgm-q":         func() { SampledGaussianRDP(1, 0) },
		"subsigma-q":    func() { SubsampledGaussianSigma(1, 1.5, Params{Eps: 1, Delta: 1e-5}, 10) },
		"subsigma-T":    func() { SubsampledGaussianSigma(1, 0.1, Params{Eps: 1, Delta: 1e-5}, 0) },
		"grid-mismatch": func() {
			a := GaussianRDP(1, 1)
			b := RDP{Orders: []float64{2}, Eps: []float64{1}}
			a.Compose(b)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// The σ searches as they stood before the per-call plan, the exact
// skips and the fixed-point exit: the bisection loops of
// GaussianSigmaRDP and SubsampledGaussianSigma, the direct
// SampledGaussianRDP evaluation and logAddExp without its underflow
// skip. They are verbatim but for the names and one parameter: the
// subsampled search and curve take the per-order evaluation as a
// function, so the negative control can swap in a descending sum.
// TestSigmaBitIdenticalToDirect holds the production searches to these
// bit for bit.

func oracleLogAddExp(a, b float64) float64 {
	if a < b {
		a, b = b, a
	}
	if math.IsInf(a, -1) {
		return a
	}
	return a + math.Log1p(math.Exp(b-a))
}

func oracleGaussianSigmaRDP(sensitivity float64, p Params, T int) float64 {
	ok := func(sigma float64) bool {
		return GaussianRDP(sigma, sensitivity).SelfCompose(T).ToDP(p.Delta) <= p.Eps
	}
	// Bracket: the advanced-composition σ is always sufficient.
	perIter, err := AdvancedComposition(p, T)
	if err != nil {
		// T small or δ tiny: fall back to basic composition bracket.
		perIter = Params{Eps: p.Eps / float64(T), Delta: p.Delta / float64(T+1)}
	}
	hi := GaussianSigma(sensitivity, Params{Eps: perIter.Eps, Delta: math.Max(perIter.Delta, 1e-12)})
	if !ok(hi) {
		// Extremely unusual; widen until valid.
		for i := 0; i < 60 && !ok(hi); i++ {
			hi *= 2
		}
	}
	lo := hi / 1024
	for i := 0; i < 80; i++ {
		mid := math.Sqrt(lo * hi) // geometric bisection
		if ok(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

func oracleSampledGaussianRDP(noiseMult, q float64, eps func(m, q float64, alpha int) float64) RDP {
	if noiseMult <= 0 {
		panic("dp: SampledGaussianRDP needs noise multiplier > 0")
	}
	if q <= 0 || q > 1 {
		panic("dp: SampledGaussianRDP needs 0 < q ≤ 1")
	}
	var orders, epss []float64
	for _, a := range DefaultOrders() {
		if a < 2 || a != math.Trunc(a) {
			continue // the closed form needs integer α
		}
		orders = append(orders, a)
		epss = append(epss, eps(noiseMult, q, int(a)))
	}
	return RDP{Orders: orders, Eps: epss}
}

// oracleSampledGaussianEps evaluates the integer-order SGM bound in log space.
func oracleSampledGaussianEps(m, q float64, alpha int) float64 {
	lnQ := math.Log(q)
	ln1Q := math.Log1p(-q)
	logSum := math.Inf(-1)
	for k := 0; k <= alpha; k++ {
		if q == 1 && k < alpha {
			continue // (1−q)^{α−k} = 0: the term vanishes
		}
		term := oracleLnBinom(alpha, k) + float64(k)*lnQ + float64(k)*float64(k-1)/(2*m*m)
		if alpha-k > 0 {
			term += float64(alpha-k) * ln1Q
		}
		logSum = oracleLogAddExp(logSum, term)
	}
	return logSum / float64(alpha-1)
}

// oracleSampledGaussianEpsDescending is the negative control: the same
// terms summed from k = α down to 0.
func oracleSampledGaussianEpsDescending(m, q float64, alpha int) float64 {
	lnQ := math.Log(q)
	ln1Q := math.Log1p(-q)
	logSum := math.Inf(-1)
	for k := alpha; k >= 0; k-- {
		if q == 1 && k < alpha {
			continue
		}
		term := oracleLnBinom(alpha, k) + float64(k)*lnQ + float64(k)*float64(k-1)/(2*m*m)
		if alpha-k > 0 {
			term += float64(alpha-k) * ln1Q
		}
		logSum = oracleLogAddExp(logSum, term)
	}
	return logSum / float64(alpha-1)
}

// oracleLnBinom returns log C(n, k) via lgamma.
func oracleLnBinom(n, k int) float64 {
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}

func oracleSubsampledGaussianSigma(sensitivity, q float64, p Params, T int, eps func(m, q float64, alpha int) float64) float64 {
	ok := func(sigma float64) bool {
		return oracleSampledGaussianRDP(sigma/sensitivity, q, eps).SelfCompose(T).ToDP(p.Delta) <= p.Eps
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
	hi := GaussianSigma(sensitivity, Params{Eps: eps0, Delta: math.Max(delta0, 1e-12)})
	for i := 0; i < 60 && !ok(hi); i++ {
		hi *= 2
	}
	lo := hi / 1024
	for i := 0; i < 80; i++ {
		mid := math.Sqrt(lo * hi) // geometric bisection
		if ok(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// TestLogAddExpSkipExact holds logAddExp's underflow skip to the direct
// evaluation by bit pattern, around the skip's −746 margin and exp's
// underflow bound, at the infinities, at NaN and at −0.
func TestLogAddExpSkipExact(t *testing.T) {
	bases := []float64{math.Inf(-1), -1e308, -800, -1, math.Copysign(0, -1), 0, 1e-300, 1, 700, 1e308, math.Inf(1), math.NaN()}
	gaps := []float64{0, 1e-300, 1, 745, 745.13, 745.1332191019411, 745.2, 745.9999999, 746, 746.0000001, 747, 800, 1e308, math.Inf(1)}
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
	}
	for _, a := range bases {
		for _, g := range gaps {
			b := a - g
			if got, want := logAddExp(a, b), oracleLogAddExp(a, b); !same(got, want) {
				t.Errorf("logAddExp(%v, %v) = %v, direct %v", a, b, got, want)
			}
			if got, want := logAddExp(b, a), oracleLogAddExp(b, a); !same(got, want) {
				t.Errorf("logAddExp(%v, %v) = %v, direct %v", b, a, got, want)
			}
		}
	}
	if got := logAddExp(math.Copysign(0, -1), -800); math.Signbit(got) {
		t.Errorf("logAddExp(−0, −800) = %v, want +0 as the direct evaluation gives", got)
	}
}

// TestSigmaProbesDoNotAllocate pins the σ searches' allocation shape: a
// subsampled-Gaussian probe allocates nothing (its plan and scratch
// are per call), and a whole GaussianSigmaRDP search allocates only its
// copy of the order grid, however many probes it runs.
func TestSigmaProbesDoNotAllocate(t *testing.T) {
	plan := newSGMPlan(40.0 / 9000)
	logInvDelta := math.Log(1 / math.Pow(9000, -1.1))
	for _, m := range []float64{0.3, 1, 3} {
		if a := testing.AllocsPerRun(20, func() { plan.meets(m, 2, 1, logInvDelta) }); a != 0 {
			t.Errorf("meets at m=%v: %v allocs, want 0", m, a)
		}
	}
	if a := testing.AllocsPerRun(5, func() { GaussianSigmaRDP(1, Params{Eps: 1, Delta: 1e-5}, 100) }); a > 1 {
		t.Errorf("GaussianSigmaRDP: %v allocs per call, want at most 1 (the order grid)", a)
	}
}

// sigmaCase is one calibration: sensitivity Δ, sampling rate q, budget
// and step count.
type sigmaCase struct {
	sens, q float64
	p       Params
	T       int
}

func (c sigmaCase) String() string {
	return fmt.Sprintf("Δ=%g q=%g ε=%g δ=%g T=%d", c.sens, c.q, c.p.Eps, c.p.Delta, c.T)
}

// bitIdentityCases is the oracle grid, one slice per (Δ, q), plus the
// calibrations the repository actually runs: perfbench's cold-runs
// dpsgd/rdp requests (heavy: n = 9000, T = 2; demo-linear: n = 2000,
// T = 20; batch 40 and clip 1, so Δ = 2/40 and q = 40/n; δ = n^-1.1)
// and the dpsgd sweep at the golden's and benchio's scale (n = 100,
// T = 60, batches 1, 2, 5, 10 and 25, ε ∈ {0.5, 1, 2, 4}).
func bitIdentityCases() map[string][]sigmaCase {
	cases := map[string][]sigmaCase{}
	for _, sens := range []float64{1, 2.0 / 40} {
		for _, q := range []float64{40.0 / 9000, 40.0 / 2000, 1e-3, .01, .02, .05, .25, .5, 1} {
			name := fmt.Sprintf("Δ=%g/q=%g", sens, q)
			for _, T := range []int{1, 2, 20, 60, 200, 5000} {
				for _, eps := range []float64{0.1, 1, 4, 16} {
					for _, delta := range []float64{1e-9, 1e-5, math.Pow(9000, -1.1), math.Pow(2000, -1.1)} {
						cases[name] = append(cases[name], sigmaCase{sens, q, Params{Eps: eps, Delta: delta}, T})
					}
				}
			}
		}
	}
	cases["perfbench"] = []sigmaCase{
		{2.0 / 40, 40.0 / 9000, Params{Eps: 1, Delta: math.Pow(9000, -1.1)}, 2},
		{2.0 / 40, 40.0 / 2000, Params{Eps: 1, Delta: math.Pow(2000, -1.1)}, 20},
		{1, 40.0 / 9000, Params{Eps: 1, Delta: math.Pow(9000, -1.1)}, 2}, // its dp.rdp_sigma_ms probe
	}
	for _, b := range []float64{1, 2, 5, 10, 25} {
		for _, eps := range []float64{0.5, 1, 2, 4} {
			cases["sweep"] = append(cases["sweep"], sigmaCase{2 / b, b / 100, Params{Eps: eps, Delta: math.Pow(100, -1.1)}, 60})
		}
	}
	return cases
}

// TestSigmaBitIdenticalToDirect compares both σ searches with the
// direct oracle by bit pattern over the bitIdentityCases grid (q = 1
// cases also through GaussianSigmaRDP), and the SampledGaussianRDP
// curve itself over a grid of noise multipliers.
func TestSigmaBitIdenticalToDirect(t *testing.T) {
	for name, cases := range bitIdentityCases() {
		cases := cases
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, c := range cases {
				want := oracleSubsampledGaussianSigma(c.sens, c.q, c.p, c.T, oracleSampledGaussianEps)
				if got := SubsampledGaussianSigma(c.sens, c.q, c.p, c.T); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("SubsampledGaussianSigma %v = %v (%#x), direct %v (%#x)",
						c, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				if c.q == 1 {
					want := oracleGaussianSigmaRDP(c.sens, c.p, c.T)
					if got := GaussianSigmaRDP(c.sens, c.p, c.T); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("GaussianSigmaRDP %v = %v (%#x), direct %v (%#x)",
							c, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
			}
		})
	}
	t.Run("curve", func(t *testing.T) {
		t.Parallel()
		for _, q := range []float64{1e-6, 40.0 / 9000, .02, .25, .5, 1 - 1e-9, 1} {
			for _, m := range []float64{1e-3, .05, .3, .7, 1, 1.3, 4, 30, 1e6} {
				got := SampledGaussianRDP(m, q)
				want := oracleSampledGaussianRDP(m, q, oracleSampledGaussianEps)
				for i := range want.Eps {
					if got.Orders[i] != want.Orders[i] || math.Float64bits(got.Eps[i]) != math.Float64bits(want.Eps[i]) {
						t.Errorf("q=%g m=%g order %v: ε %v, direct %v", q, m, want.Orders[i], got.Eps[i], want.Eps[i])
					}
				}
			}
		}
	})
}

// TestSigmaOracleDetectsSummationOrder is the bit-identity test's
// negative control: summing the same terms from k = α down must move σ
// on some case of the grid, or the grid could not tell a changed
// summation order from the direct one. It stops at the first such case.
func TestSigmaOracleDetectsSummationOrder(t *testing.T) {
	all := bitIdentityCases()
	names := make([]string, 0, len(all))
	for name := range all {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, c := range all[name] {
			want := oracleSubsampledGaussianSigma(c.sens, c.q, c.p, c.T, oracleSampledGaussianEps)
			if desc := oracleSubsampledGaussianSigma(c.sens, c.q, c.p, c.T, oracleSampledGaussianEpsDescending); desc != want {
				t.Logf("%v: descending summation gives σ %v, direct %v", c, desc, want)
				return
			}
		}
	}
	t.Fatal("descending summation matched the direct σ on every case")
}
