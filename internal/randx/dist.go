package randx

import (
	"fmt"
	"math"
)

// Dist is a scalar probability distribution. Mean and Var return NaN
// when the moment does not exist (heavy tails) and +Inf when it
// diverges but is signed, matching the convention of robust-statistics
// texts. PDF returns the density (0 outside the support).
type Dist interface {
	Name() string
	Sample(r *RNG) float64
	Mean() float64
	Var() float64
	PDF(x float64) float64
}

// SampleVec fills dst with i.i.d. draws from d.
func SampleVec(d Dist, r *RNG, dst []float64) []float64 {
	for i := range dst {
		dst[i] = d.Sample(r)
	}
	return dst
}

// Normal is N(mu, sigma²).
type Normal struct{ Mu, Sigma float64 }

func (d Normal) Name() string { return fmt.Sprintf("normal(%g,%g)", d.Mu, d.Sigma) }
func (d Normal) Sample(r *RNG) float64 {
	return d.Mu + d.Sigma*r.Normal()
}
func (d Normal) Mean() float64 { return d.Mu }
func (d Normal) Var() float64  { return d.Sigma * d.Sigma }
func (d Normal) PDF(x float64) float64 {
	z := (x - d.Mu) / d.Sigma
	return math.Exp(-z*z/2) / (d.Sigma * math.Sqrt(2*math.Pi))
}

// Laplace is the double-exponential law with the given location and
// scale b; variance 2b².
type Laplace struct{ Mu, Scale float64 }

func (d Laplace) Name() string { return fmt.Sprintf("laplace(%g,%g)", d.Mu, d.Scale) }
func (d Laplace) Sample(r *RNG) float64 {
	return d.Mu + r.Laplace(d.Scale)
}
func (d Laplace) Mean() float64 { return d.Mu }
func (d Laplace) Var() float64  { return 2 * d.Scale * d.Scale }
func (d Laplace) PDF(x float64) float64 {
	return math.Exp(-math.Abs(x-d.Mu)/d.Scale) / (2 * d.Scale)
}

// LogNormal is exp(N(Mu, Sigma²)) — the paper's §6.3 feature law
// Lognormal(0, 0.6), whose density is exp(−ln²w/(2σ²))/(wσ√(2π)).
// The paper's second parameter is σ² = 0.6, so Sigma = √0.6 there.
type LogNormal struct{ Mu, Sigma float64 }

func (d LogNormal) Name() string { return fmt.Sprintf("lognormal(%g,%g)", d.Mu, d.Sigma) }
func (d LogNormal) Sample(r *RNG) float64 {
	return math.Exp(d.Mu + d.Sigma*r.Normal())
}
func (d LogNormal) Mean() float64 {
	return math.Exp(d.Mu + d.Sigma*d.Sigma/2)
}
func (d LogNormal) Var() float64 {
	s2 := d.Sigma * d.Sigma
	return (math.Exp(s2) - 1) * math.Exp(2*d.Mu+s2)
}
func (d LogNormal) PDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := (math.Log(x) - d.Mu) / d.Sigma
	return math.Exp(-z*z/2) / (x * d.Sigma * math.Sqrt(2*math.Pi))
}

// StudentT has Nu degrees of freedom: moments of order ≥ Nu diverge,
// the canonical polynomial-tailed law (§6.4 uses ν = 10).
type StudentT struct{ Nu float64 }

func (d StudentT) Name() string { return fmt.Sprintf("studentt(%g)", d.Nu) }
func (d StudentT) Sample(r *RNG) float64 {
	return r.StudentT(d.Nu)
}
func (d StudentT) Mean() float64 {
	if d.Nu <= 1 {
		return math.NaN()
	}
	return 0
}
func (d StudentT) Var() float64 {
	if d.Nu <= 1 {
		return math.NaN()
	}
	if d.Nu <= 2 {
		return math.Inf(1)
	}
	return d.Nu / (d.Nu - 2)
}
func (d StudentT) PDF(x float64) float64 {
	nu := d.Nu
	lg := func(a float64) float64 { v, _ := math.Lgamma(a); return v }
	logC := lg((nu+1)/2) - lg(nu/2) - 0.5*math.Log(nu*math.Pi)
	return math.Exp(logC - (nu+1)/2*math.Log1p(x*x/nu))
}

// Logistic has location Mu and scale S; §6.5 uses Logistic(0, 0.5).
type Logistic struct{ Mu, S float64 }

func (d Logistic) Name() string { return fmt.Sprintf("logistic(%g,%g)", d.Mu, d.S) }
func (d Logistic) Sample(r *RNG) float64 {
	u := r.Float64()
	for u == 0 || u == 1 {
		u = r.Float64()
	}
	return d.Mu + d.S*math.Log(u/(1-u))
}
func (d Logistic) Mean() float64 { return d.Mu }
func (d Logistic) Var() float64  { return d.S * d.S * math.Pi * math.Pi / 3 }
func (d Logistic) PDF(x float64) float64 {
	e := math.Exp(-(x - d.Mu) / d.S)
	den := d.S * (1 + e) * (1 + e)
	return e / den
}

// LogLogistic is the Fisk law with shape C used in Figure 8
// (density c·w^{−c−1}(1+w^{−c})^{−2} on w > 0). For C ≤ 2 the variance
// diverges; for C ≤ 1 even the mean does.
type LogLogistic struct{ C float64 }

func (d LogLogistic) Name() string { return fmt.Sprintf("loglogistic(%g)", d.C) }
func (d LogLogistic) Sample(r *RNG) float64 {
	u := r.Float64()
	for u == 0 || u == 1 {
		u = r.Float64()
	}
	return math.Pow(u/(1-u), 1/d.C)
}
func (d LogLogistic) Mean() float64 {
	if d.C <= 1 {
		return math.NaN()
	}
	b := math.Pi / d.C
	return b / math.Sin(b)
}
func (d LogLogistic) Var() float64 {
	if d.C <= 2 {
		return math.NaN()
	}
	b := math.Pi / d.C
	m := b / math.Sin(b)
	return 2*b/math.Sin(2*b) - m*m
}
func (d LogLogistic) PDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	t := math.Pow(x, -d.C)
	return d.C * math.Pow(x, -d.C-1) / ((1 + t) * (1 + t))
}

// LogGamma is the law of log(G) for G ~ Gamma(C, 1), with density
// exp(c·w − e^w)/Γ(c) (Figure 9 uses c = 0.5). Left tail is heavy for
// small C.
type LogGamma struct{ C float64 }

func (d LogGamma) Name() string { return fmt.Sprintf("loggamma(%g)", d.C) }
func (d LogGamma) Sample(r *RNG) float64 {
	g := r.Gamma(d.C)
	for g == 0 {
		g = r.Gamma(d.C)
	}
	return math.Log(g)
}

// digamma approximates ψ(x) via the asymptotic series with recurrence.
func digamma(x float64) float64 {
	var acc float64
	for x < 12 {
		acc -= 1 / x
		x++
	}
	inv := 1 / x
	inv2 := inv * inv
	return acc + math.Log(x) - inv/2 - inv2*(1.0/12-inv2*(1.0/120-inv2/252))
}

// trigamma approximates ψ′(x) similarly.
func trigamma(x float64) float64 {
	var acc float64
	for x < 12 {
		acc += 1 / (x * x)
		x++
	}
	inv := 1 / x
	inv2 := inv * inv
	return acc + inv*(1+inv/2+inv2*(1.0/6-inv2*(1.0/30-inv2/42)))
}

func (d LogGamma) Mean() float64 { return digamma(d.C) }
func (d LogGamma) Var() float64  { return trigamma(d.C) }
func (d LogGamma) PDF(x float64) float64 {
	lg, _ := math.Lgamma(d.C)
	return math.Exp(d.C*x - math.Exp(x) - lg)
}

// Pareto has tail P(X > x) = (xm/x)^α for x ≥ xm; a textbook
// heavy-tailed law used in the robust-mean property tests.
type Pareto struct{ Xm, Alpha float64 }

func (d Pareto) Name() string { return fmt.Sprintf("pareto(%g,%g)", d.Xm, d.Alpha) }
func (d Pareto) Sample(r *RNG) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return d.Xm / math.Pow(u, 1/d.Alpha)
}
func (d Pareto) Mean() float64 {
	if d.Alpha <= 1 {
		return math.Inf(1)
	}
	return d.Alpha * d.Xm / (d.Alpha - 1)
}
func (d Pareto) Var() float64 {
	if d.Alpha <= 2 {
		return math.Inf(1)
	}
	a := d.Alpha
	return d.Xm * d.Xm * a / ((a - 1) * (a - 1) * (a - 2))
}
func (d Pareto) PDF(x float64) float64 {
	if x < d.Xm {
		return 0
	}
	return d.Alpha * math.Pow(d.Xm, d.Alpha) / math.Pow(x, d.Alpha+1)
}

// Shifted recentres a base distribution by −base.Mean() plus Offset, so
// heavy-tailed noise can be made (approximately) zero-mean as the linear
// model of §6.1 requires.
type Shifted struct {
	Base   Dist
	Offset float64
}

func (d Shifted) Name() string { return fmt.Sprintf("shifted(%s,%+g)", d.Base.Name(), d.Offset) }
func (d Shifted) shift() float64 {
	m := d.Base.Mean()
	if math.IsNaN(m) || math.IsInf(m, 0) {
		m = 0 // cannot centre a mean-less law; leave it as is
	}
	return d.Offset - m
}
func (d Shifted) Sample(r *RNG) float64 { return d.Base.Sample(r) + d.shift() }
func (d Shifted) Mean() float64 {
	m := d.Base.Mean()
	if math.IsNaN(m) || math.IsInf(m, 0) {
		return m
	}
	return d.Offset
}
func (d Shifted) Var() float64          { return d.Base.Var() }
func (d Shifted) PDF(x float64) float64 { return d.Base.PDF(x - d.shift()) }

// Mixture draws from Components[i] with probability Weights[i]. Used by
// the simulated "real" datasets to mimic column-heterogeneous tails.
type Mixture struct {
	Weights    []float64
	Components []Dist
}

func (d Mixture) Name() string { return fmt.Sprintf("mixture(%d)", len(d.Components)) }
func (d Mixture) Sample(r *RNG) float64 {
	u := r.Float64() * sum(d.Weights)
	var acc float64
	for i, w := range d.Weights {
		acc += w
		if u < acc {
			return d.Components[i].Sample(r)
		}
	}
	return d.Components[len(d.Components)-1].Sample(r)
}
func (d Mixture) Mean() float64 {
	var m, tot float64
	for i, w := range d.Weights {
		c := d.Components[i].Mean()
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return c
		}
		m += w * c
		tot += w
	}
	return m / tot
}
func (d Mixture) Var() float64 {
	mu := d.Mean()
	if math.IsNaN(mu) || math.IsInf(mu, 0) {
		return math.NaN()
	}
	var v, tot float64
	for i, w := range d.Weights {
		cv, cm := d.Components[i].Var(), d.Components[i].Mean()
		if math.IsNaN(cv) || math.IsInf(cv, 0) {
			return cv
		}
		v += w * (cv + (cm-mu)*(cm-mu))
		tot += w
	}
	return v / tot
}
func (d Mixture) PDF(x float64) float64 {
	var p, tot float64
	for i, w := range d.Weights {
		p += w * d.Components[i].PDF(x)
		tot += w
	}
	return p / tot
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}
