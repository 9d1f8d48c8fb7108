package randx

import (
	"math"
	"strings"
	"testing"
)

// integratePDF numerically integrates d.PDF over [lo,hi] with Simpson's
// rule; used to check each density is properly normalized.
func integratePDF(d Dist, lo, hi float64, n int) float64 {
	if n%2 == 1 {
		n++
	}
	h := (hi - lo) / float64(n)
	s := d.PDF(lo) + d.PDF(hi)
	for i := 1; i < n; i++ {
		x := lo + float64(i)*h
		if i%2 == 1 {
			s += 4 * d.PDF(x)
		} else {
			s += 2 * d.PDF(x)
		}
	}
	return s * h / 3
}

func checkDist(t *testing.T, d Dist, lo, hi float64, n int, meanTol, varTol float64) {
	t.Helper()
	// Density normalizes to 1 on an interval that captures ~all the mass.
	if z := integratePDF(d, lo, hi, 4000); math.Abs(z-1) > 0.02 {
		t.Errorf("%s: ∫pdf = %v", d.Name(), z)
	}
	// Sample moments match analytic moments when they exist.
	r := New(123)
	var s, s2 float64
	for i := 0; i < n; i++ {
		x := d.Sample(r)
		s += x
		s2 += x * x
	}
	m := s / float64(n)
	v := s2/float64(n) - m*m
	if am := d.Mean(); !math.IsNaN(am) && !math.IsInf(am, 0) {
		if math.Abs(m-am) > meanTol {
			t.Errorf("%s: sample mean %v vs analytic %v", d.Name(), m, am)
		}
	}
	if av := d.Var(); !math.IsNaN(av) && !math.IsInf(av, 0) {
		if math.Abs(v-av) > varTol {
			t.Errorf("%s: sample var %v vs analytic %v", d.Name(), v, av)
		}
	}
}

func TestNormalDist(t *testing.T)   { checkDist(t, Normal{1, 2}, -20, 22, 200000, 0.05, 0.2) }
func TestLaplaceDist(t *testing.T)  { checkDist(t, Laplace{0, 1.5}, -40, 40, 200000, 0.05, 0.3) }
func TestLogisticDist(t *testing.T) { checkDist(t, Logistic{0, 0.5}, -25, 25, 200000, 0.02, 0.05) }

func TestLogNormalDist(t *testing.T) {
	// σ = √0.6 as in the paper's Lognormal(0, 0.6).
	d := LogNormal{0, math.Sqrt(0.6)}
	checkDist(t, d, 1e-9, 200, 400000, 0.05, 0.4)
	want := math.Exp(0.3)
	if math.Abs(d.Mean()-want) > 1e-12 {
		t.Errorf("lognormal mean = %v, want %v", d.Mean(), want)
	}
}

func TestStudentTDist(t *testing.T) {
	checkDist(t, StudentT{10}, -60, 60, 400000, 0.03, 0.2)
	if !math.IsNaN(StudentT{1}.Mean()) {
		t.Error("t(1) mean should be NaN (Cauchy)")
	}
	if !math.IsInf(StudentT{2}.Var(), 1) {
		t.Error("t(2) var should be +Inf")
	}
}

func TestLogLogisticDist(t *testing.T) {
	// Shape 3: mean and variance exist.
	checkDist(t, LogLogistic{3}, 1e-9, 400, 400000, 0.1, 2.0)
	// The paper's c = 0.1 has no mean: verify it reports NaN and that
	// sampling still works and is positive.
	d := LogLogistic{0.1}
	if !math.IsNaN(d.Mean()) || !math.IsNaN(d.Var()) {
		t.Error("loglogistic(0.1) moments should be NaN")
	}
	r := New(77)
	for i := 0; i < 1000; i++ {
		if x := d.Sample(r); x <= 0 || math.IsNaN(x) {
			t.Fatalf("bad loglogistic sample %v", x)
		}
	}
}

func TestLogGammaDist(t *testing.T) {
	d := LogGamma{0.5}
	checkDist(t, d, -60, 10, 400000, 0.05, 0.3)
	// Analytic mean is ψ(0.5) = −γ − 2 ln 2.
	want := -0.5772156649015329 - 2*math.Ln2
	if math.Abs(d.Mean()-want) > 1e-6 {
		t.Errorf("loggamma mean = %v, want %v", d.Mean(), want)
	}
	// Analytic variance is ψ′(0.5) = π²/2.
	if math.Abs(d.Var()-math.Pi*math.Pi/2) > 1e-6 {
		t.Errorf("loggamma var = %v, want %v", d.Var(), math.Pi*math.Pi/2)
	}
}

func TestParetoDist(t *testing.T) {
	checkDist(t, Pareto{1, 4}, 1, 500, 400000, 0.05, 0.5)
	if !math.IsInf(Pareto{1, 1.5}.Var(), 1) {
		t.Error("pareto(α=1.5) var should be +Inf")
	}
	if !math.IsInf(Pareto{1, 0.5}.Mean(), 1) {
		t.Error("pareto(α=0.5) mean should be +Inf")
	}
}

func TestShifted(t *testing.T) {
	base := LogNormal{0, 1}
	d := Shifted{Base: base}
	checkDist(t, d, -3, 200, 400000, 0.08, 2.0)
	if math.Abs(d.Mean()) > 1e-12 {
		t.Errorf("shifted mean = %v, want 0", d.Mean())
	}
	off := Shifted{Base: base, Offset: 2}
	if math.Abs(off.Mean()-2) > 1e-12 {
		t.Errorf("offset mean = %v, want 2", off.Mean())
	}
}

func TestMixture(t *testing.T) {
	d := Mixture{
		Weights:    []float64{0.5, 0.5},
		Components: []Dist{Normal{-2, 1}, Normal{2, 1}},
	}
	checkDist(t, d, -12, 12, 300000, 0.03, 0.2)
	if math.Abs(d.Mean()) > 1e-12 {
		t.Errorf("mixture mean = %v", d.Mean())
	}
	// Var = within + between = 1 + 4.
	if math.Abs(d.Var()-5) > 1e-12 {
		t.Errorf("mixture var = %v, want 5", d.Var())
	}
}

func TestDigammaTrigamma(t *testing.T) {
	// ψ(1) = −γ, ψ(2) = 1 − γ, ψ′(1) = π²/6.
	const gamma = 0.5772156649015329
	if got := digamma(1); math.Abs(got+gamma) > 1e-10 {
		t.Errorf("digamma(1) = %v", got)
	}
	if got := digamma(2); math.Abs(got-(1-gamma)) > 1e-10 {
		t.Errorf("digamma(2) = %v", got)
	}
	if got := trigamma(1); math.Abs(got-math.Pi*math.Pi/6) > 1e-10 {
		t.Errorf("trigamma(1) = %v", got)
	}
	// Recurrence ψ(x+1) = ψ(x) + 1/x on non-integer points.
	for _, x := range []float64{0.3, 1.7, 4.2} {
		if diff := digamma(x+1) - digamma(x) - 1/x; math.Abs(diff) > 1e-10 {
			t.Errorf("digamma recurrence at %v: %v", x, diff)
		}
		if diff := trigamma(x) - trigamma(x+1) - 1/(x*x); math.Abs(diff) > 1e-10 {
			t.Errorf("trigamma recurrence at %v: %v", x, diff)
		}
	}
}

func TestNames(t *testing.T) {
	for _, d := range []Dist{
		Normal{0, 1}, Laplace{0, 1},
		LogNormal{0, 1}, StudentT{10}, Logistic{0, 1}, LogLogistic{1},
		LogGamma{1}, Pareto{1, 2}, Shifted{Base: Normal{0, 1}},
		Mixture{Weights: []float64{1}, Components: []Dist{Normal{0, 1}}},
	} {
		if d.Name() == "" || strings.ContainsAny(d.Name(), " \t") {
			t.Errorf("bad name %q", d.Name())
		}
	}
}

func TestSampleVec(t *testing.T) {
	r := New(5)
	v := SampleVec(Normal{0, 1}, r, make([]float64, 100))
	allSame := true
	for i := 1; i < len(v); i++ {
		if v[i] != v[0] {
			allSame = false
		}
	}
	if allSame {
		t.Fatal("SampleVec produced constant output")
	}
}

// TestStudentTSampleVecMatchesScalar: SampleVec's Student-t path draws
// exactly what r.StudentT does, bit for bit, in the same order, across
// both χ² branches (ν < 2 boosts the Gamma shape) and vectors of every
// length a call may ask for.
func TestStudentTSampleVecMatchesScalar(t *testing.T) {
	const perSeed = 250_000 // four seeds: 10⁶ draws per ν
	lengths := []int{1, 3, 400, 1000}
	for _, nu := range []float64{0.5, 1, 2, 3, 10} {
		for seed := int64(1); seed <= 4; seed++ {
			vec, scalar := New(seed), New(seed)
			buf := make([]float64, 1000)
			for drawn, k := 0, 0; drawn < perSeed; k++ {
				v := SampleVec(StudentT{Nu: nu}, vec, buf[:lengths[k%len(lengths)]])
				for i, got := range v {
					if want := scalar.StudentT(nu); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("ν=%g seed %d draw %d: SampleVec %v (%#x), StudentT %v (%#x)",
							nu, seed, drawn+i, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
				drawn += len(v)
			}
		}
	}
}
