package data

import (
	"math"
	"sort"
	"testing"

	"htdp/internal/randx"
	"htdp/internal/vecmath"
)

func TestSubsetSplit(t *testing.T) {
	r := randx.New(1)
	d := Linear(r, LinearOpt{N: 10, D: 3, Feature: randx.Normal{Mu: 0, Sigma: 1}})
	sub := d.Subset(2, 5)
	if sub.N() != 3 || sub.D() != 3 {
		t.Fatalf("Subset shape %dx%d", sub.N(), sub.D())
	}
	// View semantics: subset row 0 aliases parent row 2.
	sub.X.Set(0, 0, 99)
	if d.X.At(2, 0) != 99 {
		t.Fatal("Subset should share storage")
	}
	parts := d.Split(3)
	total := 0
	for _, p := range parts {
		total += p.N()
	}
	if total != 10 || len(parts) != 3 {
		t.Fatalf("Split covers %d rows in %d parts", total, len(parts))
	}
	// Near-equal: sizes differ by at most one.
	for _, p := range parts {
		if p.N() < 3 || p.N() > 4 {
			t.Fatalf("unbalanced part size %d", p.N())
		}
	}
}

func TestSubsetPanics(t *testing.T) {
	r := randx.New(2)
	d := Linear(r, LinearOpt{N: 4, D: 2, Feature: randx.Normal{Mu: 0, Sigma: 1}})
	for name, f := range map[string]func(){
		"neg":      func() { d.Subset(-1, 2) },
		"past-end": func() { d.Subset(0, 5) },
		"inverted": func() { d.Subset(3, 1) },
		"split0":   func() { d.Split(0) },
		"splitbig": func() { d.Split(5) },
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

func TestCloneIndependent(t *testing.T) {
	r := randx.New(3)
	d := Linear(r, LinearOpt{N: 4, D: 2, Feature: randx.Normal{Mu: 0, Sigma: 1}})
	c := d.Clone()
	c.X.Set(0, 0, 1234)
	c.Y[0] = 1234
	if d.X.At(0, 0) == 1234 || d.Y[0] == 1234 {
		t.Fatal("Clone shares storage")
	}
}

func TestShrink(t *testing.T) {
	r := randx.New(4)
	d := Linear(r, LinearOpt{N: 50, D: 3, Feature: randx.LogNormal{Mu: 0, Sigma: 2}, Noise: randx.StudentT{Nu: 3}})
	k := 1.5
	s := d.Shrink(k)
	for _, v := range s.X.Data {
		if math.Abs(v) > k {
			t.Fatalf("feature %v exceeds K", v)
		}
	}
	for _, v := range s.Y {
		if math.Abs(v) > k {
			t.Fatalf("label %v exceeds K", v)
		}
	}
	// Original untouched.
	exceeded := false
	for _, v := range d.X.Data {
		exceeded = exceeded || math.Abs(v) > k
	}
	if !exceeded {
		t.Skip("no entry exceeded K; nothing to verify")
	}
}

func TestL1UnitWStar(t *testing.T) {
	r := randx.New(5)
	for i := 0; i < 50; i++ {
		w := L1UnitWStar(r, 7)
		if math.Abs(vecmath.Norm1(w)-1) > 1e-12 {
			t.Fatalf("‖w*‖₁ = %v", vecmath.Norm1(w))
		}
	}
	// Signs occur on both sides eventually.
	neg := false
	for i := 0; i < 20 && !neg; i++ {
		for _, x := range L1UnitWStar(r, 5) {
			if x < 0 {
				neg = true
			}
		}
	}
	if !neg {
		t.Error("no negative coordinates in 100 draws")
	}
}

func TestSparseWStar(t *testing.T) {
	r := randx.New(6)
	for i := 0; i < 50; i++ {
		w := SparseWStar(r, 30, 5)
		if got := vecmath.Norm0(w); got > 5 {
			t.Fatalf("‖w*‖₀ = %d > 5", got)
		}
		if n := vecmath.Norm2(w); n > 1+1e-12 || n < 0.999 {
			t.Fatalf("‖w*‖₂ = %v, want ≈1", n)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for s* > d")
		}
	}()
	SparseWStar(r, 3, 4)
}

func TestLinearPlantedModel(t *testing.T) {
	// Noiseless: labels equal ⟨w*, x⟩ exactly.
	r := randx.New(7)
	d := Linear(r, LinearOpt{N: 100, D: 4, Feature: randx.Normal{Mu: 0, Sigma: 1}})
	for i := 0; i < d.N(); i++ {
		if math.Abs(d.Y[i]-vecmath.Dot(d.WStar, d.X.Row(i))) > 1e-12 {
			t.Fatalf("row %d label mismatch", i)
		}
	}
	// Noisy: residuals have roughly the noise variance.
	noise := randx.Normal{Mu: 0, Sigma: 0.5}
	d2 := Linear(r, LinearOpt{N: 20000, D: 4, Feature: randx.Normal{Mu: 0, Sigma: 1}, Noise: noise})
	var s2 float64
	for i := 0; i < d2.N(); i++ {
		res := d2.Y[i] - vecmath.Dot(d2.WStar, d2.X.Row(i))
		s2 += res * res
	}
	if v := s2 / float64(d2.N()); math.Abs(v-0.25) > 0.02 {
		t.Fatalf("residual var = %v, want 0.25", v)
	}
}

func TestLogisticLabels(t *testing.T) {
	r := randx.New(8)
	d := LogisticModel(r, LogisticOpt{N: 500, D: 3, Feature: randx.Normal{Mu: 0, Sigma: 1}})
	plus, minus := 0, 0
	for i, y := range d.Y {
		if y != 1 && y != -1 {
			t.Fatalf("label %v not ±1", y)
		}
		// Noiseless labels agree with the sign of the margin.
		if z := vecmath.Dot(d.WStar, d.X.Row(i)); (z >= 0) != (y == 1) {
			t.Fatalf("row %d: margin %v but label %v", i, z, y)
		}
		if y == 1 {
			plus++
		} else {
			minus++
		}
	}
	if plus == 0 || minus == 0 {
		t.Fatal("degenerate class balance")
	}
}

func TestCustomWStar(t *testing.T) {
	r := randx.New(9)
	w := []float64{1, 0}
	d := Linear(r, LinearOpt{N: 10, D: 2, Feature: randx.Normal{Mu: 0, Sigma: 1}, WStar: w})
	if &d.WStar[0] != &w[0] {
		t.Error("custom WStar not used")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on WStar dim mismatch")
		}
	}()
	Linear(r, LinearOpt{N: 10, D: 3, Feature: randx.Normal{Mu: 0, Sigma: 1}, WStar: w})
}

func TestBootstrap(t *testing.T) {
	r := randx.New(20)
	d := Linear(r, LinearOpt{N: 30, D: 2, Feature: randx.Normal{Mu: 0, Sigma: 1}})
	b := d.Bootstrap(r, 100)
	if b.N() != 100 || b.D() != 2 {
		t.Fatalf("shape %dx%d", b.N(), b.D())
	}
	// Every bootstrap row must equal some original row.
	for i := 0; i < b.N(); i++ {
		found := false
		for j := 0; j < d.N(); j++ {
			if vecmath.Dist2(b.X.Row(i), d.X.Row(j)) == 0 && b.Y[i] == d.Y[j] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("bootstrap row %d not from the source", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for m = 0")
		}
	}()
	d.Bootstrap(r, 0)
}

func TestStandardize(t *testing.T) {
	r := randx.New(10)
	d := Linear(r, LinearOpt{N: 5000, D: 3, Feature: randx.LogNormal{Mu: 0, Sigma: 1}})
	Standardize(d)
	for j := 0; j < d.D(); j++ {
		var m2 float64
		for i := 0; i < d.N(); i++ {
			m2 += d.X.At(i, j) * d.X.At(i, j)
		}
		m2 /= float64(d.N())
		if math.Abs(m2-1) > 1e-9 {
			t.Fatalf("column %d second moment = %v after standardize", j, m2)
		}
	}
	// All-zero column is left alone.
	z := &Dataset{X: vecmath.NewMat(3, 1), Y: []float64{0, 0, 0}}
	scales := Standardize(z)
	if scales[0] != 1 {
		t.Fatalf("zero-column scale = %v", scales[0])
	}
}

func TestSimulatedReal(t *testing.T) {
	for _, spec := range RealSpecs {
		r := randx.New(11)
		d := mustSimulatedReal(t, r, spec, 0.01)
		if d.D() != spec.D {
			t.Fatalf("%s: d = %d", spec.Name, d.D())
		}
		wantN := int(math.Ceil(0.01 * float64(spec.N)))
		if d.N() != wantN {
			t.Fatalf("%s: n = %d, want %d", spec.Name, d.N(), wantN)
		}
		if !spec.Regression {
			plus := 0
			for _, y := range d.Y {
				if y != 1 && y != -1 {
					t.Fatalf("%s: label %v", spec.Name, y)
				}
				if y == 1 {
					plus++
				}
			}
			frac := float64(plus) / float64(d.N())
			if frac < 0.05 || frac > 0.95 {
				t.Errorf("%s: degenerate class balance %v", spec.Name, frac)
			}
		}
		if !vecmath.IsFinite(d.X.Data) {
			t.Fatalf("%s: non-finite features", spec.Name)
		}
	}
}

func mustSimulatedReal(t *testing.T, r *randx.RNG, spec RealSpec, scale float64) *Dataset {
	t.Helper()
	ds, err := SimulatedReal(r, spec, scale)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestSimulatedRealDeterministic(t *testing.T) {
	spec := RealSpecs[0]
	a := mustSimulatedReal(t, randx.New(42), spec, 0.005)
	b := mustSimulatedReal(t, randx.New(42), spec, 0.005)
	if vecmath.Dist2(a.X.Data, b.X.Data) != 0 || vecmath.Dist2(a.Y, b.Y) != 0 {
		t.Fatal("same seed produced different data")
	}
}

// Kurtosis returns the empirical excess kurtosis of column j — the
// diagnostic TestSimulatedRealHeavyTailed uses to back DESIGN.md's
// "Substitutions" claim that the simulated data are genuinely
// heavy-tailed (Gaussian ⇒ 0).
func Kurtosis(d *Dataset, j int) float64 {
	n := d.N()
	var m float64
	for i := 0; i < n; i++ {
		m += d.X.At(i, j)
	}
	m /= float64(n)
	var m2, m4 float64
	for i := 0; i < n; i++ {
		r := d.X.At(i, j) - m
		m2 += r * r
		m4 += r * r * r * r
	}
	m2 /= float64(n)
	m4 /= float64(n)
	if m2 == 0 {
		return 0
	}
	return m4/(m2*m2) - 3
}

// MedianKurtosis returns the median excess kurtosis across columns.
func MedianKurtosis(d *Dataset) float64 {
	ks := make([]float64, d.D())
	for j := range ks {
		ks[j] = Kurtosis(d, j)
	}
	sort.Float64s(ks)
	return ks[len(ks)/2]
}

func TestSimulatedRealHeavyTailed(t *testing.T) {
	// The point of the simulators: columns must be far from Gaussian.
	r := randx.New(12)
	d := mustSimulatedReal(t, r, RealSpecs[0], 0.05)
	if k := MedianKurtosis(d); k < 1 {
		t.Errorf("median excess kurtosis = %v, expected heavy-tailed (>1)", k)
	}
}

func TestLookupReal(t *testing.T) {
	if _, err := LookupReal("blog"); err != nil {
		t.Fatal(err)
	}
	if _, err := LookupReal("nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestKurtosisGaussianBaseline(t *testing.T) {
	r := randx.New(13)
	d := Linear(r, LinearOpt{N: 50000, D: 1, Feature: randx.Normal{Mu: 0, Sigma: 1}})
	if k := Kurtosis(d, 0); math.Abs(k) > 0.2 {
		t.Errorf("Gaussian excess kurtosis = %v, want ≈0", k)
	}
}
