package core

import (
	"math"
	"testing"

	"htdp/internal/randx"
	"htdp/internal/vecmath"
)

func TestPeelingSparsity(t *testing.T) {
	r := randx.New(1)
	v := make([]float64, 50)
	for i := range v {
		v[i] = r.Normal()
	}
	for _, s := range []int{1, 3, 10, 50} {
		out := PeelingP(r, v, s, 1, 1e-5, 0.01, 0)
		if got := vecmath.Norm0(out); got > s {
			t.Fatalf("s=%d: output has %d non-zeros", s, got)
		}
		if len(out) != len(v) {
			t.Fatalf("output length %d", len(out))
		}
	}
}

func TestPeelingInputUnmodified(t *testing.T) {
	r := randx.New(2)
	v := []float64{3, -1, 2, 0.5}
	orig := vecmath.Clone(v)
	PeelingP(r, v, 2, 1, 1e-5, 0.1, 0)
	if vecmath.Dist2(v, orig) != 0 {
		t.Fatal("Peeling modified its input")
	}
}

func TestPeelingZeroLambdaIsExactTopS(t *testing.T) {
	// λ = 0 ⇒ noise scale 0 ⇒ exact top-s selection with exact values.
	r := randx.New(3)
	v := []float64{5, -7, 1, 3, -2}
	out := PeelingP(r, v, 2, 1, 1e-5, 0, 0)
	want := vecmath.HardThreshold(v, 2)
	if vecmath.Dist2(out, want) != 0 {
		t.Fatalf("PeelingP(λ=0, 0) = %v, want %v", out, want)
	}
}

func TestPeelingHighEpsApproachesTopS(t *testing.T) {
	// With a huge ε the noise vanishes and the selection is exact with
	// overwhelming probability.
	r := randx.New(4)
	v := []float64{10, -20, 1, 5, 0.1, -7}
	agree := 0
	const trials = 100
	for i := 0; i < trials; i++ {
		out := PeelingP(r, v, 3, 1e6, 1e-5, 1, 0)
		want := vecmath.HardThreshold(v, 3)
		same := true
		for j := range out {
			if (out[j] == 0) != (want[j] == 0) {
				same = false
			}
		}
		if same {
			agree++
		}
	}
	if agree < trials*95/100 {
		t.Fatalf("support agreement only %d/%d at ε=1e6", agree, trials)
	}
}

func TestPeelingNoiseScale(t *testing.T) {
	// Added noise on the selected coordinates matches the announced
	// Laplace scale 2λ√(3s·log(1/δ))/ε.
	r := randx.New(5)
	s, eps, delta, lambda := 1, 1.0, 1e-3, 0.5
	want := PeelingScale(s, eps, delta, lambda)
	if math.Abs(want-2*lambda*math.Sqrt(3*math.Log(1/delta))/eps) > 1e-15 {
		t.Fatalf("PeelingScale formula drifted: %v", want)
	}
	// v has one dominant coordinate so selection is fixed; measure the
	// variance of the released value.
	v := []float64{100, 0, 0}
	const n = 100000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		out := PeelingP(r, v, s, eps, delta, lambda, 0)
		d := out[0] - 100
		sum += d
		sum2 += d * d
	}
	mean := sum / n
	varr := sum2/n - mean*mean
	wantVar := 2 * want * want
	if math.Abs(varr-wantVar)/wantVar > 0.05 {
		t.Fatalf("release noise var %v, want %v", varr, wantVar)
	}
}

func TestPeelingSelectsHeavyCoordinates(t *testing.T) {
	// With moderate noise the dominant coordinates should still win
	// almost always.
	r := randx.New(6)
	v := make([]float64, 100)
	v[7] = 50
	v[42] = -60
	hits := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		out := PeelingP(r, v, 2, 2, 1e-5, 0.05, 0)
		if out[7] != 0 && out[42] != 0 {
			hits++
		}
	}
	if hits < trials*90/100 {
		t.Fatalf("dominant support recovered only %d/%d", hits, trials)
	}
}

func TestPeelingPanics(t *testing.T) {
	r := randx.New(7)
	v := []float64{1, 2}
	for name, f := range map[string]func(){
		"s=0":     func() { PeelingP(r, v, 0, 1, 1e-5, 1, 0) },
		"s>d":     func() { PeelingP(r, v, 3, 1, 1e-5, 1, 0) },
		"eps<=0":  func() { PeelingP(r, v, 1, 0, 1e-5, 1, 0) },
		"delta=0": func() { PeelingP(r, v, 1, 1, 0, 1, 0) },
		"delta=1": func() { PeelingP(r, v, 1, 1, 1, 1, 0) },
		"lambda<0": func() {
			PeelingP(r, v, 1, 1, 1e-5, -1, 0)
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
