package loss

import (
	"testing"

	"htdp/internal/data"
	"htdp/internal/randx"
	"htdp/internal/vecmath"
)

// marginLosses are all losses that must factorize through the margin.
var marginLosses = map[string]MarginLoss{
	"squared":     Squared{},
	"logistic":    Logistic{},
	"reglogistic": RegLogistic{Lambda: 0.37},
	"biweight":    Biweight{C: 4.685},
}

// TestGradFromMarginBitIdentical: GradScale/RegCoeff through the
// precomputed margin must reproduce Grad bit for bit — the property the
// fused robust kernel rests on.
func TestGradFromMarginBitIdentical(t *testing.T) {
	r := randx.New(1)
	const d = 23
	for name, ml := range marginLosses {
		for trial := 0; trial < 50; trial++ {
			w := r.NormalVec(make([]float64, d), 1)
			x := r.NormalVec(make([]float64, d), 3)
			y := r.StudentT(3)
			z := vecmath.Dot(x, w) // the MatVec orientation; Dot commutes bitwise
			want := ml.Grad(make([]float64, d), w, x, y)
			got := GradFromMargin(ml, make([]float64, d), w, x, y, z)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s trial %d coord %d: %v != %v", name, trial, j, got[j], want[j])
				}
			}
		}
	}
}

// TestMeanSquaredNotMargin: the mean-estimation loss does not factorize
// through ⟨w, x⟩ and must not be treated as a margin loss.
func TestMeanSquaredNotMargin(t *testing.T) {
	if _, ok := AsMargin(MeanSquared{}); ok {
		t.Fatal("MeanSquared unexpectedly implements MarginLoss")
	}
	if _, ok := AsMargin(Squared{}); !ok {
		t.Fatal("Squared should implement MarginLoss")
	}
}

// TestMarginsChunkMatchesDot: the blocked margin kernel equals the
// per-sample dot products the unfused gradients evaluate.
func TestMarginsChunkMatchesDot(t *testing.T) {
	r := randx.New(2)
	const m, d = 67, 31
	x := vecmath.NewMat(m, d)
	for i := range x.Data {
		x.Data[i] = r.Normal()
	}
	w := r.NormalVec(make([]float64, d), 1)
	for _, workers := range []int{1, 4} {
		margins := MarginsChunk(nil, w, x, workers)
		for i := 0; i < m; i++ {
			if want := vecmath.Dot(w, x.Row(i)); margins[i] != want {
				t.Fatalf("workers=%d margin %d = %v, want %v", workers, i, margins[i], want)
			}
		}
	}
}

// TestScalesFromMargins pins the scalar pass to GradScale.
func TestScalesFromMargins(t *testing.T) {
	r := randx.New(3)
	const m = 40
	margins := r.NormalVec(make([]float64, m), 2)
	y := r.NormalVec(make([]float64, m), 1)
	for name, ml := range marginLosses {
		scales := ScalesFromMargins(ml, make([]float64, m), margins, y)
		for i := range scales {
			if want := ml.GradScale(margins[i], y[i]); scales[i] != want {
				t.Fatalf("%s scale %d = %v, want %v", name, i, scales[i], want)
			}
		}
	}
}

// TestFullGradientSourceWSFused: the fused streaming full gradient must
// match the generic path bit for bit, and allocate nothing with a warm
// workspace on the in-memory backend.
func TestFullGradientSourceWSFused(t *testing.T) {
	r := randx.New(4)
	const n, d = 300, 40
	x := vecmath.NewMat(n, d)
	for i := range x.Data {
		x.Data[i] = r.StudentT(3)
	}
	y := r.NormalVec(make([]float64, n), 1)
	src := data.NewMemSource(&data.Dataset{Label: "t", X: x, Y: y})
	w := r.NormalVec(make([]float64, d), 1)
	for name, l := range map[string]Loss{
		"squared":     Squared{},
		"reglogistic": RegLogistic{Lambda: 0.2}, // reg ≠ 0: stays on the generic path
	} {
		var ws GradWorkspace
		got, err := FullGradientSourceWS(l, nil, w, src, 1, &ws)
		if err != nil {
			t.Fatal(err)
		}
		want, err := FullGradientSourceWS(l, nil, w, src, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s coord %d: %v != %v", name, j, got[j], want[j])
			}
		}
		dst := make([]float64, d)
		if allocs := testing.AllocsPerRun(10, func() {
			if _, err := FullGradientSourceWS(l, dst, w, src, 1, &ws); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: FullGradientSourceWS allocates %v per call with a warm workspace", name, allocs)
		}
	}
}
