package vecmath

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorms(t *testing.T) {
	v := []float64{3, -4, 0}
	if got := Norm2(v); got != 5 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
	if got := Norm2Sq(v); got != 25 {
		t.Errorf("Norm2Sq = %v, want 25", got)
	}
	if got := Norm1(v); got != 7 {
		t.Errorf("Norm1 = %v, want 7", got)
	}
	if got := Norm0(v); got != 2 {
		t.Errorf("Norm0 = %v, want 2", got)
	}
}

func TestNorm2OverflowSafe(t *testing.T) {
	v := []float64{1e200, 1e200}
	want := 1e200 * math.Sqrt2
	if got := Norm2(v); !almostEq(got, want, 1e-12) {
		t.Fatalf("Norm2 overflowed: got %v, want %v", got, want)
	}
	if got := Norm2(nil); got != 0 {
		t.Fatalf("Norm2(nil) = %v", got)
	}
}

func TestNormInequalities(t *testing.T) {
	// ‖v‖∞ ≤ ‖v‖₂ ≤ ‖v‖₁ ≤ √d·‖v‖₂ for all v.
	f := func(v []float64) bool {
		for i, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				v[i] = 0
			}
			// Keep magnitudes sane so the chain is not hit by rounding.
			v[i] = math.Mod(v[i], 1e6)
		}
		ni := 0.0
		for _, x := range v {
			ni = math.Max(ni, math.Abs(x))
		}
		n1, n2 := Norm1(v), Norm2(v)
		d := math.Sqrt(float64(len(v)))
		return ni <= n2*(1+1e-12) && n2 <= n1*(1+1e-12) && n1 <= d*n2*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	v := []float64{1, 2}
	c := Clone(v)
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone shares memory with the source")
	}
}

func TestScaleAxpy(t *testing.T) {
	v := []float64{1, 2, 3}
	Scale(v, 2)
	if !reflect.DeepEqual(v, []float64{2, 4, 6}) {
		t.Fatalf("Scale = %v", v)
	}
	y := []float64{1, 1, 1}
	Axpy(0.5, v, y)
	if !reflect.DeepEqual(y, []float64{2, 3, 4}) {
		t.Fatalf("Axpy = %v", y)
	}
}

func TestLerp(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 5}
	dst := make([]float64, 2)
	if got := Lerp(dst, a, b, 0.5); !reflect.DeepEqual(got, []float64{2, 3.5}) {
		t.Errorf("Lerp = %v", got)
	}
	// Lerp endpoints.
	if got := Lerp(dst, a, b, 0); !reflect.DeepEqual(got, a) {
		t.Errorf("Lerp t=0 = %v", got)
	}
	if got := Lerp(dst, a, b, 1); !reflect.DeepEqual(got, b) {
		t.Errorf("Lerp t=1 = %v", got)
	}
}

func TestLerpStaysInSegmentProperty(t *testing.T) {
	// For t ∈ [0,1], each coordinate of the lerp lies between a and b.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		d := 1 + rng.Intn(8)
		a := make([]float64, d)
		b := make([]float64, d)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		tt := rng.Float64()
		out := Lerp(make([]float64, d), a, b, tt)
		for i := range out {
			lo, hi := math.Min(a[i], b[i]), math.Max(a[i], b[i])
			if out[i] < lo-1e-12 || out[i] > hi+1e-12 {
				t.Fatalf("Lerp left segment: %v not in [%v,%v]", out[i], lo, hi)
			}
		}
	}
}

func TestTopKIndices(t *testing.T) {
	v := []float64{1, -9, 3, 0, 9}
	got := TopKIndices(v, 2)
	// |−9| ties |9|: stable sort keeps index 1 first.
	if !reflect.DeepEqual(got, []int{1, 4}) {
		t.Fatalf("TopKIndices = %v", got)
	}
	if got := TopKIndices(v, 99); len(got) != len(v) {
		t.Fatalf("TopKIndices k>d = %v", got)
	}
	if got := TopKIndices(v, 0); len(got) != 0 {
		t.Fatalf("TopKIndices k=0 = %v", got)
	}
}

func TestHardThresholdProperty(t *testing.T) {
	// HardThreshold output: (1) at most k non-zeros; (2) kept entries equal
	// the input; (3) every kept magnitude ≥ every dropped magnitude.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(20)
		k := rng.Intn(d + 1)
		v := make([]float64, d)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		h := HardThreshold(v, k)
		if Norm0(h) > k {
			t.Fatalf("HardThreshold kept %d > k=%d", Norm0(h), k)
		}
		minKept := math.Inf(1)
		for i, x := range h {
			if x != 0 && x != v[i] {
				t.Fatalf("HardThreshold altered entry %d", i)
			}
			if x != 0 && math.Abs(x) < minKept {
				minKept = math.Abs(x)
			}
		}
		for i, x := range h {
			if x == 0 && math.Abs(v[i]) > minKept+1e-15 {
				t.Fatalf("dropped |%v| although kept min %v", v[i], minKept)
			}
		}
	}
}

func TestClip(t *testing.T) {
	v := []float64{5, -5, 0.5}
	Clip(v, 1)
	if !reflect.DeepEqual(v, []float64{1, -1, 0.5}) {
		t.Fatalf("Clip = %v", v)
	}
}

func TestClipProperty(t *testing.T) {
	// Clip is the shrinkage of Algorithms 2/3: |x̃| ≤ K, sign preserved,
	// identity when already inside.
	f := func(x float64, kRaw float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		k := math.Abs(math.Mod(kRaw, 100))
		v := []float64{x}
		Clip(v, k)
		if math.Abs(v[0]) > k {
			return false
		}
		if x != 0 && v[0] != 0 && math.Signbit(x) != math.Signbit(v[0]) {
			return false
		}
		if math.Abs(x) <= k && v[0] != x {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestClipL2(t *testing.T) {
	v := []float64{3, 4}
	ClipL2(v, 1)
	if !almostEq(Norm2(v), 1, 1e-12) {
		t.Fatalf("ClipL2 norm = %v", Norm2(v))
	}
	if !almostEq(v[0]/v[1], 0.75, 1e-12) {
		t.Fatalf("ClipL2 changed direction: %v", v)
	}
	w := []float64{0.1, 0.1}
	ClipL2(w, 1)
	if !reflect.DeepEqual(w, []float64{0.1, 0.1}) {
		t.Fatalf("ClipL2 altered an in-ball vector: %v", w)
	}
}

func TestIsFinite(t *testing.T) {
	if !IsFinite([]float64{1, 2}) {
		t.Error("finite vector misreported")
	}
	if IsFinite([]float64{1, math.NaN()}) {
		t.Error("NaN not detected")
	}
	if IsFinite([]float64{math.Inf(1)}) {
		t.Error("Inf not detected")
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median odd = %v", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("Median even = %v", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) should be NaN")
	}
	// Input unchanged.
	u := []float64{3, 1, 2}
	Median(u)
	if !reflect.DeepEqual(u, []float64{3, 1, 2}) {
		t.Error("Median mutated its input")
	}
}

func TestDist2(t *testing.T) {
	if got := Dist2([]float64{1, 1}, []float64{4, 5}); got != 5 {
		t.Fatalf("Dist2 = %v", got)
	}
}

func TestMedianRobustToOutlier(t *testing.T) {
	// Sanity anchor for the robust-statistics story: one huge outlier
	// wrecks the mean but not the median.
	v := []float64{1, 2, 3, 4, 1e12}
	if Median(v) != 3 {
		t.Fatalf("Median = %v", Median(v))
	}
	if mean := (1 + 2 + 3 + 4 + 1e12) / 5.0; mean < 1e11 {
		t.Fatalf("mean = %v, expected to be dragged by the outlier", mean)
	}
}
