// Package vecmath provides the dense linear-algebra substrate used by the
// heavy-tailed DP-SCO algorithms: vector arithmetic, norms, sparsity
// operations (top-k selection, hard thresholding), projections onto the
// ℓ1/ℓ2 balls and the simplex, and a small dense-matrix toolkit with
// the mat-vec and second-moment kernels.
//
// Everything is written against plain []float64 so callers never pay for
// wrapper types on hot paths; the Mat type is a thin row-major view.
package vecmath

import (
	"fmt"
	"math"
	"sort"
)

// Dot returns the inner product ⟨a, b⟩. It panics if lengths differ.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: Dot length mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	for i, ai := range a {
		s += ai * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm ‖v‖₂, guarding against overflow by
// scaling with the largest magnitude entry.
func Norm2(v []float64) float64 {
	maxAbs := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 || math.IsInf(maxAbs, 0) {
		return maxAbs
	}
	var s float64
	for _, x := range v {
		r := x / maxAbs
		s += r * r
	}
	return maxAbs * math.Sqrt(s)
}

// Norm2Sq returns ‖v‖₂².
func Norm2Sq(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}

// Norm1 returns ‖v‖₁.
func Norm1(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// Norm0 returns the number of non-zero entries (the "ℓ0 norm").
func Norm0(v []float64) int {
	n := 0
	for _, x := range v {
		if x != 0 {
			n++
		}
	}
	return n
}

// Clone returns a fresh copy of v.
func Clone(v []float64) []float64 {
	c := make([]float64, len(v))
	copy(c, v)
	return c
}

// Zero sets every entry of v to 0 and returns v.
func Zero(v []float64) []float64 {
	for i := range v {
		v[i] = 0
	}
	return v
}

// Scale multiplies v in place by c and returns v.
func Scale(v []float64, c float64) []float64 {
	for i := range v {
		v[i] *= c
	}
	return v
}

// Axpy computes y ← y + a·x in place and returns y.
func Axpy(a float64, x, y []float64) []float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("vecmath: Axpy length mismatch %d != %d", len(x), len(y)))
	}
	for i, xi := range x {
		y[i] += a * xi
	}
	return y
}

// Lerp computes dst = (1−t)·a + t·b, the convex combination used by
// Frank–Wolfe updates, and returns dst. dst may alias a or b.
func Lerp(dst, a, b []float64, t float64) []float64 {
	for i := range dst {
		dst[i] = (1-t)*a[i] + t*b[i]
	}
	return dst
}

// Dist2 returns ‖a − b‖₂.
func Dist2(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: Dist2 length mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		r := a[i] - b[i]
		s += r * r
	}
	return math.Sqrt(s)
}

// TopKIndices returns the indices of the k entries of v with largest
// magnitude, sorted by decreasing magnitude (ties broken by smaller
// index first). If k ≥ len(v) all indices are returned.
func TopKIndices(v []float64, k int) []int {
	if k < 0 {
		panic("vecmath: TopKIndices negative k")
	}
	if k > len(v) {
		k = len(v)
	}
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return math.Abs(v[idx[a]]) > math.Abs(v[idx[b]])
	})
	return idx[:k]
}

// HardThreshold returns a copy of v with all but the k largest-magnitude
// entries set to zero. This is the (non-private) iterative-hard-
// thresholding projection onto the ℓ0 ball {w : ‖w‖0 ≤ k}.
func HardThreshold(v []float64, k int) []float64 {
	out := make([]float64, len(v))
	for _, j := range TopKIndices(v, k) {
		out[j] = v[j]
	}
	return out
}

// Clip truncates every entry to the interval [-c, c] in place and
// returns v. This is the entry-wise shrinkage x̃ = sign(x)·min(|x|, c)
// used by Algorithms 2 and 3 of the paper.
func Clip(v []float64, c float64) []float64 {
	if c < 0 {
		panic("vecmath: Clip negative bound")
	}
	for i, x := range v {
		if x > c {
			v[i] = c
		} else if x < -c {
			v[i] = -c
		}
	}
	return v
}

// ClipL2 rescales v in place so that ‖v‖₂ ≤ c (per-sample gradient
// clipping as in DP-SGD) and returns v.
func ClipL2(v []float64, c float64) []float64 {
	n := Norm2(v)
	if n > c && n > 0 {
		Scale(v, c/n)
	}
	return v
}

// IsFinite reports whether every entry of v is finite (no NaN/±Inf).
func IsFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Median returns the median of v (average of the two middle order
// statistics for even length). The input is not modified.
func Median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	c := Clone(v)
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}
