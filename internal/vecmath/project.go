package vecmath

import (
	"math"
	"sort"
)

// ProjectL2Ball projects v in place onto the Euclidean ball of the given
// radius centred at the origin and returns v.
func ProjectL2Ball(v []float64, radius float64) []float64 {
	if radius < 0 {
		panic("vecmath: ProjectL2Ball negative radius")
	}
	n := Norm2(v)
	if n > radius {
		if n == 0 {
			return v
		}
		Scale(v, radius/n)
	}
	return v
}

// ProjectL1Ball projects v in place onto the ℓ1 ball {w : ‖w‖₁ ≤ radius}
// using the sort-based algorithm of Duchi et al. (2008), which runs in
// O(d log d). It returns v.
func ProjectL1Ball(v []float64, radius float64) []float64 {
	if radius < 0 {
		panic("vecmath: ProjectL1Ball negative radius")
	}
	if Norm1(v) <= radius {
		return v
	}
	if radius == 0 {
		return Zero(v)
	}
	// Work with magnitudes: the projection preserves signs.
	u := make([]float64, len(v))
	for i, x := range v {
		u[i] = math.Abs(x)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(u)))
	// Find the largest k with u[k] − (cum(u[:k+1])−radius)/(k+1) > 0.
	var cum, theta float64
	k := -1
	for i, ui := range u {
		cum += ui
		t := (cum - radius) / float64(i+1)
		if ui-t > 0 {
			k, theta = i, t
		}
	}
	_ = k
	for i, x := range v {
		a := math.Abs(x) - theta
		if a <= 0 {
			v[i] = 0
		} else if x > 0 {
			v[i] = a
		} else {
			v[i] = -a
		}
	}
	return v
}

// ProjectSimplex projects v in place onto the probability simplex
// {w : wᵢ ≥ 0, Σwᵢ = 1} and returns v.
func ProjectSimplex(v []float64) []float64 {
	u := Clone(v)
	sort.Sort(sort.Reverse(sort.Float64Slice(u)))
	var cum, theta float64
	for i, ui := range u {
		cum += ui
		t := (cum - 1) / float64(i+1)
		if ui-t > 0 {
			theta = t
		}
	}
	for i, x := range v {
		if a := x - theta; a > 0 {
			v[i] = a
		} else {
			v[i] = 0
		}
	}
	return v
}
