// Package polytope models the constraint sets of the paper as
// vertex-enumerable polytopes. Frank–Wolfe only ever needs (a) linear
// minimization over the vertex set and (b) per-vertex scores for the
// exponential mechanism, so vertices are exposed by index and never
// materialized wholesale: the ℓ1 ball's 2d vertices cost O(1) each.
package polytope

import (
	"fmt"
	"math"

	"htdp/internal/vecmath"
)

// Polytope is a convex hull of finitely many vertices W = conv(V).
type Polytope interface {
	Name() string
	// Dim returns the ambient dimension d.
	Dim() int
	// NumVertices returns |V|.
	NumVertices() int
	// Vertex writes vertex i into dst (len d) and returns dst.
	Vertex(i int, dst []float64) []float64
	// VertexScore returns −⟨vᵢ, g⟩, the exponential-mechanism score of
	// vertex i against gradient g (higher is better for minimization).
	VertexScore(i int, g []float64) float64
	// Diameter1 returns the ℓ1 diameter ‖W‖₁ = max_{u,v∈W} ‖u−v‖₁.
	Diameter1() float64
	// Contains reports whether w lies in the polytope up to tol.
	Contains(w []float64, tol float64) bool
	// Project maps w in place to a nearest point of the polytope.
	Project(w []float64) []float64
}

// ArgminLinear returns the index of the vertex minimizing ⟨v, g⟩ — the
// exact (non-private) Frank–Wolfe linear oracle.
func ArgminLinear(p Polytope, g []float64) int {
	best, bi := math.Inf(-1), 0
	for i := 0; i < p.NumVertices(); i++ {
		if s := p.VertexScore(i, g); s > best {
			best, bi = s, i
		}
	}
	return bi
}

// L1Ball is {w : ‖w‖₁ ≤ Radius} in R^Dims, the LASSO constraint set.
// Its vertex set is {±Radius·eⱼ}, 2·Dims vertices.
type L1Ball struct {
	Dims   int
	Radius float64
}

// NewL1Ball returns the ℓ1 ball of the given radius.
func NewL1Ball(dims int, radius float64) L1Ball {
	if dims <= 0 {
		panic("polytope: L1Ball needs dims > 0")
	}
	if radius <= 0 {
		panic("polytope: L1Ball needs radius > 0")
	}
	return L1Ball{Dims: dims, Radius: radius}
}

func (b L1Ball) Name() string     { return fmt.Sprintf("l1ball(d=%d,r=%g)", b.Dims, b.Radius) }
func (b L1Ball) Dim() int         { return b.Dims }
func (b L1Ball) NumVertices() int { return 2 * b.Dims }

func (b L1Ball) Vertex(i int, dst []float64) []float64 {
	vecmath.Zero(dst)
	if i < b.Dims {
		dst[i] = b.Radius
	} else {
		dst[i-b.Dims] = -b.Radius
	}
	return dst
}

func (b L1Ball) VertexScore(i int, g []float64) float64 {
	if i < b.Dims {
		return -b.Radius * g[i]
	}
	return b.Radius * g[i-b.Dims]
}

func (b L1Ball) Diameter1() float64 { return 2 * b.Radius }

func (b L1Ball) Contains(w []float64, tol float64) bool {
	return len(w) == b.Dims && vecmath.Norm1(w) <= b.Radius+tol
}

func (b L1Ball) Project(w []float64) []float64 {
	return vecmath.ProjectL1Ball(w, b.Radius)
}

// Simplex is the probability simplex {w : wⱼ ≥ 0, Σwⱼ = 1} with the d
// standard basis vectors as vertices.
type Simplex struct{ Dims int }

// NewSimplex returns the probability simplex in R^dims.
func NewSimplex(dims int) Simplex {
	if dims <= 0 {
		panic("polytope: Simplex needs dims > 0")
	}
	return Simplex{Dims: dims}
}

func (s Simplex) Name() string     { return fmt.Sprintf("simplex(d=%d)", s.Dims) }
func (s Simplex) Dim() int         { return s.Dims }
func (s Simplex) NumVertices() int { return s.Dims }

func (s Simplex) Vertex(i int, dst []float64) []float64 {
	vecmath.Zero(dst)
	dst[i] = 1
	return dst
}

func (s Simplex) VertexScore(i int, g []float64) float64 { return -g[i] }

func (s Simplex) Diameter1() float64 { return 2 }

func (s Simplex) Contains(w []float64, tol float64) bool {
	if len(w) != s.Dims {
		return false
	}
	var sum float64
	for _, x := range w {
		if x < -tol {
			return false
		}
		sum += x
	}
	return math.Abs(sum-1) <= tol
}

func (s Simplex) Project(w []float64) []float64 {
	return vecmath.ProjectSimplex(w)
}
