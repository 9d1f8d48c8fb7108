package polytope

import (
	"math"
	"testing"

	"htdp/internal/randx"
	"htdp/internal/vecmath"
)

func TestL1BallVertices(t *testing.T) {
	b := NewL1Ball(3, 2)
	if b.NumVertices() != 6 || b.Dim() != 3 {
		t.Fatalf("shape: %d vertices, dim %d", b.NumVertices(), b.Dim())
	}
	dst := make([]float64, 3)
	b.Vertex(1, dst)
	if dst[0] != 0 || dst[1] != 2 || dst[2] != 0 {
		t.Fatalf("Vertex(1) = %v", dst)
	}
	b.Vertex(4, dst)
	if dst[1] != -2 {
		t.Fatalf("Vertex(4) = %v", dst)
	}
	// Every vertex lies on the ball boundary.
	for i := 0; i < b.NumVertices(); i++ {
		b.Vertex(i, dst)
		if vecmath.Norm1(dst) != b.Radius {
			t.Fatalf("vertex %d off boundary: %v", i, dst)
		}
	}
}

func TestL1BallScoreConsistent(t *testing.T) {
	// VertexScore(i, g) must equal −⟨Vertex(i), g⟩ exactly.
	b := NewL1Ball(4, 1.5)
	r := randx.New(1)
	g := make([]float64, 4)
	dst := make([]float64, 4)
	for trial := 0; trial < 50; trial++ {
		for j := range g {
			g[j] = r.Normal()
		}
		for i := 0; i < b.NumVertices(); i++ {
			want := -vecmath.Dot(b.Vertex(i, dst), g)
			if got := b.VertexScore(i, g); math.Abs(got-want) > 1e-15 {
				t.Fatalf("score mismatch at vertex %d: %v vs %v", i, got, want)
			}
		}
	}
}

func TestL1BallArgminLinear(t *testing.T) {
	// The FW oracle over the ℓ1 ball is −r·sign(g_j*)·e_j* for the
	// largest-magnitude gradient coordinate.
	b := NewL1Ball(3, 1)
	g := []float64{0.5, -3, 1}
	i := ArgminLinear(b, g)
	dst := make([]float64, 3)
	b.Vertex(i, dst)
	if dst[1] != 1 { // −(−3) direction: +e₁
		t.Fatalf("oracle picked %v for g=%v", dst, g)
	}
}

func TestL1BallContainsProject(t *testing.T) {
	b := NewL1Ball(2, 1)
	if !b.Contains([]float64{0.5, -0.5}, 0) {
		t.Error("boundary point rejected")
	}
	if b.Contains([]float64{0.9, 0.2}, 1e-9) {
		t.Error("outside point accepted")
	}
	if b.Contains([]float64{1}, 0) {
		t.Error("wrong dimension accepted")
	}
	w := []float64{3, 0}
	b.Project(w)
	if !b.Contains(w, 1e-9) {
		t.Errorf("projection infeasible: %v", w)
	}
	if b.Diameter1() != 2 {
		t.Errorf("Diameter1 = %v", b.Diameter1())
	}
}

func TestSimplex(t *testing.T) {
	s := NewSimplex(3)
	if s.NumVertices() != 3 || s.Diameter1() != 2 {
		t.Fatal("simplex shape wrong")
	}
	dst := make([]float64, 3)
	s.Vertex(2, dst)
	if dst[0] != 0 || dst[1] != 0 || dst[2] != 1 {
		t.Fatalf("Vertex(2) = %v", dst)
	}
	if !s.Contains([]float64{0.2, 0.3, 0.5}, 1e-9) {
		t.Error("interior point rejected")
	}
	if s.Contains([]float64{0.5, 0.6, 0}, 1e-9) {
		t.Error("sum > 1 accepted")
	}
	if s.Contains([]float64{-0.1, 0.6, 0.5}, 1e-9) {
		t.Error("negative coordinate accepted")
	}
	g := []float64{3, -1, 2}
	if i := ArgminLinear(s, g); i != 1 {
		t.Fatalf("oracle = %d", i)
	}
	w := []float64{5, 5, 5}
	s.Project(w)
	if !s.Contains(w, 1e-9) {
		t.Errorf("projection infeasible: %v", w)
	}
}

func TestFWIterateStaysInHull(t *testing.T) {
	// Convex combinations of vertices always satisfy Contains — the FW
	// feasibility invariant.
	r := randx.New(9)
	b := NewL1Ball(5, 2)
	w := make([]float64, 5) // origin ∈ ball
	dst := make([]float64, 5)
	for t2 := 1; t2 <= 50; t2++ {
		i := r.Intn(b.NumVertices())
		eta := 2 / float64(t2+2)
		vecmath.Lerp(w, w, b.Vertex(i, dst), eta)
		if !b.Contains(w, 1e-9) {
			t.Fatalf("iterate left the ball at step %d: %v", t2, w)
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"l1-dims":   func() { NewL1Ball(0, 1) },
		"l1-radius": func() { NewL1Ball(3, 0) },
		"simplex":   func() { NewSimplex(0) },
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
