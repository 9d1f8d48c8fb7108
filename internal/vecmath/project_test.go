package vecmath

import (
	"math"
	"math/rand"
	"testing"
)

func TestProjectL2Ball(t *testing.T) {
	v := []float64{3, 4}
	ProjectL2Ball(v, 1)
	if !almostEq(Norm2(v), 1, 1e-12) {
		t.Fatalf("norm after projection = %v", Norm2(v))
	}
	w := []float64{0.3, 0.4}
	c := Clone(w)
	ProjectL2Ball(w, 1)
	if Dist2(w, c) != 0 {
		t.Fatal("interior point moved")
	}
	z := []float64{0, 0}
	ProjectL2Ball(z, 0)
	if Norm2(z) != 0 {
		t.Fatal("zero vector mishandled")
	}
}

func TestProjectL1BallFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		d := 1 + rng.Intn(15)
		r := rng.Float64() * 3
		v := make([]float64, d)
		for i := range v {
			v[i] = rng.NormFloat64() * 4
		}
		orig := Clone(v)
		ProjectL1Ball(v, r)
		if Norm1(v) > r*(1+1e-9)+1e-12 {
			t.Fatalf("infeasible: ‖v‖₁=%v > r=%v", Norm1(v), r)
		}
		// Projection is the identity inside the ball.
		if Norm1(orig) <= r {
			if Dist2(v, orig) != 0 {
				t.Fatal("interior point moved")
			}
		}
		// Sign preservation: projection onto ℓ1 ball never flips signs.
		for i := range v {
			if v[i] != 0 && orig[i] != 0 && math.Signbit(v[i]) != math.Signbit(orig[i]) {
				t.Fatalf("sign flipped at %d: %v -> %v", i, orig[i], v[i])
			}
		}
	}
}

// bruteProjectL1 projects onto the ℓ1 ball by scanning a fine grid of the
// soft-threshold parameter θ — slower but independent of the Duchi code.
func bruteProjectL1(v []float64, r float64) []float64 {
	if Norm1(v) <= r {
		return Clone(v)
	}
	lo, hi := 0.0, 0.0
	for _, x := range v {
		hi = math.Max(hi, math.Abs(x))
	}
	for iter := 0; iter < 200; iter++ {
		mid := (lo + hi) / 2
		if Norm1(softThreshold(v, mid)) > r {
			lo = mid
		} else {
			hi = mid
		}
	}
	return softThreshold(v, (lo+hi)/2)
}

// softThreshold returns sign(x)·max(|x|−λ, 0) entry-wise as a new slice.
func softThreshold(v []float64, lambda float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		if a := math.Abs(x) - lambda; a > 0 {
			out[i] = math.Copysign(a, x)
		}
	}
	return out
}

func TestProjectL1BallMatchesBisection(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(10)
		r := 0.1 + rng.Float64()*2
		v := make([]float64, d)
		for i := range v {
			v[i] = rng.NormFloat64() * 3
		}
		want := bruteProjectL1(v, r)
		got := ProjectL1Ball(Clone(v), r)
		if Dist2(got, want) > 1e-6 {
			t.Fatalf("projection mismatch: got %v, want %v (input %v, r=%v)", got, want, v, r)
		}
	}
}

func TestProjectL1BallOptimality(t *testing.T) {
	// The projection must be at least as close as many random feasible
	// points (projection = nearest point of the ball).
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		d := 2 + rng.Intn(6)
		r := 0.5 + rng.Float64()
		v := make([]float64, d)
		for i := range v {
			v[i] = rng.NormFloat64() * 3
		}
		p := ProjectL1Ball(Clone(v), r)
		dp := Dist2(p, v)
		for k := 0; k < 200; k++ {
			q := make([]float64, d)
			for i := range q {
				q[i] = rng.NormFloat64()
			}
			if n := Norm1(q); n > r {
				Scale(q, r/n)
			}
			if Dist2(q, v) < dp-1e-9 {
				t.Fatalf("found feasible point closer than the projection: %v < %v", Dist2(q, v), dp)
			}
		}
	}
}

func TestProjectL1BallZeroRadius(t *testing.T) {
	v := []float64{1, -2, 3}
	ProjectL1Ball(v, 0)
	if Norm1(v) != 0 {
		t.Fatalf("radius-0 projection = %v", v)
	}
}

func TestProjectSimplex(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(10)
		v := make([]float64, d)
		for i := range v {
			v[i] = rng.NormFloat64() * 2
		}
		p := ProjectSimplex(Clone(v))
		sum := 0.0
		for _, x := range p {
			sum += x
		}
		if !almostEq(sum, 1, 1e-9) {
			t.Fatalf("simplex sum = %v", sum)
		}
		for i, x := range p {
			if x < 0 {
				t.Fatalf("negative simplex coordinate %d: %v", i, x)
			}
		}
	}
	// A point already on the simplex is fixed.
	v := []float64{0.2, 0.3, 0.5}
	p := ProjectSimplex(Clone(v))
	if Dist2(p, v) > 1e-12 {
		t.Fatalf("simplex point moved: %v", p)
	}
}

func TestProjectionIdempotence(t *testing.T) {
	// proj(proj(v)) == proj(v) for all three projections — a defining
	// property of metric projections onto convex sets.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(12)
		v := make([]float64, d)
		for i := range v {
			v[i] = rng.NormFloat64() * 5
		}
		r := 0.2 + rng.Float64()*2

		p1 := ProjectL1Ball(Clone(v), r)
		p2 := ProjectL1Ball(Clone(p1), r)
		if Dist2(p1, p2) > 1e-9 {
			t.Fatalf("ℓ1 projection not idempotent: %v -> %v", p1, p2)
		}

		q1 := ProjectL2Ball(Clone(v), r)
		q2 := ProjectL2Ball(Clone(q1), r)
		if Dist2(q1, q2) > 1e-12 {
			t.Fatalf("ℓ2 projection not idempotent")
		}

		s1 := ProjectSimplex(Clone(v))
		s2 := ProjectSimplex(Clone(s1))
		if Dist2(s1, s2) > 1e-9 {
			t.Fatalf("simplex projection not idempotent: %v -> %v", s1, s2)
		}
	}
}
