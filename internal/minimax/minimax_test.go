package minimax

import (
	"math"
	"testing"
)

func TestPackingLogSize(t *testing.T) {
	// Matches the closed form and grows with d at fixed s.
	got := PackingLogSize(100, 10)
	want := 5 * math.Log(90.0/5)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("PackingLogSize = %v, want %v", got, want)
	}
	if PackingLogSize(1000, 10) <= got {
		t.Fatal("packing size not increasing in d")
	}
}

func TestLowerBoundShape(t *testing.T) {
	base := LowerBound(1, 10, 1000, 10000, 1, 1e-5)
	if base <= 0 {
		t.Fatal("bound not positive in a sane regime")
	}
	// Decreasing in n and ε; increasing in τ; increasing in d.
	if LowerBound(1, 10, 1000, 20000, 1, 1e-5) >= base {
		t.Error("not decreasing in n")
	}
	if LowerBound(1, 10, 1000, 10000, 2, 1e-5) >= base {
		t.Error("not decreasing in ε")
	}
	if LowerBound(2, 10, 1000, 10000, 1, 1e-5) <= base {
		t.Error("not increasing in τ")
	}
	// d only matters when the packing term of the min binds, i.e. at
	// negligible δ; at δ=1e-5 the log(1/δ) cap binds and d is irrelevant.
	if LowerBound(1, 10, 4000, 10000, 1, 1e-300) <= LowerBound(1, 10, 1000, 10000, 1, 1e-300) {
		t.Error("not increasing in d (packing regime)")
	}
	if LowerBound(1, 10, 4000, 10000, 1, 1e-5) != base {
		t.Error("δ-capped regime should be flat in d")
	}
	// δ cap: with tiny s·log d the first min-term binds; with tiny δ the
	// second is large, so shrinking δ must not lower the bound.
	if LowerBound(1, 10, 1000, 10000, 1, 1e-12) < base {
		t.Error("smaller δ lowered the bound")
	}
	// Asymptotic form Ω(τ·s·log d/(nε)): doubling s roughly doubles it.
	twice := LowerBound(1, 20, 1000, 10000, 1, 1e-300)
	once := LowerBound(1, 10, 1000, 10000, 1, 1e-300)
	if ratio := twice / once; ratio < 1.5 || ratio > 2.5 {
		t.Errorf("s-scaling ratio %v, want ≈2", ratio)
	}
}

func TestLowerBoundDegenerate(t *testing.T) {
	// When δ is large the min-term can go non-positive → bound 0.
	if got := LowerBound(1, 2, 10, 100, 5, 0.4); got != 0 {
		t.Fatalf("degenerate bound = %v, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for s ≥ d")
		}
	}()
	LowerBound(1, 10, 10, 100, 1, 1e-5)
}
