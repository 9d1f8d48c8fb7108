package vecmath

import (
	"math"
	"math/rand"
	"testing"
)

func TestOnlineMomentsMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()*10 + 5
		}
		var o OnlineMoments
		o.AddAll(xs)
		mean, ss := 0.0, 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		if !almostEq(o.Mean, mean, 1e-12) {
			t.Fatalf("mean %v vs %v", o.Mean, mean)
		}
		if v := ss / float64(n); !almostEq(o.Var(), v, 1e-10) {
			t.Fatalf("var %v vs %v", o.Var(), v)
		}
	}
}

func TestOnlineMomentsMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 301)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 3
	}
	var whole, a, b OnlineMoments
	whole.AddAll(xs)
	a.AddAll(xs[:120])
	b.AddAll(xs[120:])
	a.Merge(b)
	if a.N != whole.N || !almostEq(a.Mean, whole.Mean, 1e-12) || !almostEq(a.Var(), whole.Var(), 1e-10) {
		t.Fatalf("merge mismatch: %+v vs %+v", a, whole)
	}
	// Merging into/with empty is the identity.
	var empty OnlineMoments
	c := whole
	c.Merge(empty)
	if c != whole {
		t.Fatal("merge with empty changed state")
	}
	empty.Merge(whole)
	if empty != whole {
		t.Fatal("merge into empty did not copy")
	}
}

func TestOnlineMomentsCancellationSafe(t *testing.T) {
	// Naive Σx² − (Σx)²/n catastrophically cancels here; Welford must not.
	var o OnlineMoments
	base := 1e9
	for _, d := range []float64{0, 1, 2, 3, 4} {
		o.Add(base + d)
	}
	if !almostEq(o.Var(), 2, 1e-6) {
		t.Fatalf("variance %v, want 2", o.Var())
	}
}

func TestOnlineMomentsSmall(t *testing.T) {
	var o OnlineMoments
	if o.Var() != 0 || o.Std() != 0 {
		t.Fatal("empty accumulator moments non-zero")
	}
	o.Add(5)
	if o.Mean != 5 || o.Var() != 0 {
		t.Fatalf("single sample: %+v", o)
	}
	o.Add(7)
	if o.Mean != 6 || !almostEq(o.Var(), 1, 1e-12) {
		t.Fatalf("two samples: mean %v var %v", o.Mean, o.Var())
	}
	if math.Abs(o.Std()-1) > 1e-12 {
		t.Fatalf("std %v", o.Std())
	}
}
