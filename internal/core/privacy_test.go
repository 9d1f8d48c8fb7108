package core

import (
	"math"
	"testing"

	"htdp/internal/data"
	"htdp/internal/dpcheck"
	"htdp/internal/loss"
	"htdp/internal/polytope"
	"htdp/internal/randx"
	"htdp/internal/vecmath"
)

// neighbourPair builds two datasets differing in exactly one record,
// with the differing record swapped to an extreme heavy-tailed value —
// the adversarial neighbour a DP audit should use.
func neighbourPair(seed int64, n, d int) (*data.Dataset, *data.Dataset) {
	r := randx.New(seed)
	base := data.Linear(r, data.LinearOpt{
		N: n, D: d,
		Feature: randx.LogNormal{Mu: 0, Sigma: 1},
		Noise:   randx.Normal{Mu: 0, Sigma: 0.1},
	})
	nb := base.Clone()
	row := nb.X.Row(0)
	for j := range row {
		row[j] = 1e7 // unbounded-gradient record
	}
	nb.Y[0] = -1e7
	return base, nb
}

// TestFrankWolfePrivacyAudit audits one full Algorithm 1 run (T = 1, so
// the output is a deterministic function of the single exponential-
// mechanism selection) at its claimed ε on worst-case neighbours.
func TestFrankWolfePrivacyAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive audit")
	}
	d0, d1 := neighbourPair(1, 60, 8)
	dom := polytope.NewL1Ball(8, 1)
	rng := randx.New(2)
	eps := 1.0
	mech := func(neighbour bool) float64 {
		ds := d0
		if neighbour {
			ds = d1
		}
		w, err := FrankWolfeSource(data.NewMemSource(ds), FWOptions{
			Loss: loss.Squared{}, Domain: dom, Eps: eps, T: 1, S: 3,
			Rng: rng.Split(),
		})
		if err != nil {
			t.Fatal(err)
		}
		// The T=1 output encodes exactly which vertex was selected:
		// recover a scalar label (signed coordinate index).
		j := 0
		for i, x := range w {
			if math.Abs(x) > math.Abs(w[j]) {
				j = i
			}
		}
		if w[j] < 0 {
			return float64(-j - 1)
		}
		return float64(j + 1)
	}
	a := dpcheck.Run(mech, eps, 0, dpcheck.Options{Trials: 60000, Bins: 16})
	if !a.Passed {
		t.Fatalf("Algorithm 1 failed its privacy audit: %+v", a)
	}
}

// TestFrankWolfeAuditCatchesUndersizedScale rebuilds the same audit but
// lies about the estimator scale used in the sensitivity (calibrating
// the exponential mechanism for s=3 while running the estimator at
// s=300): the audit must detect the inflated true sensitivity.
func TestFrankWolfeAuditCatchesUndersizedScale(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive audit")
	}
	d0, d1 := neighbourPair(3, 60, 8)
	rng := randx.New(4)
	eps := 1.0
	// Hand-rolled single FW selection with a deliberately wrong
	// sensitivity (uses s=3 in the noise although the estimator runs at
	// s=300, i.e. 100× the stated sensitivity).
	mech := func(neighbour bool) float64 {
		ds := d0
		if neighbour {
			ds = d1
		}
		est := wrongScaleSelect(rng.Split(), ds, eps)
		return float64(est)
	}
	a := dpcheck.Run(mech, eps, 0, dpcheck.Options{Trials: 60000, Bins: 16})
	if a.Passed {
		t.Fatal("audit failed to catch a 100× sensitivity lie")
	}
}

// wrongScaleSelect mimics FrankWolfe's selection step with a broken
// sensitivity constant (test helper for the negative audit).
func wrongScaleSelect(rng *randx.RNG, ds *data.Dataset, eps float64) int {
	dom := polytope.NewL1Ball(ds.D(), 1)
	w := make([]float64, ds.D())
	grad := make([]float64, ds.D())
	buf := make([]float64, ds.D())
	estBig := 300.0
	claimed := 3.0
	// Robust estimate at scale estBig.
	for j := range grad {
		grad[j] = 0
	}
	for i := 0; i < ds.N(); i++ {
		loss.Squared{}.Grad(buf, w, ds.X.Row(i), ds.Y[i])
		for j, g := range buf {
			a := g / estBig
			b := a
			if b < 0 {
				b = -b
			}
			grad[j] += estBig * smoothedPhiForTest(a, b)
		}
	}
	for j := range grad {
		grad[j] /= float64(ds.N())
	}
	sens := dom.Radius * 4 * 1.4142135 * claimed / (3 * float64(ds.N()))
	best, bi := -1e300, 0
	for i := 0; i < dom.NumVertices(); i++ {
		v := eps/(2*sens)*dom.VertexScore(i, grad) + rng.Gumbel()
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// smoothedPhiForTest is a thin proxy for robust.SmoothedPhi used only by
// the negative audit; the exact correction is irrelevant — the point is
// the estimator scale mismatch.
func smoothedPhiForTest(a, b float64) float64 {
	return a * (1 - b*b/2)
}

// TestSparseLinRegDeterministicGivenSeed: the full pipeline is a pure
// function of (data, options, seed).
func TestAlgorithmsDeterministicGivenSeed(t *testing.T) {
	ds := linearL1Workload(5, 1000, 10)
	run := func(seed int64) []float64 {
		w, err := FrankWolfeSource(data.NewMemSource(ds), FWOptions{
			Loss: loss.Squared{}, Domain: polytope.NewL1Ball(10, 1), Eps: 1,
			Rng: randx.New(seed),
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	if vecmath.Dist2(run(7), run(7)) != 0 {
		t.Fatal("FrankWolfe not deterministic for a fixed seed")
	}
	if vecmath.Dist2(run(7), run(8)) == 0 {
		t.Fatal("seed ignored")
	}

	sp := sparseWorkload(6, 2000, 30, 3, nil)
	run3 := func(seed int64) []float64 {
		w, err := SparseLinRegSource(data.NewMemSource(sp), SparseLinRegOptions{
			Eps: 1, Delta: 1e-5, SStar: 3, Rng: randx.New(seed),
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	if vecmath.Dist2(run3(9), run3(9)) != 0 {
		t.Fatal("SparseLinReg not deterministic for a fixed seed")
	}
}
