package core

import (
	"fmt"
	"math"
	"testing"

	"htdp/internal/data"
	"htdp/internal/loss"
	"htdp/internal/polytope"
	"htdp/internal/randx"
	"htdp/internal/vecmath"
)

func TestNonprivateIHTRecovery(t *testing.T) {
	// Gaussian design, noiseless sparse model: exact support recovery.
	r := randx.New(1)
	d, sStar := 50, 3
	w := data.SparseWStar(r, d, sStar)
	ds := data.Linear(r, data.LinearOpt{
		N: 2000, D: d, Feature: randx.Normal{Mu: 0, Sigma: 1}, WStar: w,
	})
	got := NonprivateIHT(ds, sStar, 100, 0.5)
	if dist := vecmath.Dist2(got, w); dist > 0.02 {
		t.Fatalf("IHT recovery distance %v", dist)
	}
}

func TestTalwarDPFW(t *testing.T) {
	ds := linearL1Workload(3, 10000, 10)
	dom := polytope.NewL1Ball(10, 1)
	w, err := TalwarDPFWSource(data.NewMemSource(ds), TalwarFWOptions{
		Loss: loss.Squared{}, Domain: dom, Eps: 2, Delta: 1e-5,
		GradBound: 5, Rng: randx.New(4), T: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dom.Contains(w, 1e-9) {
		t.Fatalf("infeasible output ‖w‖₁=%v", vecmath.Norm1(w))
	}
	zero := make([]float64, 10)
	if loss.Empirical(loss.Squared{}, w, ds.X, ds.Y) >= loss.Empirical(loss.Squared{}, zero, ds.X, ds.Y) {
		t.Fatal("no improvement")
	}
	// Validation.
	if _, err := TalwarDPFWSource(data.NewMemSource(ds), TalwarFWOptions{Loss: loss.Squared{}, Domain: dom, Eps: 1, Rng: randx.New(5)}); err == nil {
		t.Error("accepted δ=0")
	}
	if _, err := TalwarDPFWSource(data.NewMemSource(ds), TalwarFWOptions{Eps: 1, Delta: 1e-5}); err == nil {
		t.Error("accepted missing fields")
	}
}

func TestDPGD(t *testing.T) {
	ds := linearL1Workload(6, 10000, 8)
	dom := polytope.NewL1Ball(8, 1)
	w, err := DPGDSource(data.NewMemSource(ds), DPGDOptions{
		Loss: loss.Squared{}, Eps: 2, Delta: 1e-5,
		Project: dom.Project, Clip: 4, LR: 0.05, T: 40, Rng: randx.New(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dom.Contains(w, 1e-9) {
		t.Fatal("projection not applied")
	}
	zero := make([]float64, 8)
	if loss.Empirical(loss.Squared{}, w, ds.X, ds.Y) >= loss.Empirical(loss.Squared{}, zero, ds.X, ds.Y) {
		t.Fatal("no improvement")
	}
	if _, err := DPGDSource(data.NewMemSource(ds), DPGDOptions{Loss: loss.Squared{}, Eps: 1, Rng: randx.New(8)}); err == nil {
		t.Error("accepted δ=0")
	}
}

func TestRobustGaussianGD(t *testing.T) {
	// LR must stay below 1/λmax(2E[xxᵀ]) ≈ 1/32 for this lognormal
	// design or GD itself diverges regardless of privacy noise.
	ds := linearL1Workload(9, 10000, 8)
	zero := make([]float64, 8)
	r0 := loss.Empirical(loss.Squared{}, zero, ds.X, ds.Y)
	var tot float64
	const reps = 3
	for k := int64(0); k < reps; k++ {
		w, err := RobustGaussianGDSource(data.NewMemSource(ds), RobustGaussianGDOptions{
			Loss: loss.Squared{}, Eps: 2, Delta: 1e-5,
			Project: func(w []float64) []float64 { return vecmath.ProjectL1Ball(w, 1) },
			LR:      0.02, T: 30, S: 10, Rng: randx.New(10 + k),
		})
		if err != nil {
			t.Fatal(err)
		}
		if vecmath.Norm1(w) > 1+1e-9 {
			t.Fatal("projection not applied")
		}
		tot += loss.Empirical(loss.Squared{}, w, ds.X, ds.Y)
	}
	if tot/reps >= r0 {
		t.Fatalf("avg risk %v not below zero-init risk %v", tot/reps, r0)
	}
}

func TestFWExcessNearlyFlatInDimension(t *testing.T) {
	// The paper's headline high-dimensional claim (Theorem 2, Figure 1a):
	// Algorithm 1's excess risk depends on d only through log d, so an
	// 8× dimension jump at fixed (n, ε) must not blow the error up.
	excess := func(d int, seed int64) float64 {
		ds := linearL1Workload(seed, 8000, d)
		dom := polytope.NewL1Ball(d, 1)
		ref := NonprivateFW(ds, loss.Squared{}, dom, 200, nil)
		var tot float64
		const reps = 4
		for k := int64(0); k < reps; k++ {
			w, err := FrankWolfeSource(data.NewMemSource(ds), FWOptions{
				Loss: loss.Squared{}, Domain: dom, Eps: 1, Rng: randx.New(seed*100 + k),
			})
			if err != nil {
				t.Fatal(err)
			}
			tot += loss.ExcessRisk(loss.Squared{}, w, ref, ds.X, ds.Y)
		}
		return tot / reps
	}
	lo := excess(100, 11)
	hi := excess(800, 12)
	// log(800)/log(100) ≈ 1.45; allow generous constant slack but reject
	// anything resembling polynomial growth (8× or worse).
	if hi > 4*lo+0.05 {
		t.Fatalf("excess grew from %v (d=100) to %v (d=800) — not polylogarithmic", lo, hi)
	}
}

func TestDPSGD(t *testing.T) {
	ds := linearL1Workload(20, 10000, 8)
	dom := polytope.NewL1Ball(8, 1)
	w, err := DPSGDSource(data.NewMemSource(ds), DPSGDOptions{
		Loss: loss.Squared{}, Eps: 2, Delta: 1e-5,
		Project: dom.Project, Clip: 4, LR: 0.02, T: 100, Batch: 500,
		Rng: randx.New(21),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dom.Contains(w, 1e-9) {
		t.Fatal("projection not applied")
	}
	zero := make([]float64, 8)
	if loss.Empirical(loss.Squared{}, w, ds.X, ds.Y) >= loss.Empirical(loss.Squared{}, zero, ds.X, ds.Y) {
		t.Fatal("no improvement")
	}
	if _, err := DPSGDSource(data.NewMemSource(ds), DPSGDOptions{Loss: loss.Squared{}, Eps: 1, Rng: randx.New(22)}); err == nil {
		t.Error("accepted δ=0")
	}
}

func TestDPSGDAmplificationHelps(t *testing.T) {
	// The noise σ calibrated for a small batch (strong amplification)
	// must be smaller relative to the batch-mean sensitivity than for
	// the full batch. We verify indirectly: both run, and the small-batch
	// run is no catastrophe.
	ds := linearL1Workload(23, 5000, 5)
	dom := polytope.NewL1Ball(5, 1)
	for _, batch := range []int{100, 5000} {
		w, err := DPSGDSource(data.NewMemSource(ds), DPSGDOptions{
			Loss: loss.Squared{}, Eps: 1, Delta: 1e-5,
			Project: dom.Project, Clip: 4, LR: 0.02, T: 50, Batch: batch,
			Rng: randx.New(24),
		})
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if !vecmath.IsFinite(w) {
			t.Fatalf("batch %d: non-finite iterate", batch)
		}
	}
}

func TestFrankWolfeAveraging(t *testing.T) {
	ds := linearL1Workload(25, 8000, 15)
	dom := polytope.NewL1Ball(15, 1)
	var lastTot, avgTot float64
	const reps = 5
	for k := int64(0); k < reps; k++ {
		last, err := FrankWolfeSource(data.NewMemSource(ds), FWOptions{
			Loss: loss.Squared{}, Domain: dom, Eps: 1, Rng: randx.New(30 + k),
		})
		if err != nil {
			t.Fatal(err)
		}
		avg, err := FrankWolfeSource(data.NewMemSource(ds), FWOptions{
			Loss: loss.Squared{}, Domain: dom, Eps: 1, Average: true, Rng: randx.New(30 + k),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !dom.Contains(avg, 1e-9) {
			t.Fatal("averaged iterate infeasible (convexity violated?)")
		}
		lastTot += loss.Empirical(loss.Squared{}, last, ds.X, ds.Y)
		avgTot += loss.Empirical(loss.Squared{}, avg, ds.X, ds.Y)
	}
	// Averaging is a free post-processing; it should not be much worse.
	if avgTot > lastTot*1.5+0.05 {
		t.Fatalf("averaging hurt badly: %v vs %v", avgTot/reps, lastTot/reps)
	}
}

func TestDPGDDefaultsApplied(t *testing.T) {
	ds := linearL1Workload(12, 500, 4)
	opt := DPGDOptions{Loss: loss.Squared{}, Eps: 1, Delta: 1e-5, Rng: randx.New(13)}
	if _, err := DPGDSource(data.NewMemSource(ds), opt); err != nil {
		t.Fatal(err)
	}
}

// TestTalwarDefaultT: T = 0 takes ⌈(nε)^{2/3}⌉ clamped to [1, n] in
// float before the conversion to int, so an ε large enough to overflow
// int runs n passes, not an unbounded count or, after a wrapped
// conversion, a single one.
func TestTalwarDefaultT(t *testing.T) {
	ds := linearL1Workload(14, 1000, 4)
	opt := TalwarFWOptions{
		Loss: loss.Squared{}, Domain: polytope.NewL1Ball(4, 1),
		Eps: 1, Delta: 1e-5, Rng: randx.New(15),
	}
	if _, err := TalwarDPFWSource(data.NewMemSource(ds), opt); err != nil {
		t.Fatal(err)
	}
	small := linearL1Workload(16, 48, 4)
	for _, eps := range []float64{1e15, 1e300} {
		src := &passCounter{Source: data.NewMemSource(small), limit: small.N()}
		opt.Eps, opt.Rng = eps, randx.New(17)
		w, err := TalwarDPFWSource(src, opt)
		if err != nil {
			t.Fatalf("ε=%g: %v", eps, err)
		}
		if src.passes != small.N() {
			t.Errorf("ε=%g: %d passes, want n = %d", eps, src.passes, small.N())
		}
		for j, x := range w {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("ε=%g: w[%d] = %v", eps, j, x)
			}
		}
	}
}

// passCounter counts the full-data passes over a source of one stream
// chunk (its Chunk(0, 1) loads) and fails the load that would start
// pass limit+1.
type passCounter struct {
	data.Source
	passes, limit int
}

func (p *passCounter) Chunk(t, T int) (*data.Dataset, error) {
	if p.passes == p.limit {
		return nil, fmt.Errorf("pass %d past the limit of %d", p.passes+1, p.limit)
	}
	p.passes++
	return p.Source.Chunk(t, T)
}
