package htdp_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"htdp"
)

// TestFacadeEndToEnd exercises the public API the way the README's
// quickstart does: data generation, all four paper algorithms, the
// baselines, and the lower bound, through exported names only.
func TestFacadeEndToEnd(t *testing.T) {
	rng := htdp.NewRNG(1)
	const n, d = 4000, 60

	ds := htdp.LinearData(rng, htdp.LinearOpt{
		N: n, D: d,
		Feature: htdp.LogNormal{Mu: 0, Sigma: math.Sqrt(0.6)},
		Noise:   htdp.Normal{Mu: 0, Sigma: math.Sqrt(0.1)},
	})
	dom := htdp.NewL1Ball(d, 1)

	// Algorithm 1.
	w1, err := htdp.FrankWolfe(ds, htdp.FWOptions{
		Loss: htdp.SquaredLoss{}, Domain: dom, Eps: 2, Rng: rng.Split(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := htdp.NonprivateFW(ds, htdp.SquaredLoss{}, dom, 100, nil)
	if htdp.ExcessRisk(htdp.SquaredLoss{}, w1, ref, ds) < 0 {
		t.Log("private beat the reference (possible at high ε); fine")
	}

	// Algorithm 2.
	if _, err := htdp.Lasso(ds, htdp.LassoOptions{Eps: 1, Delta: 1e-5, Rng: rng.Split()}); err != nil {
		t.Fatal(err)
	}

	// Algorithm 3 on a sparse instance.
	wStar := htdp.SparseWStar(rng, d, 4)
	sparse := htdp.LinearData(rng, htdp.LinearOpt{
		N: n, D: d, Feature: htdp.Normal{Mu: 0, Sigma: 1}, WStar: wStar,
	})
	if _, err := htdp.SparseLinReg(sparse, htdp.SparseLinRegOptions{
		Eps: 1, Delta: 1e-5, SStar: 4, Rng: rng.Split(),
	}); err != nil {
		t.Fatal(err)
	}

	// Algorithm 5.
	if _, err := htdp.SparseOpt(sparse, htdp.SparseOptOptions{
		Loss: htdp.SquaredLoss{}, Eps: 1, Delta: 1e-5, SStar: 4, Eta: 0.2, Rng: rng.Split(),
	}); err != nil {
		t.Fatal(err)
	}

	// Extensions.
	if _, err := htdp.SparseMeanSource(htdp.NewMemSource(sparse), htdp.SparseMeanOptions{
		Eps: 1, Delta: 1e-5, SStar: 4, Rng: rng.Split(),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := htdp.FullDataFW(ds, htdp.FullDataFWOptions{
		Loss: htdp.SquaredLoss{}, Domain: dom, Eps: 1, Delta: 1e-5, Rng: rng.Split(),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := htdp.RobustRegression(ds, htdp.RobustRegressionOptions{
		Eps: 1, Rng: rng.Split(),
	}); err != nil {
		t.Fatal(err)
	}

	// Lower bound and accounting helpers.
	if lb := htdp.MinimaxLowerBound(1, 4, d, n, 1, 1e-5); lb <= 0 {
		t.Fatalf("lower bound = %v", lb)
	}
	per, err := htdp.AdvancedComposition(htdp.DPParams{Eps: 1, Delta: 1e-5}, 10)
	if err != nil || per.Eps <= 0 {
		t.Fatalf("composition: %v %v", per, err)
	}
	if s := htdp.GaussianSigmaRDP(1, htdp.DPParams{Eps: 1, Delta: 1e-5}, 100); s <= 0 {
		t.Fatalf("σ_RDP = %v", s)
	}
}

func TestFacadeRobustHelpers(t *testing.T) {
	rng := htdp.NewRNG(2)
	xs := make([]float64, 5001)
	pareto := htdp.Pareto{Xm: 1, Alpha: 2.5}
	for i := range xs {
		xs[i] = pareto.Sample(rng)
	}
	truth := pareto.Mean()
	if got := htdp.RobustMean(xs, 40, 1); math.Abs(got-truth) > 0.3 {
		t.Errorf("RobustMean = %v, want ≈%v", got, truth)
	}
	if got := htdp.CatoniMean(xs, htdp.CatoniAlpha(len(xs), 10, 0.05)); math.Abs(got-truth) > 0.3 {
		t.Errorf("CatoniMean = %v, want ≈%v", got, truth)
	}
	if got := htdp.MedianOfMeans(xs, 51); math.Abs(got-truth) > 0.4 {
		t.Errorf("MedianOfMeans = %v, want ≈%v", got, truth)
	}
	if tau := htdp.SecondMomentUpperBound(xs, 51, 1.5); tau <= 0 {
		t.Errorf("τ̂ = %v", tau)
	}
	gm := htdp.GeometricMedian([][]float64{{0, 0}, {1, 0}, {5, 0}})
	if math.Abs(gm[0]-1) > 1e-6 {
		t.Errorf("GeometricMedian = %v", gm)
	}
}

func TestFacadeExperimentsRegistry(t *testing.T) {
	if len(htdp.Experiments()) < 16 {
		t.Fatalf("registry too small: %d", len(htdp.Experiments()))
	}
	spec, err := htdp.LookupExperiment("fig1")
	if err != nil || spec.ID != "fig1" {
		t.Fatalf("lookup: %v %v", spec, err)
	}
}

func TestFacadeRemainingWrappers(t *testing.T) {
	rng := htdp.NewRNG(4)
	// Classification generator + simplex domain + remaining baselines.
	ds := htdp.LogisticData(rng, htdp.LogisticOpt{
		N: 600, D: 6, Feature: htdp.Normal{Mu: 0.5, Sigma: 1},
	})
	if ds.N() != 600 || ds.D() != 6 {
		t.Fatalf("shape %dx%d", ds.N(), ds.D())
	}
	sim := htdp.NewSimplex(6)
	if sim.NumVertices() != 6 {
		t.Fatal("simplex wrapper broken")
	}
	if _, err := htdp.TalwarDPFW(ds, htdp.TalwarFWOptions{
		Loss: htdp.LogisticLoss{}, Domain: htdp.NewL1Ball(6, 1),
		Eps: 1, Delta: 1e-5, T: 5, Rng: rng.Split(),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := htdp.DPGD(ds, htdp.DPGDOptions{
		Loss: htdp.LogisticLoss{}, Eps: 1, Delta: 1e-5, T: 5, Rng: rng.Split(),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := htdp.DPSGDSource(htdp.NewMemSource(ds), htdp.DPSGDOptions{
		Loss: htdp.LogisticLoss{}, Eps: 1, Delta: 1e-5, T: 5, Batch: 50, Rng: rng.Split(),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := htdp.RobustGaussianGD(ds, htdp.RobustGaussianGDOptions{
		Loss: htdp.LogisticLoss{}, Eps: 1, Delta: 1e-5, T: 5, Rng: rng.Split(),
	}); err != nil {
		t.Fatal(err)
	}
	if w := htdp.NonprivateIHT(ds, 2, 5, 0.1); htdp.Norm0(w) > 2 {
		t.Fatal("IHT wrapper broken")
	}
	if htdp.RobustMean([]float64{1, 2, 3}, 100, 1) == 0 {
		t.Fatal("RobustMean wrapper broken")
	}
	if amp := htdp.AmplifyBySubsampling(htdp.DPParams{Eps: 1, Delta: 1e-5}, 0.1); amp.Eps >= 1 {
		t.Fatal("amplification wrapper broken")
	}
	if r := htdp.GaussianRDP(1, 1); len(r.Orders) == 0 {
		t.Fatal("RDP wrapper broken")
	}
	m := htdp.NewMat(2, 2)
	if m.Rows != 2 {
		t.Fatal("NewMat wrapper broken")
	}
	if htdp.Dist2([]float64{0, 3}, []float64{4, 0}) != 5 {
		t.Fatal("Dist2 wrapper broken")
	}
}

func TestFacadeSimulatedReal(t *testing.T) {
	specs := htdp.RealSpecs()
	if len(specs) != 4 {
		t.Fatalf("%d real specs", len(specs))
	}
	ds, err := htdp.SimulatedReal(htdp.NewRNG(3), specs[0], 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if ds.D() != specs[0].D || ds.N() < 100 {
		t.Fatalf("shape %dx%d", ds.N(), ds.D())
	}
	if _, err := htdp.SimulatedReal(htdp.NewRNG(3), specs[0], math.NaN()); err == nil {
		t.Fatal("NaN scale accepted")
	}
}

// TestFacadeServing exercises the serving re-exports end to end: pool,
// server, one HTTP run bit-identical to the direct ExecuteRun, and a
// request-level sweep.
func TestFacadeServing(t *testing.T) {
	gen := htdp.LinearSource(5, htdp.LinearOpt{
		N: 150, D: 4,
		Feature: htdp.LogNormal{Mu: 0, Sigma: 0.7},
		Noise:   htdp.Normal{Mu: 0, Sigma: 0.2},
	})
	pool := htdp.NewSourcePool()
	defer pool.Close()
	if _, err := pool.RegisterGen("demo", gen); err != nil {
		t.Fatal(err)
	}
	if e, err := pool.Lookup("demo"); err != nil || e.N != 150 || e.D != 4 {
		t.Fatalf("Lookup = %+v, %v", e, err)
	}

	srv, err := htdp.NewServer(pool, htdp.ServeOptions{Workers: 2, NoAuth: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := htdp.RunRequest{Dataset: "demo", Algo: "fw", Eps: 1, Seed: 2, T: 3}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	served, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("run = %d %q", resp.StatusCode, served)
	}

	direct := req
	direct.Parallelism = 1
	res, err := htdp.ExecuteRun(context.Background(), gen.Clone(), direct)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, append(want, '\n')) {
		t.Fatal("served bytes differ from direct ExecuteRun")
	}

	panels, err := htdp.RunSweep(context.Background(), htdp.SweepRequest{Experiment: "abl-shrink-k", Reps: 1, Scale: 0.01}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 1 || len(panels[0].Series) == 0 {
		t.Fatalf("RunSweep panels = %+v", panels)
	}
	if _, err := htdp.RunSweep(context.Background(), htdp.SweepRequest{Experiment: "fig99"}, nil); err == nil {
		t.Fatal("unknown experiment: expected error")
	}
}

// TestPeelingArgumentTable drives Algorithm 4 through the facade with
// the arguments no algorithm validates for it. A NaN ε, δ or λ fails
// every comparison, so it would skip both noise draws and release the
// exact top s; a NaN entry of v would leave a selection round with no
// candidate. Each must panic naming its argument, while λ = 0 (zero
// sensitivity) stays the documented exact top s.
func TestPeelingArgumentTable(t *testing.T) {
	v := []float64{0.5, -3, 2, 0.1}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name            string
		v               []float64
		eps, delta, lam float64
		panicWith       string // "" → the exact top 2
	}{
		{"lambda NaN", v, 1, 1e-5, nan, "λ=NaN"},
		{"eps NaN", v, nan, 1e-5, 1, "ε=NaN"},
		{"delta NaN", v, 1, nan, 1, "δ=NaN"},
		{"lambda +Inf", v, 1, 1e-5, inf, "λ=+Inf"},
		{"eps +Inf", v, inf, 1e-5, 1, "ε=+Inf"},
		{"eps subnormal", v, 5e-324, 1e-5, 1, "noise scale overflows"},
		{"delta subnormal", v, 1, 5e-324, 1, "noise scale overflows"},
		{"v NaN", []float64{0.5, nan, 2, 0.1}, 1, 1e-5, 1, "v[1]=NaN"},
		{"v -Inf", []float64{0.5, -3, math.Inf(-1), 0.1}, 1, 1e-5, 1, "v[2]=-Inf"},
		{"lambda 0", v, 1, 1e-5, 0, ""},
		{"lambda 0, delta subnormal", v, 1, 5e-324, 0, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			var got []float64
			msg := func() (msg string) {
				defer func() {
					if r := recover(); r != nil {
						msg = fmt.Sprint(r)
					}
				}()
				got = htdp.PeelingP(htdp.NewRNG(1), c.v, 2, c.eps, c.delta, c.lam, 1)
				return ""
			}()
			if c.panicWith == "" {
				if msg != "" {
					t.Fatalf("panicked: %s", msg)
				}
				if want := []float64{0, -3, 2, 0}; fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("got %v, want the exact top 2 %v", got, want)
				}
				return
			}
			if !strings.Contains(msg, c.panicWith) {
				t.Fatalf("got %v (panic %q), want a panic naming %q", got, msg, c.panicWith)
			}
		})
	}
	// A finite scale near MaxFloat64 makes about one Laplace draw in
	// twelve overflow to −∞. A round whose every candidate scores −∞
	// must still select one, never index −1.
	for seed := int64(1); seed <= 64; seed++ {
		out := htdp.PeelingP(htdp.NewRNG(seed), []float64{1, 2}, 2, 1, 1e-5, 6e306, 1)
		if out[0] == 0 || out[1] == 0 {
			t.Fatalf("seed %d: released %v, want both coordinates selected", seed, out)
		}
	}
}
