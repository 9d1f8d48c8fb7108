package core

import (
	"testing"

	"htdp/internal/data"
	"htdp/internal/loss"
	"htdp/internal/polytope"
	"htdp/internal/randx"
	"htdp/internal/vecmath"
)

// TestShapeChecks: every entry point rejects a source and options whose
// shapes disagree — an empty source, a domain of another dimension, an
// initial iterate of another length — with an error, never a panic and
// never a NaN result.
func TestShapeChecks(t *testing.T) {
	const d = 6
	full := data.NewMemSource(determinismDataset(23, 200, d))
	empty := data.NewMemSource(&data.Dataset{X: vecmath.NewMat(0, d)})
	good := polytope.NewL1Ball(d, 1)

	type run func(src data.Source, dom polytope.L1Ball, w0 []float64) ([]float64, error)
	entries := map[string]struct {
		run     run
		dom, w0 bool // whether the options take a domain / an initial iterate
	}{
		"FrankWolfe": {func(src data.Source, dom polytope.L1Ball, w0 []float64) ([]float64, error) {
			return FrankWolfeSource(src, FWOptions{Loss: loss.Squared{}, Domain: dom, Eps: 1, W0: w0, Rng: randx.New(1)})
		}, true, true},
		"Lasso": {func(src data.Source, dom polytope.L1Ball, w0 []float64) ([]float64, error) {
			return LassoSource(src, LassoOptions{Domain: dom, Eps: 1, Delta: 1e-5, W0: w0, Rng: randx.New(2)})
		}, true, true},
		"SparseLinReg": {func(src data.Source, _ polytope.L1Ball, w0 []float64) ([]float64, error) {
			return SparseLinRegSource(src, SparseLinRegOptions{Eps: 1, Delta: 1e-5, SStar: 2, W0: w0, Rng: randx.New(3)})
		}, false, true},
		"SparseOpt": {func(src data.Source, _ polytope.L1Ball, w0 []float64) ([]float64, error) {
			return SparseOptSource(src, SparseOptOptions{Loss: loss.Squared{}, Eps: 1, Delta: 1e-5, SStar: 2, W0: w0, Rng: randx.New(4)})
		}, false, true},
		"SparseMean": {func(src data.Source, _ polytope.L1Ball, _ []float64) ([]float64, error) {
			return SparseMeanSource(src, SparseMeanOptions{Eps: 1, Delta: 1e-5, SStar: 2, Rng: randx.New(5)})
		}, false, false},
		"FullDataFW": {func(src data.Source, dom polytope.L1Ball, w0 []float64) ([]float64, error) {
			return FullDataFWSource(src, FullDataFWOptions{Loss: loss.Squared{}, Domain: dom, Eps: 1, Delta: 1e-5, W0: w0, Rng: randx.New(6)})
		}, true, true},
		"RobustRegression": {func(src data.Source, dom polytope.L1Ball, _ []float64) ([]float64, error) {
			return RobustRegressionSource(src, RobustRegressionOptions{Domain: dom, Eps: 1, Rng: randx.New(7)})
		}, true, false},
		"TalwarDPFW": {func(src data.Source, dom polytope.L1Ball, w0 []float64) ([]float64, error) {
			return TalwarDPFWSource(src, TalwarFWOptions{Loss: loss.Squared{}, Domain: dom, Eps: 1, Delta: 1e-5, W0: w0, Rng: randx.New(8)})
		}, true, true},
		"DPGD": {func(src data.Source, _ polytope.L1Ball, _ []float64) ([]float64, error) {
			return DPGDSource(src, DPGDOptions{Loss: loss.Squared{}, Eps: 1, Delta: 1e-5, Rng: randx.New(9)})
		}, false, false},
		"DPSGD": {func(src data.Source, _ polytope.L1Ball, _ []float64) ([]float64, error) {
			return DPSGDSource(src, DPSGDOptions{Loss: loss.Squared{}, Eps: 1, Delta: 1e-5, T: 4, Rng: randx.New(10)})
		}, false, false},
		"RobustGaussianGD": {func(src data.Source, _ polytope.L1Ball, _ []float64) ([]float64, error) {
			return RobustGaussianGDSource(src, RobustGaussianGDOptions{Loss: loss.Squared{}, Eps: 1, Delta: 1e-5, Rng: randx.New(11)})
		}, false, false},
	}

	for name, e := range entries {
		cases := map[string]func() ([]float64, error){
			"empty": func() ([]float64, error) { return e.run(empty, good, nil) },
		}
		if e.dom {
			cases["domain-dim"] = func() ([]float64, error) { return e.run(full, polytope.NewL1Ball(d+1, 1), nil) }
		}
		if e.w0 {
			cases["w0-length"] = func() ([]float64, error) { return e.run(full, good, make([]float64, d+1)) }
		}
		for cname, call := range cases {
			t.Run(name+"/"+cname, func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				if w, err := call(); err == nil {
					t.Fatalf("accepted, returned %v", w)
				}
			})
		}
	}
}
