package core

import (
	"runtime"
	"testing"

	"htdp/internal/data"
	"htdp/internal/loss"
	"htdp/internal/polytope"
	"htdp/internal/randx"
)

// The determinism suite: every core algorithm must return bit-identical
// output for Parallelism ∈ {1, 2, GOMAXPROCS} and across repeated runs.
// This is the engine's contract — the shard structure is a function of
// the problem size only, per-shard partials merge in shard order, and
// randomized scans split one deterministic RNG stream per shard — so a
// single differing bit here means a scheduling dependence leaked in.

func determinismDataset(seed int64, n, d int) *data.Dataset {
	r := randx.New(seed)
	return data.Linear(r, data.LinearOpt{
		N: n, D: d,
		Feature: randx.LogNormal{Mu: 0, Sigma: 1},
		Noise:   randx.StudentT{Nu: 3},
	})
}

func TestParallelismDeterminism(t *testing.T) {
	ds := determinismDataset(11, 600, 40)
	cls := func(seed int64) *data.Dataset {
		r := randx.New(seed)
		return data.LogisticModel(r, data.LogisticOpt{
			N: 500, D: 30,
			Feature: randx.LogNormal{Mu: 0, Sigma: 0.8},
		})
	}
	dsCls := cls(13)
	ball := polytope.NewL1Ball(40, 1)

	algos := map[string]func(p int) []float64{
		"FrankWolfe": func(p int) []float64 {
			w, err := FrankWolfeSource(data.NewMemSource(ds), FWOptions{
				Loss: loss.Squared{}, Domain: ball, Eps: 1, T: 5,
				Parallelism: p, Rng: randx.New(1),
			})
			if err != nil {
				t.Fatal(err)
			}
			return w
		},
		"Lasso": func(p int) []float64 {
			w, err := LassoSource(data.NewMemSource(ds), LassoOptions{
				Eps: 1, Delta: 1e-5, T: 5, Parallelism: p, Rng: randx.New(2),
			})
			if err != nil {
				t.Fatal(err)
			}
			return w
		},
		"SparseLinReg": func(p int) []float64 {
			w, err := SparseLinRegSource(data.NewMemSource(ds), SparseLinRegOptions{
				Eps: 1, Delta: 1e-5, SStar: 5, T: 4, Parallelism: p, Rng: randx.New(3),
			})
			if err != nil {
				t.Fatal(err)
			}
			return w
		},
		"SparseOpt": func(p int) []float64 {
			w, err := SparseOptSource(data.NewMemSource(ds), SparseOptOptions{
				Loss: loss.Squared{}, Eps: 1, Delta: 1e-5, SStar: 5, T: 4,
				Parallelism: p, Rng: randx.New(4),
			})
			if err != nil {
				t.Fatal(err)
			}
			return w
		},
		"SparseMean": func(p int) []float64 {
			w, err := SparseMeanSource(data.NewMemSource(ds), SparseMeanOptions{
				Eps: 1, Delta: 1e-5, SStar: 5, Parallelism: p, Rng: randx.New(5),
			})
			if err != nil {
				t.Fatal(err)
			}
			return w
		},
		"FullDataFW": func(p int) []float64 {
			w, err := FullDataFWSource(data.NewMemSource(ds), FullDataFWOptions{
				Loss: loss.Squared{}, Domain: ball, Eps: 1, Delta: 1e-5, T: 4,
				Parallelism: p, Rng: randx.New(6),
			})
			if err != nil {
				t.Fatal(err)
			}
			return w
		},
		"RobustRegression": func(p int) []float64 {
			w, err := RobustRegressionSource(data.NewMemSource(ds), RobustRegressionOptions{
				Eps: 1, T: 4, Parallelism: p, Rng: randx.New(7),
			})
			if err != nil {
				t.Fatal(err)
			}
			return w
		},
		"TalwarDPFW": func(p int) []float64 {
			w, err := TalwarDPFWSource(data.NewMemSource(ds), TalwarFWOptions{
				Loss: loss.Squared{}, Domain: ball, Eps: 1, Delta: 1e-5, T: 4,
				Parallelism: p, Rng: randx.New(8),
			})
			if err != nil {
				t.Fatal(err)
			}
			return w
		},
		"DPGD": func(p int) []float64 {
			w, err := DPGDSource(data.NewMemSource(dsCls), DPGDOptions{
				Loss: loss.Logistic{}, Eps: 1, Delta: 1e-5, T: 4,
				Parallelism: p, Rng: randx.New(9),
			})
			if err != nil {
				t.Fatal(err)
			}
			return w
		},
		"DPSGD": func(p int) []float64 {
			w, err := DPSGDSource(data.NewMemSource(dsCls), DPSGDOptions{
				Loss: loss.Logistic{}, Eps: 1, Delta: 1e-5, T: 6, Batch: 50,
				Parallelism: p, Rng: randx.New(10),
			})
			if err != nil {
				t.Fatal(err)
			}
			return w
		},
		"RobustGaussianGD": func(p int) []float64 {
			w, err := RobustGaussianGDSource(data.NewMemSource(dsCls), RobustGaussianGDOptions{
				Loss: loss.Logistic{}, Eps: 1, Delta: 1e-5, T: 4,
				Parallelism: p, Rng: randx.New(11),
			})
			if err != nil {
				t.Fatal(err)
			}
			return w
		},
		"Peeling": func(p int) []float64 {
			v := randx.New(12).NormalVec(make([]float64, 300), 1)
			return PeelingP(randx.New(13), v, 20, 1, 1e-5, 0.05, p)
		},
	}

	levels := []int{1, 2, runtime.GOMAXPROCS(0)}
	for name, run := range algos {
		t.Run(name, func(t *testing.T) {
			want := run(1)
			for _, p := range levels {
				for rep := 0; rep < 2; rep++ {
					got := run(p)
					if len(got) != len(want) {
						t.Fatalf("Parallelism=%d: length %d, want %d", p, len(got), len(want))
					}
					for j := range want {
						if got[j] != want[j] {
							t.Fatalf("Parallelism=%d rep=%d: coord %d = %v, want bit-identical %v",
								p, rep, j, got[j], want[j])
						}
					}
				}
			}
		})
	}
}

// TestNonprivateDeterminism covers the always-parallel baselines, whose
// internal fan-out must still be run-to-run reproducible.
func TestNonprivateDeterminism(t *testing.T) {
	ds := determinismDataset(17, 400, 25)
	runs := map[string]func() []float64{
		"NonprivateFW": func() []float64 {
			return NonprivateFW(ds, loss.Squared{}, polytope.NewL1Ball(25, 1), 5, nil)
		},
		"NonprivateIHT": func() []float64 {
			return NonprivateIHT(ds, 5, 5, 0.5)
		},
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			want := run()
			for rep := 0; rep < 3; rep++ {
				got := run()
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("rep %d: coord %d = %v, want %v", rep, j, got[j], want[j])
					}
				}
			}
		})
	}
}

// TestCoreStressRace drives the sharded hot paths with small dimensions
// and an oversubscribed worker count to shake out shard-boundary and
// merge races under go test -race.
func TestCoreStressRace(t *testing.T) {
	ds := determinismDataset(19, 150, 7)
	many := 8 * runtime.GOMAXPROCS(0)
	for rep := 0; rep < 5; rep++ {
		if _, err := FrankWolfeSource(data.NewMemSource(ds), FWOptions{
			Loss: loss.Squared{}, Domain: polytope.NewL1Ball(7, 1), Eps: 1, T: 3,
			Parallelism: many, Rng: randx.New(int64(rep)),
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := SparseOptSource(data.NewMemSource(ds), SparseOptOptions{
			Loss: loss.Squared{}, Eps: 1, Delta: 1e-5, SStar: 2, T: 3,
			Parallelism: many, Rng: randx.New(int64(rep)),
		}); err != nil {
			t.Fatal(err)
		}
		PeelingP(randx.New(int64(rep)), randx.New(99).NormalVec(make([]float64, 65), 1), 10, 1, 1e-5, 0.1, many)
	}
}
