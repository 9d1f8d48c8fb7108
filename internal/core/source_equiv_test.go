package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"htdp/internal/data"
	"htdp/internal/loss"
	"htdp/internal/polytope"
	"htdp/internal/randx"
)

// TestSourceEquivalence is the streaming layer's contract: every
// algorithm must produce bit-identical output whether its chunks come
// from memory (MemSource), from disk (CSVSource over a WriteCSV round
// trip), or from on-demand generation (GenSource), at every worker
// count. A single differing bit means a backend served different rows
// or a summation order leaked a dependence on the backend or the
// scheduling.

// equivSources builds the three backends over the same 600×40 rows.
// The GenSource is the ground truth; the other two are derived from
// its materialization.
func equivSources(t *testing.T) (gen *data.GenSource, mem, csv data.Source) {
	t.Helper()
	gen = data.LinearSource(41, data.LinearOpt{
		N: 600, D: 40,
		Feature: randx.LogNormal{Mu: 0, Sigma: 1},
		Noise:   randx.StudentT{Nu: 3},
	})
	full := gen.Materialize()
	mem = data.NewMemSource(full)

	var buf bytes.Buffer
	if err := data.WriteCSV(&buf, full); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "equiv.csv")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := data.OpenCSV(path, "equiv", -1, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	return gen, mem, src
}

func TestSourceEquivalence(t *testing.T) {
	gen, mem, csv := equivSources(t)
	ball := polytope.NewL1Ball(40, 1)

	algos := map[string]func(src data.Source, p int) ([]float64, error){
		"FrankWolfe": func(src data.Source, p int) ([]float64, error) {
			return FrankWolfeSource(src, FWOptions{
				Loss: loss.Squared{}, Domain: ball, Eps: 1, T: 5,
				Parallelism: p, Rng: randx.New(1),
			})
		},
		"Lasso": func(src data.Source, p int) ([]float64, error) {
			return LassoSource(src, LassoOptions{
				Eps: 1, Delta: 1e-5, T: 5, Parallelism: p, Rng: randx.New(2),
			})
		},
		"SparseLinReg": func(src data.Source, p int) ([]float64, error) {
			return SparseLinRegSource(src, SparseLinRegOptions{
				Eps: 1, Delta: 1e-5, SStar: 5, T: 4, Parallelism: p, Rng: randx.New(3),
			})
		},
		"SparseOpt": func(src data.Source, p int) ([]float64, error) {
			return SparseOptSource(src, SparseOptOptions{
				Loss: loss.Squared{}, Eps: 1, Delta: 1e-5, SStar: 5, T: 4,
				Parallelism: p, Rng: randx.New(4),
			})
		},
		"SparseMean": func(src data.Source, p int) ([]float64, error) {
			return SparseMeanSource(src, SparseMeanOptions{
				Eps: 1, Delta: 1e-5, SStar: 5, Parallelism: p, Rng: randx.New(5),
			})
		},
		"FullDataFW": func(src data.Source, p int) ([]float64, error) {
			return FullDataFWSource(src, FullDataFWOptions{
				Loss: loss.Squared{}, Domain: ball, Eps: 1, Delta: 1e-5, T: 4,
				Parallelism: p, Rng: randx.New(6),
			})
		},
		"RobustRegression": func(src data.Source, p int) ([]float64, error) {
			return RobustRegressionSource(src, RobustRegressionOptions{
				Eps: 1, T: 4, Parallelism: p, Rng: randx.New(7),
			})
		},
		"TalwarDPFW": func(src data.Source, p int) ([]float64, error) {
			return TalwarDPFWSource(src, TalwarFWOptions{
				Loss: loss.Squared{}, Domain: ball, Eps: 1, Delta: 1e-5, T: 4,
				Parallelism: p, Rng: randx.New(8),
			})
		},
		"DPGD": func(src data.Source, p int) ([]float64, error) {
			return DPGDSource(src, DPGDOptions{
				Loss: loss.Squared{}, Eps: 1, Delta: 1e-5, T: 4,
				Parallelism: p, Rng: randx.New(9),
			})
		},
		"RobustGaussianGD": func(src data.Source, p int) ([]float64, error) {
			return RobustGaussianGDSource(src, RobustGaussianGDOptions{
				Loss: loss.Squared{}, Eps: 1, Delta: 1e-5, T: 4,
				Parallelism: p, Rng: randx.New(10),
			})
		},
	}

	backends := map[string]data.Source{"mem": mem, "csv": csv, "gen": gen}
	workers := []int{1, 4}
	for name, run := range algos {
		t.Run(name, func(t *testing.T) {
			want, err := run(mem, 1)
			if err != nil {
				t.Fatal(err)
			}
			for bname, src := range backends {
				for _, p := range workers {
					got, err := run(src, p)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", bname, p, err)
					}
					if len(got) != len(want) {
						t.Fatalf("%s workers=%d: length %d, want %d", bname, p, len(got), len(want))
					}
					for j := range want {
						if got[j] != want[j] {
							t.Fatalf("%s workers=%d: coord %d = %v, want bit-identical %v",
								bname, p, j, got[j], want[j])
						}
					}
				}
			}
		})
	}
}

// TestSourceEquivalenceRisk pins the streaming risk evaluators to the
// same contract: identical values from every backend and worker count.
func TestSourceEquivalenceRisk(t *testing.T) {
	gen, mem, csv := equivSources(t)
	w := make([]float64, 40)
	for j := range w {
		w[j] = 0.01 * float64(j%7)
	}
	want, err := loss.EmpiricalSource(loss.Squared{}, w, mem, 1)
	if err != nil {
		t.Fatal(err)
	}
	for bname, src := range map[string]data.Source{"mem": mem, "csv": csv, "gen": gen} {
		for _, p := range []int{1, 4} {
			got, err := loss.EmpiricalSource(loss.Squared{}, w, src, p)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s workers=%d: risk %v, want bit-identical %v", bname, p, got, want)
			}
		}
	}
}
