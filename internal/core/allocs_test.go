package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"htdp/internal/data"
	"htdp/internal/loss"
	"htdp/internal/polytope"
	"htdp/internal/randx"
)

// The steady-state allocation contract: after the warm-up iteration,
// every further iteration of the core algorithms performs zero heap
// allocations — the chunk view, the fused gradient, the vertex
// selection, and the Peeling release all run out of per-run
// workspaces. Measured with the sequential engine (Parallelism=1); the
// parallel engine adds only its per-goroutine spawns.
//
// The measurement reads the runtime's cumulative Mallocs counter from
// the Trace hook, so each iteration's allocation count is exact; GC is
// paused so no background allocation leaks into the window. n is a
// multiple of T, so every chunk has identical size and the workspaces
// reach their final capacity on the first iteration.

const allocsT = 10 // iteration count; divides the dataset size evenly

// iterAllocs runs one algorithm with a malloc-counting Trace and
// returns the per-iteration allocation counts.
func iterAllocs(t *testing.T, run func(tr Trace)) []uint64 {
	t.Helper()
	counts := make([]uint64, 0, allocsT)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var last uint64
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	last = ms.Mallocs
	run(func(_ int, _ []float64) {
		runtime.ReadMemStats(&ms)
		counts = append(counts, ms.Mallocs-last)
		last = ms.Mallocs
	})
	if len(counts) != allocsT {
		t.Fatalf("trace fired %d times, want %d", len(counts), allocsT)
	}
	return counts
}

// requireSteadyStateZero asserts that every iteration after the first
// allocated nothing. (Iteration 1 is the warm-up that grows the
// workspaces; the ReadMemStats calls themselves allocate nothing.)
func requireSteadyStateZero(t *testing.T, name string, counts []uint64) {
	t.Helper()
	for i := 1; i < len(counts); i++ {
		if counts[i] != 0 {
			t.Fatalf("%s iteration %d allocated %d objects, want 0 (per-iteration counts: %v)",
				name, i+1, counts[i], counts)
		}
	}
}

func allocsDataset() *data.Dataset {
	r := randx.New(17)
	return data.Linear(r, data.LinearOpt{
		N: 600, D: 50,
		Feature: randx.LogNormal{Mu: 0, Sigma: 1},
		Noise:   randx.Normal{Mu: 0, Sigma: 0.3},
	})
}

func TestFrankWolfeIterationZeroAllocs(t *testing.T) {
	ds := allocsDataset()
	ball := polytope.NewL1Ball(50, 1)
	counts := iterAllocs(t, func(tr Trace) {
		if _, err := FrankWolfeSource(data.NewMemSource(ds), FWOptions{
			Loss: loss.Squared{}, Domain: ball, Eps: 1, T: allocsT,
			Parallelism: 1, Rng: randx.New(1), Trace: tr,
		}); err != nil {
			t.Fatal(err)
		}
	})
	requireSteadyStateZero(t, "FrankWolfe", counts)
}

func TestSparseOptIterationZeroAllocs(t *testing.T) {
	ds := allocsDataset()
	counts := iterAllocs(t, func(tr Trace) {
		if _, err := SparseOptSource(data.NewMemSource(ds), SparseOptOptions{
			Loss: loss.Squared{}, Eps: 1, Delta: 1e-5, SStar: 5, T: allocsT,
			Parallelism: 1, Rng: randx.New(2), Trace: tr,
		}); err != nil {
			t.Fatal(err)
		}
	})
	requireSteadyStateZero(t, "SparseOpt", counts)
}

func TestSparseLinRegIterationZeroAllocs(t *testing.T) {
	ds := allocsDataset()
	counts := iterAllocs(t, func(tr Trace) {
		if _, err := SparseLinRegSource(data.NewMemSource(ds), SparseLinRegOptions{
			Eps: 1, Delta: 1e-5, SStar: 5, T: allocsT,
			Parallelism: 1, Rng: randx.New(3), Trace: tr,
		}); err != nil {
			t.Fatal(err)
		}
	})
	requireSteadyStateZero(t, "SparseLinReg", counts)
}

func TestLassoIterationZeroAllocs(t *testing.T) {
	ds := allocsDataset()
	counts := iterAllocs(t, func(tr Trace) {
		if _, err := LassoSource(data.NewMemSource(ds), LassoOptions{
			Eps: 1, Delta: 1e-5, T: allocsT, Parallelism: 1, Rng: randx.New(4), Trace: tr,
		}); err != nil {
			t.Fatal(err)
		}
	})
	requireSteadyStateZero(t, "Lasso", counts)
}
