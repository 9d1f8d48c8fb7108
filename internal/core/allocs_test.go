package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
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
// the Trace hook; GC is paused so no collection runs inside the window.
// The counter is process-wide, so an object another goroutine of the
// test binary allocates (under -race, 6–10 of them have landed in one
// iteration) is charged to whichever iteration is running. A run is
// deterministic in its seed, so an allocation the algorithm makes
// recurs at the same iteration: an iteration that allocated is measured
// again on a second run of the same seeded call, and it fails only if
// it allocates there too. n is a multiple of T, so every chunk has
// identical size and the workspaces reach their final capacity on the
// first iteration.

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

// steadyStateAllocation returns a description of the first iteration
// after the first that allocated on two runs of run, or "" if there is
// none. (Iteration 1 is the warm-up that grows the workspaces; the
// ReadMemStats calls themselves allocate nothing.) The second run is
// made only if the first allocated past its warm-up.
func steadyStateAllocation(t *testing.T, run func(tr Trace)) string {
	t.Helper()
	counts := iterAllocs(t, run)
	var again []uint64
	for i := 1; i < len(counts); i++ {
		if counts[i] == 0 {
			continue
		}
		if again == nil {
			again = iterAllocs(t, run)
		}
		if again[i] != 0 {
			return fmt.Sprintf("iteration %d allocated %d objects, and %d on a second run; want 0 (per-iteration counts: %v, then %v)",
				i+1, counts[i], again[i], counts, again)
		}
	}
	return ""
}

// requireSteadyStateZero asserts that every iteration after the first
// allocates nothing.
func requireSteadyStateZero(t *testing.T, name string, run func(tr Trace)) {
	t.Helper()
	if msg := steadyStateAllocation(t, run); msg != "" {
		t.Fatalf("%s %s", name, msg)
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
	requireSteadyStateZero(t, "FrankWolfe", func(tr Trace) {
		if _, err := FrankWolfeSource(data.NewMemSource(ds), FWOptions{
			Loss: loss.Squared{}, Domain: ball, Eps: 1, T: allocsT,
			Parallelism: 1, Rng: randx.New(1), Trace: tr,
		}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSparseOptIterationZeroAllocs(t *testing.T) {
	ds := allocsDataset()
	requireSteadyStateZero(t, "SparseOpt", func(tr Trace) {
		if _, err := SparseOptSource(data.NewMemSource(ds), SparseOptOptions{
			Loss: loss.Squared{}, Eps: 1, Delta: 1e-5, SStar: 5, T: allocsT,
			Parallelism: 1, Rng: randx.New(2), Trace: tr,
		}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSparseLinRegIterationZeroAllocs(t *testing.T) {
	ds := allocsDataset()
	requireSteadyStateZero(t, "SparseLinReg", func(tr Trace) {
		if _, err := SparseLinRegSource(data.NewMemSource(ds), SparseLinRegOptions{
			Eps: 1, Delta: 1e-5, SStar: 5, T: allocsT,
			Parallelism: 1, Rng: randx.New(3), Trace: tr,
		}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestLassoIterationZeroAllocs(t *testing.T) {
	ds := allocsDataset()
	requireSteadyStateZero(t, "Lasso", func(tr Trace) {
		if _, err := LassoSource(data.NewMemSource(ds), LassoOptions{
			Eps: 1, Delta: 1e-5, T: allocsT, Parallelism: 1, Rng: randx.New(4), Trace: tr,
		}); err != nil {
			t.Fatal(err)
		}
	})
}

// allocSink keeps the controls' planted objects on the heap.
var allocSink []byte

// TestSteadyStateZeroControls: the check tells a steady allocation from
// a stray object. A Trace that allocates at iteration 4 of every run
// fails it; one that allocates there on the first run only, as another
// goroutine's object would land, passes.
func TestSteadyStateZeroControls(t *testing.T) {
	ds := allocsDataset()
	lasso := func(plant func() bool) func(tr Trace) {
		return func(tr Trace) {
			if _, err := LassoSource(data.NewMemSource(ds), LassoOptions{
				Eps: 1, Delta: 1e-5, T: allocsT, Parallelism: 1, Rng: randx.New(4),
				Trace: func(it int, w []float64) {
					if it == 4 && plant() {
						allocSink = make([]byte, 64)
					}
					tr(it, w)
				},
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	steady := steadyStateAllocation(t, lasso(func() bool { return true }))
	if !strings.HasPrefix(steady, "iteration 4 allocated 1 objects, and 1 on a second run") {
		t.Errorf("an allocation at iteration 4 of every run: got %q, want a failure at iteration 4", steady)
	}
	first := true
	stray := steadyStateAllocation(t, lasso(func() bool {
		planted := first
		first = false
		return planted
	}))
	if stray != "" {
		t.Errorf("an allocation at iteration 4 of the first run only: got %q, want a pass", stray)
	}
}
