package experiments

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"htdp/internal/data"
	"htdp/internal/randx"
)

// TestSweepTrialError: a failing trial surfaces as an error naming the
// series, grid point, and rep — and a failed sweep returns no results.
func TestSweepTrialError(t *testing.T) {
	cfg, err := Config{Reps: 3, Scale: 0.1, Seed: 1, Parallelism: 2}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("no such file")
	f := func(_ *randx.RNG, x float64) (float64, error) {
		if x == 2 {
			return 0, boom
		}
		return x, nil
	}
	_, err = sweep(cfg, "s", []float64{1, 2, 3}, 0, f)
	if err == nil {
		t.Fatal("failing trial produced no error")
	}
	if !errors.Is(err, boom) {
		t.Errorf("error chain lost the cause: %v", err)
	}
	for _, want := range []string{"series s", "x=2", "rep"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestSweepTrialPanic: a panicking trial is contained on the worker
// goroutine and converted to an error — the crash class that used to
// kill the whole serving process.
func TestSweepTrialPanic(t *testing.T) {
	cfg, err := Config{Reps: 2, Scale: 0.1, Seed: 1, Parallelism: 4}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	f := func(_ *randx.RNG, x float64) (float64, error) {
		if x > 1 {
			panic("trial gone wrong")
		}
		return x, nil
	}
	_, err = sweep(cfg, "s", []float64{1, 2}, 0, f)
	if err == nil {
		t.Fatal("panicking trial produced no error")
	}
	if !strings.Contains(err.Error(), "trial panicked: trial gone wrong") {
		t.Errorf("error %q does not carry the panic value", err)
	}
}

// TestRunSweepTrialError: the same failure through the public entry
// point — RunSweep returns an error naming the experiment, no panels.
func TestRunSweepTrialError(t *testing.T) {
	q := SweepRequest{Experiment: "streaming", Reps: 1, Scale: 0.01, Seed: 3}
	open := func(int64) (data.Source, error) { return nil, errors.New("dataset vanished") }
	panels, err := RunSweep(context.Background(), q, open)
	if err == nil {
		t.Fatal("RunSweep with a failing source returned no error")
	}
	if panels != nil {
		t.Fatalf("failed sweep returned %d panels", len(panels))
	}
	for _, want := range []string{"streaming", "dataset vanished"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestSweepReclaimsTrialData: the engine collects at every trial
// boundary, so a finished trial's data is freed before the worker's
// next trial allocates its own. Each trial reads the heap on entry,
// then allocates and fills 32 MiB. Sequentially, every trial after the
// first must start near the baseline; with two workers, a trial may
// find only the other worker's slice still allocated.
func TestSweepReclaimsTrialData(t *testing.T) {
	const trialFloats = 4 << 20 // 32 MiB of float64s
	for _, tc := range []struct {
		name              string
		reps, parallelism int
		first             int    // grid index of the first checked trial
		limit             uint64 // heap bytes a checked trial may start with
	}{
		{"sequential", 1, 1, 1, 16 << 20},
		{"two-workers", 2, 2, 0, 48 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := Config{Reps: tc.reps, Scale: 0.1, Seed: 1, Parallelism: tc.parallelism}.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			f := func(_ *randx.RNG, x float64) (float64, error) {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				buf := make([]float64, trialFloats)
				for i := range buf {
					buf[i] = x
				}
				if buf[len(buf)-1] != x {
					return 0, errors.New("fill lost")
				}
				return float64(ms.HeapAlloc), nil
			}
			xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
			runtime.GC()
			results, err := sweepBatched(cfg, xs, 0, f)
			if err != nil {
				t.Fatal(err)
			}
			for xi := tc.first; xi < len(xs); xi++ {
				for rep, heap := range results[xi] {
					if heap >= float64(tc.limit) {
						t.Errorf("trial x=%v rep %d started with %.1f MiB of heap, want < %d MiB (the previous trial's data was not freed)",
							xs[xi], rep, heap/(1<<20), tc.limit>>20)
					}
				}
			}
		})
	}
}
