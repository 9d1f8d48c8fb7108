package experiments

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"htdp/internal/randx"
)

// TestSweepCancellation: a context cancelled mid-sweep stops the engine
// within one grid point per worker, the error is the context's cause
// (not whatever trial errors raced with it), and a cancelled sweep —
// like a failed one — returns no results.
func TestSweepCancellation(t *testing.T) {
	cause := errors.New("cancelled by test")
	ctx, cancel := context.WithCancelCause(context.Background())
	cfg, err := Config{Reps: 8, Scale: 0.1, Seed: 1, Parallelism: 2, Ctx: ctx}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	var trials atomic.Int64
	f := func(_ *randx.RNG, x float64) (float64, error) {
		if trials.Add(1) == 2 {
			cancel(cause) // cancel from inside the sweep, mid-flight
		}
		return x, nil
	}
	_, err = sweep(cfg, "s", []float64{1, 2, 3, 4}, 0, f)
	if err == nil {
		t.Fatal("cancelled sweep returned results")
	}
	if !errors.Is(err, cause) {
		t.Errorf("error chain lost the cancellation cause: %v", err)
	}
	ran := trials.Load()
	if max := int64(cfg.Reps * 4); ran >= max {
		t.Errorf("all %d trials ran despite cancellation", max)
	}
}

// TestSweepPreCancelled: an already-cancelled context stops the sweep
// at the series entry check — zero trials run, and a multi-panel Run
// body stops between panels without any per-experiment code.
func TestSweepPreCancelled(t *testing.T) {
	cause := errors.New("already cancelled")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	cfg, err := Config{Reps: 2, Scale: 0.1, Seed: 1, Ctx: ctx}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	_, err = sweep(cfg, "s", []float64{1}, 0, func(_ *randx.RNG, x float64) (float64, error) {
		ran = true
		return x, nil
	})
	if err == nil || !errors.Is(err, cause) {
		t.Fatalf("pre-cancelled sweep error = %v, want the cause", err)
	}
	if ran {
		t.Fatal("pre-cancelled sweep still ran a trial")
	}
}

// TestRunSweepCancelled: cancellation through the public entry point —
// RunSweep returns the cause and no panels, and an uncancelled context
// changes nothing (the sweep is bit-identical to a nil-context run,
// held elsewhere by the goldens).
func TestRunSweepCancelled(t *testing.T) {
	cause := errors.New("job cancelled by DELETE")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	panels, err := RunSweep(ctx, SweepRequest{Experiment: "abl-shrink-k", Reps: 1, Scale: 0.01}, nil)
	if err == nil || !errors.Is(err, cause) {
		t.Fatalf("cancelled RunSweep error = %v, want the cause", err)
	}
	if panels != nil {
		t.Fatal("cancelled RunSweep returned panels")
	}
}
