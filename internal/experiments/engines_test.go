package experiments

import (
	"context"
	"errors"
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
