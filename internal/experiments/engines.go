package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"

	"htdp/internal/parallel"
	"htdp/internal/randx"
)

// This file is the sweep engine: the scheduling of a series' (point,
// rep) trials onto worker goroutines, and nothing else. The worker unit
// is one rep: its trial walks the full x-grid point by point. Data
// residency is not the engine's business: a trial opens its source per
// point, and a seed-invariant source served by a data.SourcePool is
// decoded once per process, not once per trial.
//
// A worker collects garbage at the boundary after a trial that
// allocated collectAfter bytes or more: the finished trial's dataset
// (n·d·8 bytes, 43 MB for fig6 at n = 13 500, d = 400) is dead once the
// trial returns, and Go's default pacing would let it stay allocated
// beside the next trial's until the heap doubles. Collecting bounds
// the heap to about one trial's data per worker (DESIGN.md, "Batched
// sweeps").
//
// Every trial's RNG derives from pointSeed — a pure function of
// (series, point, rep), never of the schedule — so results are
// bit-identical at any worker count; testdata/sweep_golden.json holds
// the engine to that at workers 1 and 4. Errors (and recovered panics)
// travel out of the worker through per-rep slots, picked
// deterministically in index order after the wait; a failure flips an
// atomic flag so in-flight reps stop early, which can change which
// error is reported but never the result bytes — a failed sweep returns
// no results at all.
//
// The same early-stop flag doubles as the cancellation seam: a
// cancelled Config.Ctx flips it at the next per-point check, every
// worker stops within one grid point, and the engine reports the
// context's cause — checked before the per-rep error slots, so
// cancellation wins deterministically over whatever trial errors raced
// with it. A cancelled sweep, like a failed one, returns no results.

// trialFn runs one trial of one grid point and returns the measured
// error. The RNG is private to the trial. Trials must not share state
// unless it is read-only, and must return failures — the engine
// additionally converts panics to errors as a barrier of last resort.
type trialFn func(r *randx.RNG, x float64) (float64, error)

// pointSeed derives the deterministic RNG stream of one (series, point,
// rep) trial from the base seed. The derivation is what keeps results
// independent of scheduling and worker count; it is also the one the
// committed golden was recorded with, so it must never change.
func pointSeed(seed, seedOff int64, xi, rep int) int64 {
	return seed + seedOff*1_000_003 + int64(xi)*10_007 + int64(rep)
}

// collectAfter is the allocation, in bytes, from which a trial's
// garbage is collected before the worker's next trial: the runtime's
// minimum heap goal at GOGC=100. A trial under it leaves less garbage
// than the collector holds back on an empty heap. Small trials are
// common and often short, and a collection stops every worker, so
// collecting after each of them made the smallest figure benchmarks
// up to 58% slower.
const collectAfter = 4 << 20

// safeTrial evaluates one trial with a recover barrier on the calling
// goroutine — the fix for the crash class where a trial panic inside a
// sweep worker could kill the whole process, because every recover
// (the panel runner's, the serving scheduler's) sat on a different
// goroutine.
func safeTrial(f trialFn, r *randx.RNG, x float64) (y float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("trial panicked: %v", p)
		}
	}()
	return f(r, x)
}

// sweepWorkers clamps the trial-level worker count to the number of
// schedulable units.
func sweepWorkers(parallelism, units int) int {
	workers := parallel.Workers(parallelism)
	if workers > units {
		workers = units
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

func newResults(points, reps int) [][]float64 {
	out := make([][]float64, points)
	for i := range out {
		out[i] = make([]float64, reps)
	}
	return out
}

// firstError returns the lowest-indexed recorded failure — a
// deterministic choice among whatever the racing workers recorded.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sweepBatched schedules one rep per worker unit: the rep's trial walks
// the whole x-grid sequentially, each point on its own pointSeed
// stream — rep-level parallelism with per-point semantics.
func sweepBatched(cfg Config, xs []float64, seedOff int64, f trialFn) ([][]float64, error) {
	ctx := cfg.context()
	results := newResults(len(xs), cfg.Reps)
	errs := make([]error, cfg.Reps)
	var failed atomic.Bool
	reps := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < sweepWorkers(cfg.Parallelism, cfg.Reps); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
			for rep := range reps {
				for xi := range xs {
					if failed.Load() {
						break // a failed sweep returns no results; stop early
					}
					if ctx.Err() != nil {
						failed.Store(true) // cancelled: stop every worker at its next check
						break
					}
					metrics.Read(allocs)
					before := allocs[0].Value.Uint64()
					y, err := safeTrial(f, randx.New(pointSeed(cfg.Seed, seedOff, xi, rep)), xs[xi])
					if metrics.Read(allocs); allocs[0].Value.Uint64()-before >= collectAfter {
						runtime.GC() // free this trial's data before the next trial draws its own
					}
					if err != nil {
						errs[rep] = fmt.Errorf("x=%v rep %d: %w", xs[xi], rep, err)
						failed.Store(true)
						break
					}
					results[xi][rep] = y
				}
			}
		}()
	}
	for rep := 0; rep < cfg.Reps; rep++ {
		reps <- rep
	}
	close(reps)
	wg.Wait()
	if ctx.Err() != nil {
		return nil, context.Cause(ctx) // cancellation wins over racing trial errors
	}
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return results, nil
}
