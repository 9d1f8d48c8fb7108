// Package experiments encodes every figure of the paper's evaluation
// (§6, Figures 1–11) plus the Theorem-9 lower-bound check and a set of
// ablations as reproducible parameter sweeps. Each experiment returns
// printable panels — the same series the paper plots — and the cmd/htdp
// CLI, the serving layer's POST /v1/sweep, and the repository benchmarks
// are thin wrappers over this registry. EXPERIMENTS.md documents every
// entry: what each panel shows, the paper section it reproduces, and
// its knobs.
//
// Sample sizes scale with Config.Scale so the full paper protocol
// (Scale=1, Reps=20) and a quick laptop run (the defaults) share one
// code path.
//
// Failures propagate as errors, never as panics: a trial returns
// (value, error), the sweep engine carries the first failure out
// through Spec.Run, and a recover barrier inside every trial converts
// residual panics into errors on the same goroutine (see DESIGN.md,
// "Batched sweeps") — which is what makes the serving layer's
// "a bad request cannot take a worker down" contract actually hold.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"htdp/internal/data"
	"htdp/internal/vecmath"
)

// Config controls the fidelity/cost trade-off of a run.
type Config struct {
	// Reps is the number of independent trials averaged per point
	// (paper protocol: ≥20). 0 → 5.
	Reps int
	// Scale multiplies every sample size relative to the paper's
	// (0 < Scale ≤ 1). 0 → 0.1.
	Scale float64
	// Seed is the base seed; every (panel, series, point, rep) derives a
	// distinct deterministic stream from it. 0 → 1.
	Seed int64
	// Parallelism is the trial-level worker count of every sweep
	// (0 → GOMAXPROCS, 1 → sequential). Trials are independent and each
	// runs on its own deterministic stream, so the setting changes
	// wall-clock only, never results. Algorithms inside a trial use
	// their own Parallelism knob (default: all cores).
	Parallelism int
	// Source, when non-nil, supplies the source-streaming experiments
	// ("streaming", "dpsgd") with a data source in place of their
	// default on-demand generator; cmd/htdp's -stream flag and the
	// serving layer's pooled datasets wire a data.SourcePool here. The
	// factory is called once per (point, rep) trial with a trial-derived
	// seed, and the returned source is closed before the trial ends; a
	// pooled factory hands out views over rows it decoded once.
	// Experiments that materialize data in memory ignore it.
	Source func(seed int64) (data.Source, error)
	// Progress, when non-nil, is called after each panel of the sweep
	// completes, from the goroutine running the sweep. It is pure
	// observability: results are bit-identical with or without it.
	// cmd/htdp's -progress flag prints these events; the serving layer
	// threads them into the job's progress field and SSE stream
	// (API.md, "GET /v1/jobs/{id}/events").
	Progress func(Progress)
	// Ctx, when non-nil, carries cooperative cancellation into the
	// sweep: the engines check it between trials (so a running sweep
	// stops within one grid point per worker) and every source a trial
	// opens checks it per chunk read. A cancelled sweep returns the
	// context's cause as its error and no panels — cancellation only
	// ever discards work, it never reorders it, so uncancelled results
	// are bit-identical with or without a context. Nil means never
	// cancelled (context.Background()).
	Ctx context.Context
}

// context returns the sweep's cancellation context, Background when the
// config carries none.
func (c Config) context() context.Context {
	if c.Ctx == nil {
		return context.Background()
	}
	return c.Ctx
}

// Progress describes one completed panel of a running sweep — the
// payload of Config.Progress callbacks, of the serving layer's job
// `progress` field, and of its SSE `progress` events.
type Progress struct {
	// Done is the number of panels completed so far.
	Done int `json:"done"`
	// Total is the number of panels the sweep will produce.
	Total int `json:"total"`
	// Panel names the just-finished panel, e.g. "fig1(b)".
	Panel string `json:"panel"`
}

// panelDone reports a finished panel to the Progress callback, if any.
// Every Spec.Run body calls it once per panel, in panel order.
func (c Config) panelDone(done, total int, p Panel) {
	if c.Progress != nil {
		c.Progress(Progress{Done: done, Total: total, Panel: p.Figure + "(" + p.Name + ")"})
	}
}

// withDefaults resolves zero fields to their defaults and validates the
// rest — an error, not a panic, so a bad config surfaces through
// Spec.Run's error return like any other failure.
func (c Config) withDefaults() (Config, error) {
	if c.Reps == 0 {
		c.Reps = 5
	}
	if c.Scale == 0 {
		c.Scale = 0.1
	}
	if c.Scale < 0 || c.Scale > 1 {
		return c, fmt.Errorf("experiments: Scale %v outside (0,1]", c.Scale)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c, nil
}

// n scales a paper sample size, keeping at least 100 samples.
func (c Config) n(paperN int) int {
	n := int(c.Scale * float64(paperN))
	if n < 100 {
		n = 100
	}
	return n
}

// Series is one line of a panel: y(x) with across-trial standard
// deviations.
type Series struct {
	Name string
	X    []float64
	Mean []float64
	Std  []float64
}

// Panel is one sub-figure (the paper's (a)/(b)/(c) sub-plots).
type Panel struct {
	Figure string // e.g. "fig1"
	Name   string // e.g. "a"
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Spec is a runnable experiment. Run returns the completed panels or
// the first trial failure; it never panics on data or algorithm errors.
type Spec struct {
	ID          string
	Description string
	// UsesSource marks the experiments that consume Config.Source (the
	// source-streaming sweeps). For every other experiment a request
	// carrying a dataset is rejected up front — the data would be
	// silently ignored while fragmenting response caches by dataset
	// name.
	UsesSource bool
	Run        func(cfg Config) ([]Panel, error)
}

// registry is populated by the figure files' init functions.
var registry []Spec

func register(s Spec) { registry = append(registry, s) }

// Registry returns all experiments sorted by ID.
func Registry() []Spec {
	out := append([]Spec(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Spec, error) {
	for _, s := range registry {
		if s.ID == id {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("experiments: unknown experiment %q (see Registry)", id)
}

// SweepRequest is the wire-level description of one registry sweep: the
// body of the serving layer's POST /v1/sweep and the canonical way to
// construct a Config outside the CLI. The zero value of every optional
// field means "use the default"; Canonical resolves them.
type SweepRequest struct {
	// Experiment is a registry ID ("fig1", "abl-shrink-k", "streaming", …).
	Experiment string `json:"experiment"`
	// Reps is the trials averaged per point (default 5; paper 20).
	Reps int `json:"reps,omitempty"`
	// Scale multiplies every sample size relative to the paper's
	// (default 0.1; paper 1).
	Scale float64 `json:"scale,omitempty"`
	// Seed is the base seed (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Dataset optionally names a pooled dataset for the source-streaming
	// experiments; the serving layer resolves it to a Source factory.
	// Only experiments with Spec.UsesSource accept it — for any other
	// experiment a non-empty Dataset is rejected by Canonical, because
	// the data would be ignored while caching identical result bytes
	// under distinct keys.
	Dataset string `json:"dataset,omitempty"`
	// Parallelism is the trial-level worker count (0 = all cores). It
	// trades wall-clock only — results are bit-identical at every
	// setting — so caches must exclude it from keys.
	Parallelism int `json:"parallelism,omitempty"`
	// Async requests a job handle instead of a blocking response; like
	// Parallelism it never changes result bytes.
	Async bool `json:"async,omitempty"`
	// TimeoutMS, when positive, bounds the sweep's execution time in
	// milliseconds; past it the run is cancelled and the serving layer
	// answers 504. Like Parallelism it is a scheduling knob that can
	// never change result bytes — a sweep either completes identically
	// or returns nothing — so Canonical zeroes it out of cache keys.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Canonical validates the request and resolves every defaulted
// result-relevant field to its effective value, zeroing the
// scheduling-only fields (Parallelism, Async, TimeoutMS). Equal requests therefore
// have equal canonical forms — the property response caches key on. It
// mirrors Config.withDefaults but returns errors instead of panicking,
// so a malformed request is a 400, not a crashed worker.
func (q SweepRequest) Canonical() (SweepRequest, error) {
	spec, err := Lookup(q.Experiment)
	if err != nil {
		return q, err
	}
	if q.Dataset != "" && !spec.UsesSource {
		return q, fmt.Errorf("experiments: %s does not stream from a source; it ignores dataset %q (drop the field, or pick a source-streaming experiment such as \"streaming\")", spec.ID, q.Dataset)
	}
	if q.Reps == 0 {
		q.Reps = 5
	}
	if q.Reps < 1 {
		return q, fmt.Errorf("experiments: reps %d below 1", q.Reps)
	}
	if q.Scale == 0 {
		q.Scale = 0.1
	}
	if q.Scale < 0 || q.Scale > 1 {
		return q, fmt.Errorf("experiments: scale %v outside (0,1]", q.Scale)
	}
	if q.Seed == 0 {
		q.Seed = 1
	}
	if q.TimeoutMS < 0 {
		return q, fmt.Errorf("experiments: timeout_ms %d is negative", q.TimeoutMS)
	}
	q.Parallelism, q.Async, q.TimeoutMS = 0, false, 0
	return q, nil
}

// Config converts the request into a sweep Config, attaching the
// optional per-trial source factory (nil for the default generators).
func (q SweepRequest) Config(src func(seed int64) (data.Source, error)) Config {
	return Config{
		Reps: q.Reps, Scale: q.Scale, Seed: q.Seed, Parallelism: q.Parallelism,
		Source: src,
	}
}

// RunSweep looks up and runs the requested experiment. Trial failures
// (bad data, algorithm errors, even panics inside a trial) come back as
// errors, so a bad request cannot take a serving worker down. The
// request's result-relevant defaults are resolved via Canonical while
// its Parallelism is honored as given — it never changes result bytes.
//
// ctx carries cooperative cancellation: when it is cancelled the sweep
// stops within one grid point per worker (plus at most one chunk read
// inside a trial), discards all partial results, and returns the
// context's cause as its error. Cancellation never perturbs uncancelled
// output — a sweep that runs to completion is bit-identical under any
// context, including context.Background().
//
// src, when non-nil, feeds the source-streaming experiments in place of
// their generators (see Config.Source); it is called once per (point,
// rep) trial. Pooled datasets pass the pool's Acquire, so the rows are
// decoded once per process and every trial reads a view over them.
//
// An optional progress callback (at most one) receives one Progress
// event per completed panel; it observes the sweep without affecting
// its bytes.
func RunSweep(ctx context.Context, q SweepRequest, src func(seed int64) (data.Source, error), progress ...func(Progress)) (panels []Panel, err error) {
	par := q.Parallelism
	q, err = q.Canonical()
	if err != nil {
		return nil, err
	}
	q.Parallelism = par
	spec, err := Lookup(q.Experiment)
	if err != nil {
		return nil, err
	}
	// Backstop only: Spec.Run propagates failures as errors and the
	// engine recovers trial panics on their own goroutine; this catches
	// nothing but harness bugs on the calling goroutine itself.
	defer func() {
		if r := recover(); r != nil {
			panels, err = nil, fmt.Errorf("experiments: %s failed: %v", spec.ID, r)
		}
	}()
	cfg := q.Config(src)
	cfg.Ctx = ctx
	for _, p := range progress {
		if p != nil {
			cfg.Progress = p
		}
	}
	panels, err = spec.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s failed: %w", spec.ID, err)
	}
	return panels, nil
}

// sweep evaluates one series: for every x it averages Reps trials, each
// on its own deterministic RNG stream, scheduling trials through the
// engine (engines.go). The first trial failure aborts the
// series; so does a cancelled Config.Ctx — the up-front check here is
// what stops a multi-panel Run body between panels without touching any
// of the ~20 Run bodies themselves.
func sweep(cfg Config, name string, xs []float64, seedOff int64, f trialFn) (Series, error) {
	if cfg.context().Err() != nil {
		return Series{}, fmt.Errorf("series %s: %w", name, context.Cause(cfg.context()))
	}
	results, err := sweepBatched(cfg, xs, seedOff, f)
	if err != nil {
		return Series{}, fmt.Errorf("series %s: %w", name, err)
	}
	s := Series{Name: name, X: xs, Mean: make([]float64, len(xs)), Std: make([]float64, len(xs))}
	for xi, vals := range results {
		var o vecmath.OnlineMoments
		o.AddAll(vals)
		s.Mean[xi] = o.Mean
		s.Std[xi] = o.Std()
	}
	return s, nil
}

// addSeries runs one series sweep and appends it to the panel — unless
// a previous series of the same Run body already failed, in which case
// it does nothing and the latched first error is what Run returns.
// Keeps the ~20 Run bodies flat instead of a pyramid of error returns.
func addSeries(p *Panel, firstErr *error, cfg Config, name string, xs []float64, seedOff int64, f trialFn) {
	if *firstErr != nil {
		return
	}
	s, err := sweep(cfg, name, xs, seedOff, f)
	if err != nil {
		*firstErr = err
		return
	}
	p.Series = append(p.Series, s)
}

// WriteTable renders a panel as an aligned text table, one row per x,
// one mean±std column per series — the textual equivalent of the
// paper's plot. Series of different lengths are handled by padding the
// short ones with blank cells; the x column comes from the first series
// that still has the row.
func WriteTable(w io.Writer, p Panel) error {
	if _, err := fmt.Fprintf(w, "\n== %s(%s): %s ==\n", p.Figure, p.Name, p.Title); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s", p.XLabel)
	rows := 0
	for _, s := range p.Series {
		fmt.Fprintf(w, "  %-24s", s.Name)
		if len(s.X) > rows {
			rows = len(s.X)
		}
	}
	fmt.Fprintln(w)
	for xi := 0; xi < rows; xi++ {
		for _, s := range p.Series {
			if xi < len(s.X) {
				fmt.Fprintf(w, "%-12.4g", s.X[xi])
				break
			}
		}
		for _, s := range p.Series {
			if xi < len(s.X) {
				fmt.Fprintf(w, "  %-11.4g ± %-10.3g", s.Mean[xi], s.Std[xi])
			} else {
				fmt.Fprintf(w, "  %-24s", "")
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// WriteCSV renders a panel as CSV with columns
// figure,panel,series,x,mean,std.
func WriteCSV(w io.Writer, p Panel) error {
	for _, s := range p.Series {
		for xi := range s.X {
			if _, err := fmt.Fprintf(w, "%s,%s,%s,%g,%g,%g\n",
				p.Figure, p.Name, s.Name, s.X[xi], s.Mean[xi], s.Std[xi]); err != nil {
				return err
			}
		}
	}
	return nil
}
