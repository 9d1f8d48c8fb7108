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
	// (paper protocol: ≥20; at least 1). 0 → 5.
	Reps int
	// Scale multiplies every sample size relative to the paper's
	// (0 < Scale ≤ 1; NaN is rejected). 0 → 0.1.
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

// withDefaults resolves zero fields to their defaults (reps 5, scale
// 0.1, seed 1) and rejects what no sweep can run: reps below 1, and a
// scale that is NaN or outside (0, 1]. It is the one config check: the
// panel runner applies it to every Spec.Run and SweepRequest.Canonical
// to every request, so a bad knob is an error naming it, never a panic.
func (c Config) withDefaults() (Config, error) {
	if c.Reps == 0 {
		c.Reps = 5
	}
	if c.Reps < 1 {
		return c, fmt.Errorf("experiments: reps %d below 1", c.Reps)
	}
	if c.Scale == 0 {
		c.Scale = 0.1
	}
	if !(c.Scale > 0 && c.Scale <= 1) {
		return c, fmt.Errorf("experiments: scale %v outside (0,1]", c.Scale)
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
// the first failure (a bad config, a trial error); it never panics.
// Every entry's Run is the panel runner that entry builds.
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
// have equal canonical forms — the property response caches key on.
// Reps, scale and seed go through Config.withDefaults, the check every
// Spec.Run applies, so a malformed request is a 400, not a crashed
// worker.
func (q SweepRequest) Canonical() (SweepRequest, error) {
	spec, err := Lookup(q.Experiment)
	if err != nil {
		return q, err
	}
	if q.Dataset != "" && !spec.UsesSource {
		return q, fmt.Errorf("experiments: %s does not stream from a source; it ignores dataset %q (drop the field, or pick a source-streaming experiment such as \"streaming\")", spec.ID, q.Dataset)
	}
	c, err := Config{Reps: q.Reps, Scale: q.Scale, Seed: q.Seed}.withDefaults()
	if err != nil {
		return q, err
	}
	q.Reps, q.Scale, q.Seed = c.Reps, c.Scale, c.Seed
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

// panel declares one sub-figure of a registry entry: its labels and the
// series that sweep it. The runner (entry) names it and runs it.
type panel struct {
	title, xLabel, yLabel string
	series                []series
}

// series declares one line of a panel: its grid, the seed offset from
// which pointSeed derives each trial's stream (so an existing offset
// never changes, and a new series takes an unused one), and the trial.
type series struct {
	name    string
	xs      []float64
	seedOff int64
	trial   trialFn
}

// entry declares a registry entry as its panels, in order, each built
// from the resolved config. Its Spec.Run is the one panel runner: it
// resolves and validates the config, and for each panel in turn checks
// for cancellation, builds the declaration — only after the previous
// panel's sweeps, so an entry that generates a dataset per panel holds
// one at a time — sweeps its series, names it (Figure = id, Name = a,
// b, …) and reports it to Config.Progress. The first failure ends the
// run with no panels, a build error included; a panic while building a
// panel (trial panics are the engine's, see safeTrial) comes back as an
// error too.
func entry(id, desc string, panels ...func(Config) (panel, error)) Spec {
	run := func(cfg Config) (out []Panel, err error) {
		defer func() {
			if r := recover(); r != nil {
				out, err = nil, fmt.Errorf("panicked: %v", r)
			}
		}()
		if cfg, err = cfg.withDefaults(); err != nil {
			return nil, err
		}
		for i, build := range panels {
			if cfg.context().Err() != nil {
				return nil, context.Cause(cfg.context())
			}
			decl, err := build(cfg)
			if err != nil {
				return nil, err
			}
			p := Panel{Figure: id, Name: string(rune('a' + i)), Title: decl.title, XLabel: decl.xLabel, YLabel: decl.yLabel}
			for _, s := range decl.series {
				swept, err := sweep(cfg, s.name, s.xs, s.seedOff, s.trial)
				if err != nil {
					return nil, err
				}
				p.Series = append(p.Series, swept)
			}
			out = append(out, p)
			if cfg.Progress != nil {
				cfg.Progress(Progress{Done: i + 1, Total: len(panels), Panel: id + "(" + p.Name + ")"})
			}
		}
		return out, nil
	}
	return Spec{ID: id, Description: desc, Run: run}
}

// sweep evaluates one series: for every x it averages Reps trials, each
// on its own deterministic RNG stream, scheduling trials through the
// engine (engines.go). The first trial failure aborts the series; so
// does a cancelled Config.Ctx.
func sweep(cfg Config, name string, xs []float64, seedOff int64, f trialFn) (Series, error) {
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
