package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"htdp/internal/data"
	"htdp/internal/experiments"
	"htdp/internal/serve"
)

// execRun computes a run request in process through serve.ExecuteRun
// and renders the document the server answers for it.
func execRun(ctx context.Context, pool *data.SourcePool, q serve.RunRequest) ([]byte, error) {
	src, err := pool.Acquire(q.Dataset)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	res, err := serve.ExecuteRun(ctx, src, q)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(res)
	return append(b, '\n'), err
}

// execSweep runs a sweep request in process through experiments.RunSweep
// and renders the document the server answers for it.
func execSweep(ctx context.Context, pool *data.SourcePool, q experiments.SweepRequest) ([]byte, error) {
	var open func(int64) (data.Source, error)
	if q.Dataset != "" {
		open = func(int64) (data.Source, error) { return pool.Acquire(q.Dataset) }
	}
	panels, err := experiments.RunSweep(ctx, q, open)
	if err != nil {
		return nil, err
	}
	canon, err := q.Canonical()
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(sweepDoc{Experiment: canon.Experiment, Panels: panels})
	return append(b, '\n'), err
}

// verifySample recomputes a seed-chosen sample of the window's runs and
// sweeps in process and compares them byte for byte with the server's
// answers.
func (b *Bench) verifySample(ctx context.Context, pool *data.SourcePool, w *Window) []string {
	r := stream(b.In.Seed, "verify")
	var sample []Req
	var want [][]byte
	pick := func(reqs []Req, k int, body func(Req) []byte) {
		var have []Req
		for _, q := range reqs {
			if body(q) != nil {
				have = append(have, q)
			}
		}
		for _, i := range r.Perm(len(have))[:min(k, len(have))] {
			sample = append(sample, have[i])
			want = append(want, body(have[i]))
		}
	}
	fromWindow := func(q Req) []byte { return w.Bodies[q.ID] }
	switch b.W.Name {
	case "cold-runs":
		pick(ColdRuns(b.In.Seed, len(w.Records)), 3, fromWindow)
	case "hot-cache":
		keys := HotKeys(b.In.Seed)
		warm := func(q Req) []byte { return b.hotWarm[q.Key] }
		pick(keys[:hotRunKeys], 2, warm)
		pick(keys[hotRunKeys:], 1, warm)
		var fresh []Req
		for _, q := range HotReads(b.In.Seed, keys, b.Seconds) {
			if q.Pair > 0 {
				fresh = append(fresh, q)
			}
		}
		pick(fresh, 1, fromWindow)
	case "sweep-storm":
		burst, inter := Storm(b.In.Seed, b.Seconds)
		pick(burst, 1, fromWindow)
		pick(inter, 2, fromWindow)
	}
	var out []string
	for i, q := range sample {
		var got []byte
		var err error
		if q.Sweep != nil {
			got, err = execSweep(ctx, pool, *q.Sweep)
		} else {
			got, err = execRun(ctx, pool, *q.Run)
		}
		switch {
		case err != nil:
			out = append(out, fmt.Sprintf("recomputing %s request %d in process: %v", q.Label(), q.ID, err))
		case !bytes.Equal(got, want[i]):
			out = append(out, fmt.Sprintf("%s request %d: served bytes differ from the in-process recomputation", q.Label(), q.ID))
		}
	}
	return out
}
