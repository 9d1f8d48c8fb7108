package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"htdp/internal/experiments"
)

// Workload is one traffic mix against a running server.
type Workload struct {
	Name string
	Why  string
	// Args are the server flags beyond -serve, given the inputs and a
	// fresh cache directory.
	Args func(in *Inputs, cacheDir string) []string
	// Warm runs during set-up, after /healthz answers; nil for none.
	Warm func(ctx context.Context, b *Bench, srv *Server) error
	// Run drives the measured window.
	Run func(ctx context.Context, b *Bench, srv *Server) *Window
}

var workloads = []Workload{
	{
		Name: "cold-runs",
		Why:  "closed loop of fresh-seed runs of every algorithm on a CSV past both CSV caches and on the generator: core, kernels and data do the work",
		Args: func(in *Inputs, dir string) []string {
			return []string{"-tokens", in.TokenFile, "-cachedir", dir, "-dataset", "heavy=" + in.HeavyCSV}
		},
		Run: runCold,
	},
	{
		Name: "hot-cache",
		Why:  "open-loop Zipf reads of warmed runs and sweeps, bigger than the memory tier, plus coalesced fresh keys: front door and store do the work",
		Args: func(in *Inputs, dir string) []string {
			return []string{
				"-tokens", in.TokenFile, "-cachedir", dir, "-dataset", "small=" + in.SmallCSV,
				"-cachemem", itoa(hotCacheMem), "-tenantrate", itoa(5 * hotRate), "-tenantburst", itoa(hotRate),
			}
		},
		Warm: warmHot,
		Run:  runHot,
	},
	{
		Name: "sweep-storm",
		Why:  "a capped tenant's burst of sweeps followed over SSE beside an open loop of interactive runs: experiments, generation and kernels do the work",
		Args: func(in *Inputs, dir string) []string {
			return []string{"-tokens", in.TokenFile, "-cachedir", dir, "-dataset", "small=" + in.SmallCSV, "-tenantjobs", "1"}
		},
		Run: runStorm,
	},
}

// coldCyclesMax bounds the cold-runs sequence; the window ends long
// before it on any machine where a request takes over a millisecond.
// coldMinRuns keeps a slow window going until its p90 has ten samples
// beyond it.
const (
	coldCyclesMax = 1000
	coldMinRuns   = 120
)

// runCold drives nproc closed-loop clients over the cold-runs sequence.
// Cycles of coldMix are issued whole: a new cycle starts only while the
// window is open (or short of coldMinRuns), so every window holds whole
// cycles and the same mix.
func runCold(ctx context.Context, b *Bench, srv *Server) *Window {
	reqs := ColdRuns(b.In.Seed, coldCyclesMax*len(coldMix))
	recs := make([]Record, len(reqs))
	bodies := make([][]byte, len(reqs))
	t0 := time.Now()
	var mu sync.Mutex
	next, limit := 0, len(coldMix)
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		if next == limit {
			if (time.Since(t0) >= b.Seconds && next >= coldMinRuns) || limit == len(reqs) || ctx.Err() != nil {
				return -1
			}
			limit += len(coldMix)
		}
		next++
		return next - 1
	}
	var wg sync.WaitGroup
	for c := 0; c < b.Nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := NewConn(srv.Base, t0)
			defer conn.Close()
			due := 0.0
			for i := take(); i >= 0; i = take() {
				q := reqs[i]
				recs[i] = Record{ID: q.ID, Tenant: q.Tenant, Label: q.Label() + "/" + q.Backend(), DueMS: due}
				bodies[i] = conn.Do(ctx, http.MethodPost, q.Path(), b.In.Tokens[q.Tenant], q.Body(), &recs[i])
				recs[i].LagMS = recs[i].SentMS - due
				due = recs[i].DoneMS
			}
		}()
	}
	wg.Wait()
	w := &Window{Records: recs[:next], Bodies: map[int][]byte{}}
	for i := range w.Records {
		r := &w.Records[i]
		w.Latency = append(w.Latency, r.LatencyMS())
		if r.OK() {
			w.Ops++
			w.Bodies[r.ID] = bodies[i]
			if r.Tier != "miss" {
				w.mismatch("cold-runs request %d (%s) answered X-Htdp-Cache %q, want miss", r.ID, r.Label, r.Tier)
			}
		}
		if d := time.Duration(r.DoneMS * 1e6); d > w.Elapsed {
			w.Elapsed = d
		}
	}
	w.Primary = w.Ops
	return w
}

// warmHot computes the hot-cache key set over nproc connections and
// keeps each key's bytes; every later read must return exactly them.
func warmHot(ctx context.Context, b *Bench, srv *Server) error {
	keys := HotKeys(b.In.Seed)
	b.hotWarm = make([][]byte, len(keys))
	recs := make([]Record, len(keys))
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < b.Nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn := NewConn(srv.Base, t0)
			defer conn.Close()
			for i := c; i < len(keys); i += b.Nproc {
				q := keys[i]
				b.hotWarm[i] = conn.Do(ctx, http.MethodPost, q.Path(), b.In.Tokens[q.Tenant], q.Body(), &recs[i])
			}
		}(c)
	}
	wg.Wait()
	for i := range recs {
		if !recs[i].OK() || recs[i].Tier != "miss" {
			return fmt.Errorf("warming hot-cache key %d: status %d tier %q %s", i, recs[i].Status, recs[i].Tier, recs[i].Err)
		}
	}
	return nil
}

// runHot sends the hot-cache arrivals open loop over nproc connections.
func runHot(ctx context.Context, b *Bench, srv *Server) *Window {
	keys := HotKeys(b.In.Seed)
	reqs := HotReads(b.In.Seed, keys, b.Seconds)
	recs := make([]Record, len(reqs))
	bodies := make([][]byte, len(reqs))
	conns := make([]*Conn, b.Nproc)
	t0 := time.Now()
	for i := range conns {
		conns[i] = NewConn(srv.Base, t0)
		defer conns[i].Close()
	}
	n := openLoop(ctx, conns, t0, reqs, recs, bodies, b.In.Tokens, nil)
	w := &Window{Records: recs[:n], Bodies: map[int][]byte{}}
	pairs := map[int][]int{}
	for i := range w.Records {
		r, q := &w.Records[i], reqs[i]
		w.Latency = append(w.Latency, r.LatencyMS())
		if d := time.Duration(r.DoneMS * 1e6); d > w.Elapsed {
			w.Elapsed = d
		}
		if !r.OK() {
			continue
		}
		w.Ops++
		if q.Pair > 0 {
			pairs[q.Pair] = append(pairs[q.Pair], i)
			w.Bodies[q.ID] = bodies[i]
			continue
		}
		if !bytes.Equal(bodies[i], b.hotWarm[q.Key]) {
			w.mismatch("hot-cache read %d of key %d differs from its warm-up bytes", q.ID, q.Key)
		}
	}
	w.Primary = w.Ops
	for p, ix := range pairs {
		if len(ix) != 2 {
			continue // one of the pair failed; counted as failed already
		}
		a, c := w.Records[ix[0]], w.Records[ix[1]]
		tiers := []string{a.Tier, c.Tier}
		sort.Strings(tiers)
		if tiers[1] != "miss" || (tiers[0] != "coalesced" && tiers[0] != "hit") {
			w.mismatch("hot-cache fresh pair %d answered tiers %v, want miss with coalesced or hit", p, tiers)
		}
		if !bytes.Equal(bodies[ix[0]], bodies[ix[1]]) {
			w.mismatch("hot-cache fresh pair %d answered different bytes", p)
		}
	}
	return w
}

// runStorm submits the batch tenant's burst async, follows its jobs in
// order over SSE on one connection, and runs the interactive tenant's
// open loop on another until the burst is done and the window has
// lasted at least the run's seconds.
func runStorm(ctx context.Context, b *Bench, srv *Server) *Window {
	burst, inter := Storm(b.In.Seed, b.Seconds)
	t0 := time.Now()
	batch := NewConn(srv.Base, t0)
	defer batch.Close()
	w := &Window{Bodies: map[int][]byte{}}
	burstRecs := make([]Record, 0, 2*len(burst))
	ids := make([]string, len(burst))
	var doneMu sync.Mutex
	burstDone := time.Duration(-1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			doneMu.Lock()
			burstDone = time.Since(t0)
			doneMu.Unlock()
		}()
		tok := b.In.Tokens["batch"]
		for i, q := range burst {
			async := *q.Sweep
			async.Async = true
			q.Sweep = &async
			rec := Record{ID: q.ID, Tenant: q.Tenant, Label: q.Label()}
			body := batch.Do(ctx, http.MethodPost, q.Path(), tok, q.Body(), &rec)
			burstRecs = append(burstRecs, rec)
			var st struct{ ID string }
			if rec.Status != http.StatusAccepted || json.Unmarshal(body, &st) != nil {
				return
			}
			ids[i] = st.ID
		}
		for i, q := range burst {
			rec := Record{ID: q.ID, Tenant: q.Tenant, Label: q.Label() + "/events"}
			ev, err := batch.Follow(ctx, ids[i], tok, &rec)
			if err == nil && ev != "done" {
				rec.Err = "job ended " + ev
			}
			burstRecs = append(burstRecs, rec)
			if rec.OK() {
				w.Primary++
				w.Makespan = time.Duration(rec.DoneMS * 1e6)
			}
		}
	}()
	recs := make([]Record, len(inter))
	bodies := make([][]byte, len(inter))
	iconn := NewConn(srv.Base, t0)
	defer iconn.Close()
	stop := func(due time.Duration) bool {
		doneMu.Lock()
		defer doneMu.Unlock()
		return due >= b.Seconds && burstDone >= 0 && due > burstDone
	}
	n := openLoop(ctx, []*Conn{iconn}, t0, inter, recs, bodies, b.In.Tokens, stop)
	wg.Wait()
	w.Records = append(burstRecs, recs[:n]...)
	for i := range recs[:n] {
		r := &recs[i]
		w.Latency = append(w.Latency, r.LatencyMS())
		if r.OK() {
			w.Ops++
			w.Bodies[r.ID] = bodies[i]
		}
	}
	w.Ops += w.Primary
	for _, r := range w.Records {
		if d := time.Duration(r.DoneMS * 1e6); d > w.Elapsed {
			w.Elapsed = d
		}
	}
	// The sweeps' bytes, for the output checks.
	for i, q := range burst {
		if ids[i] == "" {
			continue
		}
		rec := Record{ID: q.ID, Tenant: q.Tenant, Label: q.Label() + "/result"}
		body := batch.Do(ctx, http.MethodGet, "/v1/results/"+ids[i], b.In.Tokens["batch"], nil, &rec)
		if rec.OK() {
			w.Bodies[q.ID] = body
		}
	}
	return w
}

// sweepDoc is the served sweep document.
type sweepDoc struct {
	Experiment string              `json:"experiment"`
	Panels     []experiments.Panel `json:"panels"`
}
