package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"htdp/internal/core"
	"htdp/internal/data"
	"htdp/internal/experiments"
	"htdp/internal/loss"
	"htdp/internal/polytope"
	"htdp/internal/randx"
	"htdp/internal/serve"
	"htdp/internal/vecmath"
)

// demoLinear is cmd/htdp's built-in demo-linear dataset, pinned there by
// the server smoke golden. The output checks fail if the two drift.
func demoLinear() *data.GenSource {
	return data.LinearSource(1, data.LinearOpt{
		N: 2000, D: 100,
		Feature: randx.LogNormal{Mu: 0, Sigma: 0.8},
		Noise:   randx.Normal{Mu: 0, Sigma: 0.3},
	})
}

// NewPool builds an in-process pool holding every dataset a workload's
// server can hold, under the same names.
func NewPool(in *Inputs) (*data.SourcePool, error) {
	pool := data.NewSourcePool()
	if _, err := pool.RegisterGen("demo-linear", demoLinear()); err != nil {
		return nil, err
	}
	for name, path := range map[string]string{"heavy": in.HeavyCSV, "small": in.SmallCSV} {
		if _, err := pool.RegisterCSV(name, path, -1, false); err != nil {
			pool.Close()
			return nil, err
		}
	}
	return pool, nil
}

// tracedSource times every Chunk and RowAt of the source it wraps. It is
// bit-transparent: calls and results pass through unchanged.
type tracedSource struct {
	src     data.Source
	tr      *Tracer
	rid     int
	backend string
	parent  int // the span the next reads belong to
}

func (s *tracedSource) N() int { return s.src.N() }
func (s *tracedSource) D() int { return s.src.D() }

func (s *tracedSource) Chunk(t, T int) (*data.Dataset, error) {
	id := s.tr.Begin(s.parent, s.rid, "data.Chunk", s.backend)
	ck, err := s.src.Chunk(t, T)
	rows := 0
	if ck != nil {
		rows = ck.N()
	}
	s.tr.End(id, rows)
	return ck, err
}

func (s *tracedSource) RowAt(i int, buf []float64) ([]float64, float64, error) {
	id := s.tr.Begin(s.parent, s.rid, "data.RowAt", s.backend)
	x, y, err := s.src.RowAt(i, buf)
	s.tr.End(id, 1)
	return x, y, err
}

func (s *tracedSource) Close() error { return s.src.Close() }

// Compute is one traced in-process computation.
type Compute struct {
	Req   Req
	Span  int // the "compute" or "experiments.RunSweep" root
	Serve int // the serve.ServeHTTP span of the same request, 0 if none
	// Probe marks a request the workload itself does not send, replayed
	// so that every layer is measured on every workload.
	Probe bool
	// Cold marks a request of the cold-runs cycle, the shape the core,
	// data and loss metrics are taken from.
	Cold bool
	// WindowMS is the latency the untraced window measured for the same
	// request; 0 when the window did not send it.
	WindowMS float64
	AllocMB  float64
	Opens    int64
}

// Replayer issues requests in process, recording spans at every layer
// boundary.
type Replayer struct {
	ctx      context.Context
	tr       *Tracer
	pool     *data.SourcePool
	srv      *serve.Server
	tokens   map[string]string
	rid      int
	Computes []*Compute
	// Mismatches lists every failed byte comparison.
	Mismatches []string
}

// NewReplayer builds the pool and an in-process server over it (with
// the hot-cache memory bound, so hot reads split between the tiers).
func NewReplayer(ctx context.Context, in *Inputs, dir string) (*Replayer, error) {
	r := &Replayer{ctx: ctx, tr: NewTracer(), tokens: in.Tokens}
	for k := 0; k < 3; k++ {
		id := r.tr.Begin(0, -1, "data.OpenCSV", "heavy")
		src, err := data.OpenCSV(in.HeavyCSV, "heavy", -1, false)
		r.tr.End(id, 0)
		if err != nil {
			return nil, err
		}
		src.Close()
	}
	pool, err := NewPool(in)
	if err != nil {
		return nil, err
	}
	id := r.tr.Begin(0, -1, "serve.New", "")
	srv, err := serve.New(pool, serve.Options{
		TokensPath: in.TokenFile, CacheDir: filepath.Join(dir, "replay-cache"),
		MemCacheBytes: hotCacheMem, TenantRate: 1e9, TenantBurst: 1 << 20,
	})
	r.tr.End(id, 0)
	if err != nil {
		pool.Close()
		return nil, err
	}
	r.pool, r.srv = pool, srv
	return r, nil
}

// Close drains the in-process server and closes the pool.
func (r *Replayer) Close() {
	r.srv.Close()
	r.pool.Close()
}

func (r *Replayer) mismatch(format string, args ...any) {
	r.Mismatches = append(r.Mismatches, fmt.Sprintf(format, args...))
}

// ServeHTTP sends q through the in-process server and returns the
// status, cache tier and body.
func (r *Replayer) ServeHTTP(rid int, q Req) (int, string, []byte, int) {
	hr := httptest.NewRequest(http.MethodPost, q.Path(), bytes.NewReader(q.Body()))
	hr.Header.Set("Authorization", "Bearer "+r.tokens[q.Tenant])
	rec := httptest.NewRecorder()
	id := r.tr.Begin(0, rid, "serve.ServeHTTP", "")
	r.srv.ServeHTTP(rec, hr)
	tier := rec.Header().Get("X-Htdp-Cache")
	r.tr.EndAttr(id, 0, tier)
	return rec.Code, tier, rec.Body.Bytes(), id
}

// Run replays one run request: through the in-process server (a fresh
// key, so a miss that computes), then computed again in process with a
// span around every layer call. Both documents must equal each other
// and, when given, the bytes the real server answered.
func (r *Replayer) Run(q Req, served []byte, probe bool) (*Compute, []byte) {
	r.rid++
	rid := r.rid
	code, tier, body, sid := r.ServeHTTP(rid, q)
	if code != http.StatusOK {
		r.mismatch("replayed %s request %d answered %d (%s)", q.Label(), q.ID, code, tier)
	}
	c := &Compute{Req: q, Serve: sid, Probe: probe}
	got, span, err := r.ComputeRun(rid, *q.Run)
	c.Span = span
	switch {
	case err != nil:
		r.mismatch("computing %s request %d in process: %v", q.Label(), q.ID, err)
	case !bytes.Equal(got, body):
		r.mismatch("%s request %d: in-process document differs from ServeHTTP's", q.Label(), q.ID)
	case served != nil && !bytes.Equal(got, served):
		r.mismatch("%s request %d: in-process document differs from the served bytes", q.Label(), q.ID)
	}
	r.Computes = append(r.Computes, c)
	return c, body
}

// ComputeRun issues the core and loss calls exactly as serve.ExecuteRun
// does, under spans, and assembles the document handleRun would serve.
func (r *Replayer) ComputeRun(rid int, q serve.RunRequest) ([]byte, int, error) {
	backend := Req{Run: &q}.Backend()
	root := r.tr.Begin(0, rid, "compute", q.Algo+"/"+backend)
	defer r.tr.End(root, 0)
	par := q.Parallelism
	q, err := q.Canonical()
	if err != nil {
		return nil, root, err
	}
	entry, err := r.pool.Lookup(q.Dataset)
	if err != nil {
		return nil, root, err
	}
	delta := q.Delta
	if delta == 0 {
		delta = math.Pow(float64(entry.N), -1.1)
	}
	aq := r.tr.Begin(root, rid, "data.Acquire", backend)
	raw, err := r.pool.Acquire(q.Dataset)
	r.tr.End(aq, 0)
	if err != nil {
		return nil, root, err
	}
	defer raw.Close()
	ts := &tracedSource{src: raw, tr: r.tr, rid: rid, backend: backend}
	src := data.WithContext(r.ctx, ts)
	n, d := src.N(), src.D()
	rng := randx.New(q.Seed)
	var w []float64
	ts.parent = r.tr.Begin(root, rid, "core."+q.Algo, backend)
	switch q.Algo {
	case "fw":
		w, err = core.FrankWolfeSource(src, core.FWOptions{
			Loss: loss.Squared{}, Domain: polytope.NewL1Ball(d, 1),
			Eps: q.Eps, T: q.T, Parallelism: par, Rng: rng,
		})
	case "lasso":
		w, err = core.LassoSource(src, core.LassoOptions{
			Eps: q.Eps, Delta: delta, T: q.T, Parallelism: par, Rng: rng,
		})
	case "iht":
		w, err = core.SparseLinRegSource(src, core.SparseLinRegOptions{
			Eps: q.Eps, Delta: delta, SStar: q.SStar, T: q.T,
			Parallelism: par, Rng: rng,
		})
	case "sparseopt":
		w, err = core.SparseOptSource(src, core.SparseOptOptions{
			Loss: loss.Squared{}, Eps: q.Eps, Delta: delta, SStar: q.SStar, T: q.T,
			Parallelism: par, Rng: rng,
		})
	case "dpsgd":
		w, err = core.DPSGDSource(src, core.DPSGDOptions{
			Loss: loss.Squared{}, Eps: q.Eps, Delta: delta, T: q.T,
			Batch: q.Batch, Clip: q.Clip, LR: q.LR, Accountant: q.Accountant,
			Parallelism: par, Rng: rng,
		})
	}
	r.tr.End(ts.parent, 0)
	if err != nil {
		return nil, root, err
	}
	var risks [2]float64
	for i, v := range [][]float64{w, make([]float64, d)} {
		ts.parent = r.tr.Begin(root, rid, "loss.EmpiricalSource", backend)
		risks[i], err = loss.EmpiricalSource(loss.Squared{}, v, src, par)
		r.tr.End(ts.parent, 0)
		if err != nil {
			return nil, root, err
		}
	}
	enc := r.tr.Begin(root, rid, "serve.encode", "")
	b, err := json.Marshal(&serve.RunResult{
		Dataset: q.Dataset, Algo: q.Algo, N: n, D: d,
		Eps: q.Eps, Delta: delta, Seed: q.Seed,
		Risk: risks[0], RiskZero: risks[1],
		Norm1: vecmath.Norm1(w), NNZ: vecmath.Norm0(w), W: w,
	})
	r.tr.End(enc, 0)
	return append(b, '\n'), root, err
}

// Sweep runs one sweep in process through experiments.RunSweep, with a
// span per panel from the progress callback, a counting source factory
// and the allocation delta, and checks the document against served.
func (r *Replayer) Sweep(q Req, served []byte, probe bool) *Compute {
	r.rid++
	rid := r.rid
	sq := *q.Sweep
	backend := q.Backend()
	root := r.tr.Begin(0, rid, "experiments.RunSweep", sq.Experiment)
	c := &Compute{Req: q, Span: root, Probe: probe}
	var open func(int64) (data.Source, error)
	if sq.Dataset != "" {
		name := sq.Dataset
		open = func(int64) (data.Source, error) {
			atomic.AddInt64(&c.Opens, 1)
			id := r.tr.Begin(root, rid, "data.Acquire", backend)
			src, err := r.pool.Acquire(name)
			r.tr.End(id, 0)
			if err != nil {
				return nil, err
			}
			return &tracedSource{src: src, tr: r.tr, rid: rid, backend: backend, parent: root}, nil
		}
	}
	var mu sync.Mutex
	last := time.Now()
	progress := func(p experiments.Progress) {
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		r.tr.Add(Span{Parent: root, RID: rid, Name: "experiments.panel", Attr: p.Panel}, last, now)
		last = now
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	panels, err := experiments.RunSweep(r.ctx, sq, open, progress)
	runtime.ReadMemStats(&m1)
	r.tr.End(root, 0)
	c.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	r.Computes = append(r.Computes, c)
	if err != nil {
		r.mismatch("sweep %s in process: %v", sq.Experiment, err)
		return c
	}
	canon, _ := sq.Canonical()
	b, err := json.Marshal(sweepDoc{Experiment: canon.Experiment, Panels: panels})
	if err != nil {
		r.mismatch("encoding sweep %s: %v", sq.Experiment, err)
		return c
	}
	if served != nil && !bytes.Equal(append(b, '\n'), served) {
		r.mismatch("sweep %s request %d: in-process document differs from the served bytes", sq.Experiment, q.ID)
	}
	return c
}

// Read sends q through the in-process server, checks the bytes against
// want when given, and returns them.
func (r *Replayer) Read(q Req, want []byte) []byte {
	r.rid++
	code, tier, body, _ := r.ServeHTTP(r.rid, q)
	if code != http.StatusOK || (want != nil && !bytes.Equal(body, want)) {
		r.mismatch("replayed %s request %d (key %d) answered %d (%s) or different bytes", q.Label(), q.ID, q.Key, code, tier)
	}
	return body
}

// traced replays the workload in process with spans at every layer
// boundary, runs the probes for the layers the workload does not cross,
// and derives the per-layer metrics.
func (b *Bench) traced(ctx context.Context, w *Window, m0, m1 map[string]float64, lagP99 float64) ([]Metric, []string, []string, error) {
	rp, err := NewReplayer(ctx, b.In, b.RunDir)
	if err != nil {
		return nil, nil, nil, err
	}
	defer rp.Close()
	seed, own := b.In.Seed, b.W.Name
	served := func(mine bool, q Req) []byte {
		if !mine {
			return nil
		}
		return w.Bodies[q.ID]
	}
	// Window latency of the workload's own sync runs, by request id.
	latency := map[int]float64{}
	for i := range w.Records {
		if r := &w.Records[i]; r.Path == "/v1/run" && r.OK() {
			latency[r.ID] = r.LatencyMS()
		}
	}

	// cold-runs: every algorithm on both backends.
	nCold := len(coldMix)
	if own == "cold-runs" {
		nCold *= 2
	}
	for _, q := range ColdRuns(seed, nCold) {
		c, _ := rp.Run(q, served(own == "cold-runs", q), own != "cold-runs")
		c.Cold = true
		if own == "cold-runs" {
			c.WindowMS = latency[q.ID]
		}
	}

	// sweep-storm: the burst, and the interactive runs.
	burst, inter := Storm(seed, b.Seconds)
	if own != "sweep-storm" {
		burst = burst[:len(sweepCycle)]
	}
	for _, q := range burst {
		rp.Sweep(q, served(own == "sweep-storm", q), own != "sweep-storm")
	}
	if own == "sweep-storm" {
		for _, q := range inter[:min(40, len(inter))] {
			if body := w.Bodies[q.ID]; body != nil {
				c, _ := rp.Run(q, body, false)
				c.WindowMS = latency[q.ID]
			}
		}
	}

	// hot-cache: warm the key set, then read it with Zipf popularity.
	keys := HotKeys(seed)
	replayWarm := make([][]byte, len(keys))
	for i, q := range keys {
		var want []byte
		if own == "hot-cache" {
			want = b.hotWarm[i]
		}
		if q.Run != nil {
			_, replayWarm[i] = rp.Run(q, want, own != "hot-cache")
		} else {
			replayWarm[i] = rp.Read(q, want)
		}
	}
	nReads := 300
	if own == "hot-cache" {
		nReads = 3000
	}
	reads := HotReads(seed, keys, b.Seconds)
	fresh := map[int][]byte{}
	for i, q := range reads {
		switch {
		case i >= nReads && q.Pair == 0:
			continue // past the replayed prefix, only the fresh pairs
		case q.Pair == 0:
			rp.Read(q, replayWarm[q.Key])
		case fresh[q.Pair] == nil:
			var c *Compute
			c, fresh[q.Pair] = rp.Run(q, served(own == "hot-cache", q), own != "hot-cache")
			if own == "hot-cache" {
				c.WindowMS = latency[q.ID]
			}
		default:
			rp.Read(q, fresh[q.Pair])
		}
	}

	ck, err := kernelChunk(b.In)
	if err != nil {
		return nil, nil, nil, err
	}
	kern := KernelProbes(rp.tr, ck)

	// Trace overhead: the cold cycle again with recording off, against
	// its first traced pass.
	var on, off time.Duration
	spans := rp.tr.Spans()
	for _, c := range rp.Computes[:len(coldMix)] {
		on += spans[c.Span-1].Dur()
	}
	rp.tr.SetRecording(false)
	for _, q := range ColdRuns(seed, len(coldMix)) {
		t := time.Now()
		if _, _, err := rp.ComputeRun(0, *q.Run); err != nil {
			rp.mismatch("untraced recompute of %s: %v", q.Label(), err)
		}
		off += time.Since(t)
	}
	rp.tr.SetRecording(true)
	overhead := 100 * (on.Seconds() - off.Seconds()) / off.Seconds()

	metrics, attrib := b.LayerMetrics(rp, w, m0, m1, lagP99, overhead, kern)
	os.WriteFile(filepath.Join(b.Out, "log", b.W.Name+".spans.jsonl"), encodeSpans(rp.tr.Spans()), 0o644)
	return metrics, attrib, rp.Mismatches, nil
}
