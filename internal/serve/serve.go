// Package serve implements the htdp estimation service: a concurrent
// HTTP JSON API over a pooled data layer. It is the serving plane the
// ROADMAP's "heavy traffic" north star asks for — request handling is
// concurrent while every data-touching computation stays on the
// repository's determinism contract, which is what makes the response
// cache exact: the same canonical request always produces bit-identical
// bytes, served from cache or computed fresh.
//
// The pieces:
//
//   - data.SourcePool hands each request a private Source handle over
//     shared immutable state (CSV row-offset index, in-memory matrix,
//     generator spec);
//   - a bounded scheduler (fixed workers, depth-bounded queue, job TTL)
//     runs the jobs and sheds load with 503 instead of queueing
//     unboundedly;
//   - a two-tier result store keyed by the SHA-256 of the canonicalized
//     request replays responses bit for bit: a byte-bounded in-memory
//     LRU over an optional content-addressed disk tier (-cachedir)
//     that survives restarts;
//   - the scheduler doubles as the singleflight registry: concurrent
//     misses of one key join a single scheduled job;
//   - a multi-tenant front door resolves every request to a tenant
//     (token auth via Authorization: Bearer or X-Htdp-Token, loaded
//     from a tokens file), rate-limits and quota-bounds each tenant
//     ahead of the global scheduler bound, and dispatches tenants'
//     queues by deterministic weighted round-robin so one tenant's
//     flood cannot starve another — tenancy, like Parallelism, is
//     excluded from the cache key, so identical requests from two
//     tenants still coalesce onto one computation and one cache entry;
//   - /metrics exposes request, latency, cache-tier, singleflight,
//     job, and per-tenant counters (OPERATIONS.md documents every
//     series).
//
// Endpoints, schemas, the error envelope, and the determinism/caching
// contract are documented in API.md; cmd/htdp -serve wires this up.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"htdp/internal/data"
	"htdp/internal/experiments"
)

// Options sizes the service.
type Options struct {
	// Workers is the job-scheduler worker count (0 = GOMAXPROCS). Each
	// job additionally parallelizes internally per its request's
	// Parallelism field.
	Workers int
	// QueueDepth bounds the pending-job queue (0 = 64); submissions
	// beyond it are rejected with 503.
	QueueDepth int
	// MemCacheBytes bounds the in-memory result-store tier in bytes
	// (0 = 64 MiB), LRU evicted.
	MemCacheBytes int64
	// CacheDir, when non-empty, enables the durable result tier: one
	// content-addressed file per cache entry, written atomically, read
	// back bit-identically across restarts. Empty = memory-only.
	CacheDir string
	// DiskCacheBytes bounds the CacheDir tier in bytes (0 = 1 GiB),
	// LRU evicted (file mtime orders entries across restarts).
	DiskCacheBytes int64
	// JobTTL evicts finished jobs from the /v1/jobs history this long
	// after completion, alongside the FIFO count bound (0 = count
	// bound only). Cached results outlive their job: a re-request is
	// answered by the result store.
	JobTTL time.Duration
	// MaxUploadBytes bounds POST /v1/datasets bodies (0 = 1 GiB).
	MaxUploadBytes int64
	// RunTimeout, when positive, bounds every compute job's execution
	// time (queue wait excluded); past it the job is cancelled and the
	// request answers 504 deadline_exceeded. A request's timeout_ms
	// field tightens the bound per request but never loosens it beyond
	// this cap. 0 = no server-side deadline (cmd/htdp -runtimeout).
	RunTimeout time.Duration
	// TokensPath names the token→tenant file of the front door (format
	// in OPERATIONS.md: one `token tenant [weight]` per line). Exactly
	// one of TokensPath and NoAuth must be set — New fails otherwise,
	// so a server can never start silently unauthenticated
	// (cmd/htdp -tokens).
	TokensPath string
	// NoAuth disables authentication: every request resolves to the
	// shared "anonymous" tenant. Development mode only
	// (cmd/htdp -noauth).
	NoAuth bool
	// TenantRate is the per-tenant token-bucket refill rate in
	// requests per second for the admission-controlled endpoints (the
	// compute and upload POSTs); beyond it requests answer 429
	// rate_limited with Retry-After. 0 = no rate limit
	// (cmd/htdp -tenantrate).
	TenantRate float64
	// TenantBurst is the token-bucket capacity — how many
	// admission-controlled requests one tenant may issue back to back
	// before the rate applies (0 = 1; cmd/htdp -tenantburst).
	TenantBurst int
	// TenantJobs caps one tenant's concurrently *running* jobs; a
	// tenant at its cap keeps its jobs queued (its own queue, nobody
	// else's dispatch) until a slot frees. 0 = unlimited
	// (cmd/htdp -tenantjobs).
	TenantJobs int
	// TenantQueue caps one tenant's share of the pending-job queue;
	// beyond it that tenant's submissions answer 429 quota_exceeded
	// while other tenants keep submitting. 0 = bounded only by
	// QueueDepth (cmd/htdp -tenantqueue).
	TenantQueue int
	// AccessLog, when non-nil, receives one structured JSON line per
	// request (method, path, normalized route, status, tenant,
	// duration). Writes are serialized by the server
	// (cmd/htdp -accesslog).
	AccessLog io.Writer
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.MemCacheBytes <= 0 {
		o.MemCacheBytes = 64 << 20
	}
	if o.DiskCacheBytes <= 0 {
		o.DiskCacheBytes = 1 << 30
	}
	if o.MaxUploadBytes <= 0 {
		o.MaxUploadBytes = 1 << 30
	}
	return o
}

// Server is the HTTP handler of the estimation service. Create one with
// New, mount it on any http.Server (it implements http.Handler), and
// Close it to drain the scheduler.
type Server struct {
	pool    *data.SourcePool
	sched   *scheduler
	store   *store
	met     *metrics
	auth    *auth
	limiter *limiter
	tmet    *tenantMetrics
	mux     *http.ServeMux
	opt     Options
	logMu   sync.Mutex // serializes Options.AccessLog writes
}

// New builds a Server over an already-populated pool. The pool stays
// owned by the caller (Close does not close it), so one pool can back
// several servers or outlive a restart. When Options.CacheDir is set,
// the directory is created and scanned (crash leftovers swept, prior
// results re-indexed) before the server accepts traffic; scan failures
// are returned rather than silently running without the disk tier.
// Exactly one of Options.TokensPath and Options.NoAuth must be set —
// the front door fails fast instead of starting unauthenticated, and
// a missing or malformed token file is a startup error, not a silent
// lockout.
func New(pool *data.SourcePool, opt Options) (*Server, error) {
	opt = opt.withDefaults()
	if opt.TokensPath == "" && !opt.NoAuth {
		return nil, errors.New("serve: authentication is required: set Options.TokensPath (cmd/htdp -tokens) or explicitly opt out with Options.NoAuth (-noauth)")
	}
	if opt.TokensPath != "" && opt.NoAuth {
		return nil, errors.New("serve: Options.TokensPath and Options.NoAuth are mutually exclusive")
	}
	a, err := newAuth(opt.TokensPath, opt.NoAuth)
	if err != nil {
		return nil, err
	}
	st, err := newStore(opt.MemCacheBytes, opt.CacheDir, opt.DiskCacheBytes)
	if err != nil {
		return nil, err
	}
	s := &Server{
		pool:    pool,
		sched:   newScheduler(opt.Workers, opt.QueueDepth, opt.JobTTL, opt.TenantJobs, opt.TenantQueue, st.contains),
		store:   st,
		met:     newMetrics(),
		auth:    a,
		limiter: newLimiter(opt.TenantRate, opt.TenantBurst),
		tmet:    newTenantMetrics(),
		mux:     http.NewServeMux(),
		opt:     opt,
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /v1/datasets", s.handleDatasetsList)
	s.mux.HandleFunc("POST /v1/datasets", s.handleDatasetsUpload)
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobDelete)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/results/{id}", s.handleResult)
	return s, nil
}

// Shutdown drains the service for a graceful stop: new compute
// submissions fail (503 shutting_down), jobs still in the queue finish
// as cancelled, and jobs already running get until ctx's deadline to
// complete — past it their contexts are cancelled and Shutdown waits
// for them to land in cancelled, which cooperative computations do
// within one chunk or grid point. The disk cache tier is flushed before
// returning. The counts report what happened to the in-flight work:
// drained jobs finished naturally (their results are cached as usual),
// cancelled jobs were cut short (nothing cached). Also exposed as the
// htdp_shutdown_* metrics.
func (s *Server) Shutdown(ctx context.Context) (drained, cancelled int64) {
	s.sched.close(ctx)
	s.store.flush()
	return s.sched.shutdownCounts()
}

// Close drains the scheduler with no deadline: queued jobs finish as
// cancelled, running jobs complete fully, new submissions fail.
func (s *Server) Close() { s.Shutdown(context.Background()) }

// ReloadTokens re-reads Options.TokensPath and swaps the token table —
// cmd/htdp wires SIGHUP to this, so tokens rotate without a restart. A
// tenant whose every token disappeared has its queued AND running jobs
// cancelled through the same context seam DELETE uses (counted in
// htdp_tenant_cancelled_over_quota_total): revocation reclaims the
// tenant's scheduler share immediately, mid-job, not at its next
// request. A parse error leaves the previous table serving and is
// returned. No-op in NoAuth mode.
func (s *Server) ReloadTokens() error {
	removed, err := s.auth.reload()
	if err != nil {
		return err
	}
	for _, tenant := range removed {
		if n := s.sched.cancelTenant(tenant, errTenantRevoked); n > 0 {
			s.tmet.cancelledOverQuota(tenant, n)
		}
	}
	return nil
}

// authExempt reports whether a path skips the auth middleware:
// liveness and scrape endpoints stay open so load balancers and
// Prometheus need no credentials; everything else resolves to a tenant
// before routing.
func authExempt(path string) bool {
	return path == "/healthz" || path == "/metrics"
}

// rateLimited reports whether a route is admission-controlled by the
// per-tenant token bucket: the POSTs that create work (compute jobs,
// uploads). Reads — job polls, SSE, listings — are metered per tenant
// but never throttled, so a rate-limited tenant can still watch the
// jobs it already has.
func rateLimited(route string) bool {
	return route == "POST /v1/run" || route == "POST /v1/sweep" || route == "POST /v1/datasets"
}

// ServeHTTP resolves the request to a tenant (401 without a known
// token, except on the exempt liveness/scrape paths), applies the
// tenant's rate limit on the work-creating POSTs (429 + Retry-After),
// then dispatches, recording per-route and per-tenant counters and the
// structured access log around the inner mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
	route := normalizeRoute(r)
	tenant := ""
	switch {
	case authExempt(r.URL.Path):
		s.mux.ServeHTTP(rec, r)
	default:
		t, ok := s.auth.resolve(r)
		if !ok {
			writeUnauthorized(rec)
			break
		}
		tenant = t
		s.tmet.request(tenant)
		if rateLimited(route) {
			if ok, retry := s.limiter.allow(tenant); !ok {
				s.tmet.throttle(tenant, throttleRate)
				rec.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retry)))
				writeError(rec, http.StatusTooManyRequests, "rate_limited",
					fmt.Sprintf("tenant %s is over its request rate; retry after the Retry-After delay", tenant))
				break
			}
		}
		s.mux.ServeHTTP(rec, r.WithContext(withTenant(r.Context(), tenant)))
	}
	dur := time.Since(start)
	s.met.observe(route, rec.code, dur)
	s.logAccess(r, route, rec.code, tenant, dur)
}

// writeUnauthorized answers 401 with the Bearer challenge: the front
// door's answer to a missing or unknown token, and the compute path's
// to a token revoked while its request waited.
func writeUnauthorized(w http.ResponseWriter) {
	w.Header().Set("WWW-Authenticate", `Bearer realm="htdp"`)
	writeError(w, http.StatusUnauthorized, "unauthorized",
		"missing or unknown API token (send Authorization: Bearer <token> or X-Htdp-Token: <token>)")
}

// retryAfterSeconds rounds a wait up to whole seconds (minimum 1) for
// the Retry-After header.
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// logAccess emits one JSON line per request to Options.AccessLog (when
// set): the structured request log of the front door. tenant is empty
// for unauthenticated (401) and exempt-path requests.
func (s *Server) logAccess(r *http.Request, route string, status int, tenant string, dur time.Duration) {
	if s.opt.AccessLog == nil {
		return
	}
	line, err := json.Marshal(struct {
		Method string  `json:"method"`
		Path   string  `json:"path"`
		Route  string  `json:"route"`
		Status int     `json:"status"`
		Tenant string  `json:"tenant,omitempty"`
		DurMS  float64 `json:"dur_ms"`
	}{r.Method, r.URL.Path, route, status, tenant, float64(dur.Microseconds()) / 1e3})
	if err != nil { // unreachable: the struct marshals by construction
		return
	}
	s.logMu.Lock()
	s.opt.AccessLog.Write(append(line, '\n'))
	s.logMu.Unlock()
}

// statusRecorder captures the response code for metrics. It forwards
// Flush so the SSE handler can stream through it.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// knownRoutes is the closed set of metrics labels; anything else —
// scanners probing random paths, wrong methods — collapses to "other"
// so the per-route counter maps cannot grow without bound.
var knownRoutes = map[string]bool{
	"GET /healthz":             true,
	"GET /metrics":             true,
	"GET /v1/experiments":      true,
	"GET /v1/datasets":         true,
	"POST /v1/datasets":        true,
	"POST /v1/run":             true,
	"POST /v1/sweep":           true,
	"GET /v1/jobs/{id}":        true,
	"DELETE /v1/jobs/{id}":     true,
	"GET /v1/jobs/{id}/events": true,
	"GET /v1/results/{id}":     true,
}

// normalizeRoute maps a request to its bounded metrics label: path
// parameters collapse, and unknown routes share one label, so
// cardinality stays fixed.
func normalizeRoute(r *http.Request) string {
	path := r.URL.Path
	switch {
	case strings.HasPrefix(path, "/v1/jobs/") && strings.HasSuffix(path, "/events"):
		path = "/v1/jobs/{id}/events"
	case strings.HasPrefix(path, "/v1/jobs/"):
		path = "/v1/jobs/{id}"
	case strings.HasPrefix(path, "/v1/results/"):
		path = "/v1/results/{id}"
	}
	label := r.Method + " " + path
	if !knownRoutes[label] {
		return "other"
	}
	return label
}

// errorBody is the uniform error envelope of every non-2xx response.
type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	var body errorBody
	body.Error.Code, body.Error.Message = code, msg
	writeJSON(w, status, body)
}

// writeJSON marshals a non-cached document (errors, jobs, listings).
// Cached byte replies bypass it so their bytes stay exact.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil { // unreachable: all documents marshal by construction
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

// writeResult serves exact result bytes (already newline-terminated)
// with the cache-disposition header: "hit" (memory tier), "disk"
// (durable tier), "miss" (computed by this request), or "coalesced"
// (computed once by a concurrent identical request — singleflight).
// The body bytes are identical in all four cases; the header is the
// only observable difference.
func writeResult(w http.ResponseWriter, body []byte, tier string) {
	w.Header().Set("X-Htdp-Cache", tier)
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// decodeJSON strictly decodes a request body: unknown fields and
// trailing garbage are errors, so typos fail loudly instead of
// silently running defaults.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("request body has trailing data")
	}
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte("{\"status\":\"ok\"}\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	jobs, expired := s.sched.counts()
	drained, cancelled := s.sched.shutdownCounts()
	var ts tenantStats
	ts.requests, ts.throttled, ts.cancelled = s.tmet.snapshot()
	ts.queued, ts.running = s.sched.tenantCounts()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.write(w, s.store.stats(), s.sched.coalescedCount(), jobs, expired, len(s.pool.List()), s.pool.ResidentBytes(), drained, cancelled, ts)
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		ID          string `json:"id"`
		Description string `json:"description"`
	}
	list := struct {
		Experiments []entry `json:"experiments"`
	}{Experiments: []entry{}}
	for _, spec := range experiments.Registry() {
		list.Experiments = append(list.Experiments, entry{ID: spec.ID, Description: spec.Description})
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleDatasetsList(w http.ResponseWriter, r *http.Request) {
	list := struct {
		Datasets []data.PoolEntry `json:"datasets"`
	}{Datasets: s.pool.List()}
	writeJSON(w, http.StatusOK, list)
}

// handleDatasetsUpload registers the CSV request body as an in-memory
// pooled dataset: ?name= (required), ?labelcol= (default -1),
// ?header= (default false). Uploads materialize in memory and are
// bounded by Options.MaxUploadBytes; larger datasets should be
// registered as CSV paths at startup (cmd/htdp -serve -dataset
// name=path), which the pool decodes once into memory while the rows
// fit its 256 MiB budget and streams from disk beyond it.
func (s *Server) handleDatasetsUpload(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "query parameter name is required")
		return
	}
	labelCol := -1
	if v := r.URL.Query().Get("labelcol"); v != "" {
		lc, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "labelcol: "+err.Error())
			return
		}
		labelCol = lc
	}
	header := false
	if v := r.URL.Query().Get("header"); v != "" {
		h, err := strconv.ParseBool(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "header: "+err.Error())
			return
		}
		header = h
	}
	body := http.MaxBytesReader(w, r.Body, s.opt.MaxUploadBytes)
	ds, err := data.ReadCSV(body, name, labelCol, header)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "too_large",
				fmt.Sprintf("upload exceeds %d bytes; register large datasets as CSV paths at startup instead", tooLarge.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	entry, err := s.pool.RegisterMem(name, ds)
	if err != nil {
		writeError(w, http.StatusConflict, "conflict", err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, struct {
		Dataset data.PoolEntry `json:"dataset"`
	}{Dataset: entry})
}

// handleRun answers POST /v1/run: canonicalize, consult the cache,
// otherwise schedule the run on a pooled source handle. Sync requests
// block for the result; async ones get a 202 job handle resolvable via
// /v1/jobs and /v1/results. Response bytes for one canonical request
// are identical in all four paths (sync/async × cached/computed).
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var q RunRequest
	if err := decodeJSON(r, &q); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	canon, err := q.Canonical()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	entry, err := s.pool.Lookup(canon.Dataset)
	if err != nil {
		writeError(w, http.StatusNotFound, "not_found", err.Error())
		return
	}
	// Delta is the one default Canonical cannot resolve alone — it
	// depends on the dataset's n. Resolve it here so a defaulted and an
	// explicit-δ request share one cache entry; ExecuteRun computes the
	// identical value for direct callers.
	if canon.Delta == 0 {
		canon.Delta = math.Pow(float64(entry.N), -1.1)
	}
	key := cacheKey("run", canon)
	exec := canon
	exec.Parallelism = q.Parallelism
	s.serveCachedOrRun(w, r, key, q.Async, "run", s.jobTimeout(q.TimeoutMS), func(ctx context.Context, _ func(experiments.Progress)) ([]byte, error) {
		src, err := s.pool.Acquire(exec.Dataset)
		if err != nil {
			return nil, err
		}
		defer src.Close()
		res, err := ExecuteRun(ctx, src, exec)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	})
}

// handleSweep answers POST /v1/sweep: the experiment registry behind
// cmd/htdp -run, per request. The optional dataset field feeds the
// source-streaming experiments from a pooled dataset — Acquire ignores
// the trial seed, so each batched trial reads the data once for its
// whole grid — and is rejected (400) for experiments that would
// silently ignore it. A trial failure mid-sweep (bad CSV, vanished
// file) fails only that job: the response is 422 sweep_failed and the
// server keeps serving (see OPERATIONS.md).
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var q experiments.SweepRequest
	if err := decodeJSON(r, &q); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if q.Experiment == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "experiment is required")
		return
	}
	if _, err := experiments.Lookup(q.Experiment); err != nil {
		writeError(w, http.StatusNotFound, "not_found", err.Error())
		return
	}
	canon, err := q.Canonical()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	var open func(seed int64) (data.Source, error)
	if canon.Dataset != "" {
		if _, err := s.pool.Lookup(canon.Dataset); err != nil {
			writeError(w, http.StatusNotFound, "not_found", err.Error())
			return
		}
		name := canon.Dataset
		open = func(int64) (data.Source, error) { return s.pool.Acquire(name) }
	}
	key := cacheKey("sweep", canon)
	exec := canon
	exec.Parallelism = q.Parallelism
	s.serveCachedOrRun(w, r, key, q.Async, "sweep", s.jobTimeout(q.TimeoutMS), func(ctx context.Context, progress func(experiments.Progress)) ([]byte, error) {
		panels, err := experiments.RunSweep(ctx, exec, open, progress)
		if err != nil {
			return nil, err
		}
		return json.Marshal(struct {
			Experiment string              `json:"experiment"`
			Panels     []experiments.Panel `json:"panels"`
		}{Experiment: exec.Experiment, Panels: panels})
	})
}

// jobTimeout resolves the effective execution deadline of one compute
// job: the request's timeout_ms when set, capped by the server-wide
// Options.RunTimeout when that is set — a request can tighten the
// server's bound, never loosen it. Zero means no deadline.
func (s *Server) jobTimeout(reqMS int64) time.Duration {
	req := time.Duration(reqMS) * time.Millisecond
	switch {
	case req <= 0:
		return s.opt.RunTimeout
	case s.opt.RunTimeout > 0 && s.opt.RunTimeout < req:
		return s.opt.RunTimeout
	default:
		return req
	}
}

// serveCachedOrRun is the shared store-then-schedule tail of the two
// compute endpoints: consult the result store (memory, then disk),
// otherwise submit the key to the scheduler, which either joins the
// request to the unfinished job already computing the key (header
// "coalesced") or schedules the one job for it ("miss"). The cache key
// excludes tenancy on purpose, so identical requests from different
// tenants share one entry and one job — a joiner from another tenant is
// attached to the job for visibility. compute returns the result
// document WITHOUT the trailing newline; the newline is appended once
// here so cached and fresh responses share exact bytes. It receives the
// job's context (carrying DELETE cancellation, the timeout deadline,
// and shutdown) and a progress sink feeding the job's progress field
// and SSE stream (runs ignore the sink).
func (s *Server) serveCachedOrRun(w http.ResponseWriter, r *http.Request, key string, async bool, kind string, timeout time.Duration, compute func(ctx context.Context, progress func(experiments.Progress)) ([]byte, error)) {
	tenant := tenantFrom(r.Context())
	// The loop has exactly two causes, both re-entering as a fresh
	// lookup: errStored (a previous job stored the bytes between our
	// store miss and submit — serve them, do not recompute), and a job
	// cancelled under this waiting request by someone else (its owner's
	// DELETE, a revocation — compute afresh). Each retry requires
	// another concurrent completion or cancellation, so the bound is
	// never reached in practice.
	lookup := s.store.get
	for attempt := 0; attempt < 3; attempt++ {
		if b, tier, ok := lookup(key); ok {
			s.serveStored(w, b, tier, async, kind, tenant)
			return
		}
		// Later iterations must not double-count the one logical miss.
		lookup = s.store.recheck
		work := func(ctx context.Context, j *job) ([]byte, error) {
			b, err := compute(ctx, j.setProgress)
			if err != nil {
				return nil, err
			}
			b = append(b, '\n')
			// Only reached when compute succeeded. A cancelled or timed-out
			// compute errors out above, so a job that lands in cancelled (or
			// 504) never caches anything; a compute that raced its
			// cancellation to completion produced full, valid bytes and
			// finishes as done — caching those is correct. The scheduler
			// releases the key only after this put, so a later request finds
			// the job or the bytes, never neither.
			s.store.put(key, b)
			return b, nil
		}
		j, joined, err := s.sched.submit(kind, key, tenant, s.auth.weightOf(tenant), timeout, work)
		switch {
		case err == nil:
		case errors.Is(err, errStored):
			continue
		case errors.Is(err, errQueueFull):
			writeError(w, http.StatusServiceUnavailable, "queue_full", "job queue is full; retry later")
			return
		case errors.Is(err, errTenantQueueFull):
			s.tmet.throttle(tenant, throttleQuota)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "quota_exceeded",
				fmt.Sprintf("tenant %s has %d jobs queued, its quota; wait for one to finish or cancel one", tenant, s.opt.TenantQueue))
			return
		default:
			writeError(w, http.StatusServiceUnavailable, "shutting_down", err.Error())
			return
		}
		tier := "miss"
		if joined {
			tier = "coalesced"
		}
		if s.awaitJob(w, j, async, kind, tier) {
			return
		}
		// The job was cancelled. If it was this request's own token that
		// was revoked meanwhile, stop here: recomputing would bill a
		// departed tenant.
		if t, ok := s.auth.resolve(r); !ok || t != tenant {
			writeUnauthorized(w)
			return
		}
	}
	writeError(w, http.StatusConflict, "cancelled",
		"the job computing this request kept being cancelled; re-submit")
}

// serveStored answers a compute request from already-stored bytes:
// directly for sync callers, as an immediately-done job for async ones.
// Both carry the cache disposition — an async 202 for a stored result
// names its tier ("hit" or "disk") exactly like the sync response, so
// callers can tell a served-from-cache job from a scheduled one.
func (s *Server) serveStored(w http.ResponseWriter, b []byte, tier string, async bool, kind, tenant string) {
	if async {
		j, err := s.sched.completed(kind, tenant, b)
		if err != nil {
			writeError(w, http.StatusServiceUnavailable, "shutting_down", err.Error())
			return
		}
		w.Header().Set("X-Htdp-Cache", tier)
		writeJSON(w, http.StatusAccepted, j.status())
		return
	}
	writeResult(w, b, tier)
}

// awaitJob finishes a compute request against its (possibly shared)
// job: async callers get the job handle immediately; sync callers wait
// and receive the exact result bytes under the given cache-disposition
// tier ("miss" for the job's submitter, "coalesced" for joiners). It
// reports false — response unwritten — when the job turns out
// cancelled (a sync request waiting on a job its owner deleted or whose
// tenant was revoked); the caller retries the whole miss path so the
// requester gets a computation, not someone else's cancellation.
func (s *Server) awaitJob(w http.ResponseWriter, j *job, async bool, kind, tier string) bool {
	if async {
		st := j.status()
		if st.Status == jobCancelled {
			return false
		}
		if tier == "coalesced" {
			// Async followers answer with the leader's job document,
			// which has no header of its own; expose the coalescing
			// here instead.
			w.Header().Set("X-Htdp-Cache", tier)
		}
		writeJSON(w, http.StatusAccepted, st)
		return true
	}
	j.wait()
	st := j.status()
	switch st.Status {
	case jobFailed:
		if j.deadlineExceeded() {
			writeError(w, http.StatusGatewayTimeout, "deadline_exceeded", st.Error)
		} else {
			writeError(w, http.StatusUnprocessableEntity, kind+"_failed", st.Error)
		}
	case jobCancelled:
		return false
	default:
		writeResult(w, j.resultBytes(), tier)
	}
	return true
}

// lookupJob resolves {id} to a job the requesting tenant may observe.
// An existing job belonging to someone else answers the same 404 as an
// unknown id — job ids are not probeable across tenants.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*job, bool) {
	j, ok := s.sched.get(r.PathValue("id"))
	if !ok || !j.visibleTo(tenantFrom(r.Context())) {
		writeError(w, http.StatusNotFound, "not_found", "unknown job "+r.PathValue("id"))
		return nil, false
	}
	return j, true
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleJobDelete answers DELETE /v1/jobs/{id}: cancel a queued or
// running job. A queued job lands in cancelled immediately (200); a
// running job has its context cancelled and the response is 202 with
// the job still running — the worker observes the cancel within one
// grid point or chunk read and lands the job in cancelled, nothing is
// cached, and the partial work is discarded (poll /v1/jobs or subscribe
// to /events for the terminal state). Finished jobs have nothing to
// cancel — 409. The cancelled job releases its cache key at once, so the
// next identical request recomputes instead of joining a dead job. Only
// the submitting tenant may cancel: an
// attached follower (whose identical request coalesced onto this job)
// can watch it but gets 403 here — cancelling would discard another
// tenant's computation too.
func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	if !j.ownedBy(tenantFrom(r.Context())) {
		writeError(w, http.StatusForbidden, "forbidden",
			fmt.Sprintf("job %s was submitted by another tenant; only its submitter may cancel it", j.id))
		return
	}
	pending, err := s.sched.cancel(j)
	if err != nil {
		writeError(w, http.StatusConflict, "not_cancellable",
			fmt.Sprintf("job %s is %s; it already finished", j.id, j.status().Status))
		return
	}
	if pending {
		writeJSON(w, http.StatusAccepted, j.status())
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	switch st := j.status(); st.Status {
	case jobDone:
		writeResult(w, j.resultBytes(), "hit")
	case jobFailed:
		if j.deadlineExceeded() {
			writeError(w, http.StatusGatewayTimeout, "deadline_exceeded", st.Error)
			return
		}
		writeError(w, http.StatusUnprocessableEntity, st.Kind+"_failed", st.Error)
	case jobCancelled:
		writeError(w, http.StatusGone, "cancelled",
			fmt.Sprintf("job %s was cancelled (%s); re-submit the request", st.ID, st.Error))
	default:
		writeError(w, http.StatusConflict, "not_finished",
			fmt.Sprintf("job %s is %s; poll /v1/jobs/%s", st.ID, st.Status, st.ID))
	}
}
