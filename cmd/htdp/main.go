// Command htdp regenerates the paper's evaluation: every figure of §6
// (Figures 1–11), the Theorem 9 lower-bound check, and the ablations,
// as text tables or CSV. It can also stream a numeric CSV out of core
// and run one of the paper's algorithms on it with peak memory bounded
// by a single chunk instead of the full n×d matrix, or serve the whole
// surface as a concurrent HTTP JSON API (see API.md).
//
// Usage:
//
//	htdp -list
//	htdp -run fig1                 # quick run (Reps=5, Scale=0.1)
//	htdp -run all -reps 20 -scale 1  # the paper's protocol
//	htdp -run fig7 -csv -o fig7.csv
//
//	htdp -stream big.csv -algo fw -eps 1      # out-of-core DP-FW
//	htdp -stream big.csv -algo lasso          # out-of-core LASSO
//	htdp -run streaming -stream big.csv       # the streaming sweep on a CSV
//
//	htdp -serve :8080 -noauth                 # the estimation service (dev mode)
//	htdp -serve :8080 -tokens tokens.txt      # ... with tenant auth (required outside -noauth)
//	htdp -serve :8080 -noauth -dataset year=year.csv  # ... with a pooled CSV
//
// Performance tooling:
//
//	htdp -benchjson BENCH_new.json                 # record the perf trajectory
//	htdp -benchjson BENCH_ci.json -benchcmp BENCH_pr3.json  # record + gate vs baseline
//	htdp -run fig1 -cpuprofile cpu.pprof           # profile any mode
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"htdp/internal/benchio"
	"htdp/internal/data"
	"htdp/internal/experiments"
	"htdp/internal/randx"
	"htdp/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "htdp:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("htdp", flag.ContinueOnError)
	var (
		list   = fs.Bool("list", false, "list available experiments and exit")
		runID  = fs.String("run", "", "experiment ID to run, or \"all\"")
		reps   = fs.Int("reps", 5, "trials averaged per point (paper: 20)")
		scale  = fs.Float64("scale", 0.1, "sample-size scale relative to the paper (paper: 1)")
		seed   = fs.Int64("seed", 1, "base random seed (0 is treated as 1, in every mode)")
		par    = fs.Int("parallel", 0, "trial-level worker count (0 = all cores, 1 = sequential); results are identical at any setting")
		csv    = fs.Bool("csv", false, "emit CSV instead of tables")
		shapes = fs.Bool("shapes", false, "append a qualitative shape report per experiment")
		out    = fs.String("o", "", "write output to this file instead of stdout")

		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file (any mode; diagnose hot-path regressions without editing code)")
		memprofile = fs.String("memprofile", "", "write an allocation profile to this file on exit")

		benchjson   = fs.String("benchjson", "", "run the benchio suite and write the BENCH_*.json perf-trajectory artifact here")
		benchcmp    = fs.String("benchcmp", "", "baseline BENCH_*.json to gate the -benchjson run against (exit 1 on regression)")
		benchtol    = fs.Float64("benchtol", 0.25, "slowdown tolerance of the -benchcmp gate (0.25 = fail beyond 25%)")
		benchfilter = fs.String("benchfilter", "", "regexp selecting benchio benchmarks (default: all)")
		benchrounds = fs.Int("benchrounds", 3, "timing rounds per benchmark; the fastest round is kept")

		stream   = fs.String("stream", "", "stream this numeric CSV out of core (peak memory: one chunk, not n×d); runs -algo on it, feeds -run streaming, or joins the -serve pool")
		algo     = fs.String("algo", "fw", "algorithm for -stream: fw, lasso, iht, sparseopt, or dpsgd")
		eps      = fs.Float64("eps", 1, "privacy budget ε for -stream (0 is treated as 1)")
		delta    = fs.Float64("delta", 0, "privacy δ for -stream (0 → n^-1.1)")
		iters    = fs.Int("T", 0, "iteration count for -stream (0 → each algorithm's theory default)")
		sstar    = fs.Int("sstar", 10, "target sparsity s* for -algo iht/sparseopt")
		batch    = fs.Int("batch", 0, "minibatch size for -algo dpsgd (0 → n/50)")
		clip     = fs.Float64("clip", 0, "per-sample ℓ2 clip bound for -algo dpsgd (0 → 1)")
		lr       = fs.Float64("lr", 0, "step size for -algo dpsgd (0 → 0.1)")
		acct     = fs.String("accountant", "", "noise accountant for -algo dpsgd: compose (default) or rdp")
		labelCol = fs.Int("labelcol", -1, "label column of the -stream CSV (negative counts from the end)")
		header   = fs.Bool("header", false, "the -stream CSV has a header row")

		serveAddr    = fs.String("serve", "", "serve the HTTP JSON API on this address (e.g. :8080); see API.md and OPERATIONS.md")
		workers      = fs.Int("workers", 0, "-serve job workers (0 = all cores)")
		queue        = fs.Int("queue", 0, "-serve job queue depth (0 = 64); beyond it requests get 503")
		cachemem     = fs.Int64("cachemem", 0, "-serve in-memory result-cache bound in bytes (0 = 64 MiB)")
		cachedir     = fs.String("cachedir", "", "-serve durable result-cache directory; results survive restarts bit-identically (empty = memory only)")
		cachedisk    = fs.Int64("cachedisk", 0, "-serve -cachedir size bound in bytes (0 = 1 GiB)")
		jobttl       = fs.Duration("jobttl", 0, "-serve finished-job retention age (e.g. 30m; 0 = count-bounded only)")
		runtimeout   = fs.Duration("runtimeout", 0, "-serve per-job execution deadline (e.g. 5m; 0 = none); past it a job fails with 504 deadline_exceeded")
		draintimeout = fs.Duration("draintimeout", 30*time.Second, "-serve graceful-shutdown drain window on SIGTERM/SIGINT; running jobs beyond it are cancelled")
		tokens       = fs.String("tokens", "", "-serve token→tenant file (`token tenant [weight]` per line, # comments); required unless -noauth. SIGHUP reloads it")
		noauth       = fs.Bool("noauth", false, "-serve without authentication: every request is the shared \"anonymous\" tenant (dev mode)")
		tenantrate   = fs.Float64("tenantrate", 0, "-serve per-tenant rate limit on work-creating POSTs, requests/sec (0 = off); beyond it 429 rate_limited")
		tenantburst  = fs.Int("tenantburst", 0, "-serve per-tenant burst size of -tenantrate (0 = 1)")
		tenantjobs   = fs.Int("tenantjobs", 0, "-serve cap on one tenant's concurrently running jobs (0 = unlimited)")
		tenantqueue  = fs.Int("tenantqueue", 0, "-serve cap on one tenant's queued jobs (0 = bounded only by -queue); beyond it 429 quota_exceeded")
		accesslog    = fs.Bool("accesslog", false, "-serve structured JSON request log on stderr (method, route, status, tenant, duration)")
		progress     = fs.Bool("progress", false, "print per-panel sweep progress to stderr during -run")
	)
	var datasets []string
	fs.Func("dataset", "register name=path.csv in the -serve pool (repeatable)", func(v string) error {
		if !strings.Contains(v, "=") {
			return fmt.Errorf("want name=path.csv, got %q", v)
		}
		datasets = append(datasets, v)
		return nil
	})
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "htdp: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects before the heap snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "htdp: memprofile:", err)
			}
		}()
	}

	if *benchjson != "" {
		return runBenchJSON(w, *benchjson, *benchcmp, *benchfilter, *benchtol, *benchrounds)
	}
	if *benchcmp != "" {
		return fmt.Errorf("-benchcmp needs -benchjson (record a fresh report to gate)")
	}

	if *serveAddr != "" {
		pool, err := buildServePool(*stream, datasets, *labelCol, *header)
		if err != nil {
			return err
		}
		defer pool.Close()
		opt := serve.Options{
			Workers: *workers, QueueDepth: *queue,
			MemCacheBytes: *cachemem, CacheDir: *cachedir, DiskCacheBytes: *cachedisk,
			JobTTL: *jobttl, RunTimeout: *runtimeout,
			TokensPath: *tokens, NoAuth: *noauth,
			TenantRate: *tenantrate, TenantBurst: *tenantburst,
			TenantJobs: *tenantjobs, TenantQueue: *tenantqueue,
		}
		if *accesslog {
			opt.AccessLog = os.Stderr
		}
		return runServe(w, *serveAddr, pool, opt, *draintimeout)
	}

	if *stream != "" && *runID == "" && !*list {
		return runStream(w, streamOpts{
			path: *stream, algo: *algo, eps: *eps, delta: *delta, T: *iters,
			sstar: *sstar, batch: *batch, clip: *clip, lr: *lr, accountant: *acct,
			labelCol: *labelCol, header: *header,
			seed: *seed, parallel: *par,
		})
	}

	if *list {
		for _, s := range experiments.Registry() {
			fmt.Fprintf(w, "%-18s %s\n", s.ID, s.Description)
		}
		return nil
	}
	if *runID == "" {
		return fmt.Errorf("nothing to do: pass -list or -run <id|all>")
	}

	var specs []experiments.Spec
	if *runID == "all" {
		specs = experiments.Registry()
	} else {
		s, err := experiments.Lookup(*runID)
		if err != nil {
			return err
		}
		specs = []experiments.Spec{s}
	}

	// Ctrl-C mid-run cancels cooperatively: workers stop within one grid
	// point, partial output is discarded, and the error names the signal.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	cfg := experiments.Config{Reps: *reps, Scale: *scale, Seed: *seed, Parallelism: *par, Ctx: ctx}
	if *progress {
		// Progress is observability only (results are bit-identical with
		// or without it) and goes to stderr so -o/-csv output stays clean.
		cfg.Progress = func(p experiments.Progress) {
			fmt.Fprintf(os.Stderr, "htdp: panel %s done (%d/%d)\n", p.Panel, p.Done, p.Total)
		}
	}
	if *stream != "" {
		// Feed the source-streaming experiments from the CSV instead of
		// their default on-demand generator. Index the file once up
		// front; each trial reopens its own handle over the shared
		// index (Reopen is goroutine-safe, sources are not).
		base, err := data.OpenCSV(*stream, filepath.Base(*stream), *labelCol, *header)
		if err != nil {
			return err
		}
		defer base.Close()
		cfg.Source = func(int64) (data.Source, error) { return base.Reopen() }
		// Reopen ignores the seed — the factory is seed-invariant, so a
		// batched trial can read the CSV once for its whole grid.
		cfg.SharedSource = true
	}
	for _, s := range specs {
		start := time.Now()
		panels, err := s.Run(cfg)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", s.ID, err)
		}
		if !*csv {
			fmt.Fprintf(w, "\n### %s — %s (reps=%d scale=%g, %.1fs)\n",
				s.ID, s.Description, *reps, *scale, time.Since(start).Seconds())
		}
		for _, p := range panels {
			var err error
			if *csv {
				err = experiments.WriteCSV(w, p)
			} else {
				err = experiments.WriteTable(w, p)
			}
			if err != nil {
				return err
			}
		}
		if *shapes {
			fmt.Fprintf(w, "\n-- shape report: %s --\n", s.ID)
			experiments.WriteShapeReport(w, experiments.CheckShapes(panels, 0))
		}
	}
	return nil
}

// runBenchJSON records the perf trajectory: run the benchio suite,
// write the BENCH_*.json artifact, and — when a baseline is given —
// fail on any calibration-normalized slowdown beyond tol or any
// zero-alloc kernel that started allocating.
func runBenchJSON(w io.Writer, outPath, baselinePath, filter string, tol float64, rounds int) error {
	rep, err := benchio.Run(filter, rounds, w)
	if err != nil {
		return err
	}
	if err := benchio.WriteFile(outPath, rep); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (%d benchmarks, calib %.0f ns/op, %s %s/%s, GOMAXPROCS=%d)\n",
		outPath, len(rep.Results), rep.CalibNs, rep.GoVersion, rep.GOOS, rep.GOARCH, rep.GOMAXPROCS)
	if baselinePath == "" {
		return nil
	}
	base, err := benchio.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	regs := benchio.Compare(base, rep, tol)
	if len(regs) == 0 {
		fmt.Fprintf(w, "benchmark gate: no regressions beyond %.0f%% against %s\n", tol*100, baselinePath)
		return nil
	}
	for _, r := range regs {
		fmt.Fprintln(w, "REGRESSION:", r)
	}
	return fmt.Errorf("%d benchmark regression(s) beyond %.0f%% against %s", len(regs), tol*100, baselinePath)
}

// streamOpts bundles the -stream mode's flags.
type streamOpts struct {
	path, algo                string
	eps, delta                float64
	T, sstar, batch, labelCol int
	clip, lr                  float64
	accountant                string
	header                    bool
	seed                      int64
	parallel                  int
}

// runStream opens the CSV as an out-of-core source and runs one
// algorithm on it via the exact dispatch the serving layer uses
// (serve.ExecuteRun), so batch and served results are bit-identical by
// construction. Peak residency is one chunk — n/T rows for the
// disjoint-chunk algorithms (fw, iht, sparseopt), StreamRows for the
// per-iteration full-data passes (lasso and the risk evaluation), one
// minibatch plus the row-block cache for dpsgd's random row access —
// plus the 8-bytes-per-row offset index, never the n×d matrix.
// Ctrl-C cancels within one chunk read.
func runStream(w io.Writer, o streamOpts) error {
	start := time.Now()
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	src, err := data.OpenCSV(o.path, filepath.Base(o.path), o.labelCol, o.header)
	if err != nil {
		return err
	}
	defer src.Close()
	n, d := src.N(), src.D()
	fullMB := float64(n) * float64(d) * 8 / (1 << 20)
	fmt.Fprintf(w, "streaming %s: n=%d d=%d (%.1f MB if materialized; row-offset index %.1f MB)\n",
		o.path, n, d, fullMB, float64(8*n)/(1<<20))

	res, err := serve.ExecuteRun(ctx, src, serve.RunRequest{
		Dataset: filepath.Base(o.path), Algo: o.algo,
		Eps: o.eps, Delta: o.delta, T: o.T, SStar: o.sstar,
		Batch: o.batch, Clip: o.clip, LR: o.lr, Accountant: o.accountant,
		Seed: o.seed, Parallelism: o.parallel,
	})
	if err != nil {
		return err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, "algo=%s eps=%g delta=%.3g seed=%d: risk(ŵ)=%.6g risk(0)=%.6g ‖ŵ‖₁=%.4g nnz=%d\n",
		res.Algo, res.Eps, res.Delta, res.Seed, res.Risk, res.RiskZero, res.Norm1, res.NNZ)
	fmt.Fprintf(w, "done in %.1fs; go heap in use %.1f MB (chunk-bounded, not n×d)\n",
		time.Since(start).Seconds(), float64(ms.HeapInuse)/(1<<20))
	return nil
}

// buildServePool assembles the -serve dataset pool: two built-in
// generator-backed demo datasets (so a bare `htdp -serve :8080` answers
// requests immediately), the -stream CSV under its basename, and every
// -dataset name=path CSV. CSV entries are indexed once here and
// decoded by the pool on their first request; past the pool's budget,
// requests share the index through per-request Reopen handles.
func buildServePool(streamPath string, datasets []string, labelCol int, header bool) (*data.SourcePool, error) {
	pool := data.NewSourcePool()
	if _, err := pool.RegisterGen("demo-linear", demoLinearSource()); err != nil {
		return nil, err
	}
	if _, err := pool.RegisterGen("demo-logistic", data.LogisticSource(2, data.LogisticOpt{
		N: 2000, D: 100,
		Feature: randx.LogNormal{Mu: 0, Sigma: 0.8},
	})); err != nil {
		return nil, err
	}
	if streamPath != "" {
		datasets = append(datasets, filepath.Base(streamPath)+"="+streamPath)
	}
	for _, spec := range datasets {
		name, path, _ := strings.Cut(spec, "=")
		if name == "" || path == "" {
			pool.Close()
			return nil, fmt.Errorf("-dataset %q: want name=path.csv", spec)
		}
		if _, err := pool.RegisterCSV(name, path, labelCol, header); err != nil {
			pool.Close()
			return nil, err
		}
	}
	return pool, nil
}

// demoLinearSource is the built-in linear demo dataset — also the
// subject of the CI server smoke test, so its spec is pinned.
func demoLinearSource() *data.GenSource {
	return data.LinearSource(1, data.LinearOpt{
		N: 2000, D: 100,
		Feature: randx.LogNormal{Mu: 0, Sigma: 0.8},
		Noise:   randx.Normal{Mu: 0, Sigma: 0.3},
	})
}

// runServe starts the estimation service and blocks until the listener
// fails or a shutdown signal arrives. The pool, scheduler sizing, the
// two-tier result cache, endpoints, and the determinism/caching
// contract are documented in API.md; OPERATIONS.md is the operator
// runbook (see "Deploys and drains" for the shutdown sequence).
//
// On SIGTERM or SIGINT the server drains gracefully and exits 0: the
// scheduler stops accepting compute work (503 shutting_down), queued
// jobs finish as cancelled, running jobs get up to drainTimeout to
// complete (past it they are cancelled cooperatively), the disk cache
// tier is flushed, and only then does the listener close. A second
// signal during the drain kills the process the default way.
func runServe(w io.Writer, addr string, pool *data.SourcePool, opt serve.Options, drainTimeout time.Duration) error {
	srv, err := serve.New(pool, opt)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		srv.Close()
		return err
	}
	for _, e := range pool.List() {
		fmt.Fprintf(w, "pooled dataset %-16s kind=%-4s n=%-8d d=%d\n", e.Name, e.Kind, e.N, e.D)
	}
	fmt.Fprintf(w, "htdp serving on http://%s (see API.md; GET /healthz, /metrics)\n", ln.Addr())
	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		// WriteTimeout stays zero on purpose: sync sweeps and the SSE
		// progress streams (/v1/jobs/{id}/events) are legitimately
		// long-lived responses; per-job deadlines come from -runtimeout.
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	// SIGHUP rotates the token table in place: the -tokens file is
	// re-read, new tokens serve immediately, and a tenant whose every
	// token disappeared has its queued and running jobs cancelled
	// (OPERATIONS.md, "Multi-tenancy"). A parse error keeps the old
	// table and logs — rotation can never lock everyone out.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			if err := srv.ReloadTokens(); err != nil {
				fmt.Fprintln(os.Stderr, "htdp: token reload failed (previous table still serving):", err)
			} else {
				fmt.Fprintln(os.Stderr, "htdp: token file reloaded")
			}
		}
	}()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err := <-serveErr:
		srv.Close()
		return err
	case <-ctx.Done():
		stopSignals() // restore default signal handling: a second signal kills
	}
	fmt.Fprintf(w, "htdp: shutdown signal; draining in-flight jobs (up to %s)\n", drainTimeout)
	// Drain the scheduler BEFORE closing the listener: handlers blocked
	// on sync jobs unblock as their jobs finish or cancel, while new
	// compute requests are answered 503 shutting_down rather than hung
	// up on. Then give the HTTP layer a short window to finish writing.
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), drainTimeout)
	drained, cancelled := srv.Shutdown(drainCtx)
	cancelDrain()
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	hs.Shutdown(httpCtx)
	cancelHTTP()
	fmt.Fprintf(w, "htdp: drained (%d completed, %d cancelled); bye\n", drained, cancelled)
	return nil
}
