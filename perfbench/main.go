// Command perfbench is the repository benchmark. It builds cmd/htdp,
// boots the real `-serve` binary with a generated token file, datasets
// and a -cachedir, and drives it over loopback with one of three seeded
// traffic mixes:
//
//   - cold-runs: closed loop of fresh-seed runs, every one a cache miss
//     that computes (core, kernels and the data layer do the work);
//   - hot-cache: open-loop Zipf reads of a warmed key set larger than
//     the memory tier, plus coalesced fresh keys (the front door and
//     the result store do the work);
//   - sweep-storm: one tenant's burst of sweeps, capped at one running
//     job and followed over SSE, beside an open loop of interactive runs
//     (the sweep engine and in-memory generation do the work).
//
// With -trace 1 it then replays the workload in process with a span
// around every layer's public entry point, to attribute the time.
//
// Usage, from the repository root (-workload all runs the three in turn):
//
//	bash perfbench/run.sh --workload cold-runs --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the end-to-end metrics (-trace 0) or the
// per-layer metrics (-trace 1). Every output is checked byte for byte;
// a mismatch prints correct=false and exits 1. A run whose generator
// fell behind, or whose p90 lacks ten samples beyond it, is invalid: it
// prints its report but no result line and exits 3. Everything the run
// writes stays under .bench_build: inputs, server logs, and in log/ the
// per-request records, the spans and the full result of each workload.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"htdp/internal/vecmath"
)

// setupReps is how many times a run sets the server up; setup_s is the
// median.
const setupReps = 9

// Latency percentiles are the median over consecutive groups of at
// least latencyGroup samples (at most latencyGroups groups), so each
// group's p90 has ten samples beyond it.
const (
	latencyGroup  = 100
	latencyGroups = 20
)

// lagLimit marks a run invalid: past it the generator itself, not the
// server, delayed the requests.
const lagLimit = 20 * time.Millisecond

// Bench is one benchmark run.
type Bench struct {
	W       Workload
	In      *Inputs
	Seconds time.Duration
	Nproc   int
	Trace   bool
	Root    string
	seed    int64
	Out     string // build and run outputs, under the repository root
	RunDir  string
	Bin     string
	hotWarm [][]byte
}

// Metric is one reported figure with its sample count.
type Metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
	Note  string  `json:"note,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "cold-runs, hot-cache or sweep-storm")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1 = also replay in process and report per-layer metrics")
	root := fs.String("root", ".", "repository root")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *name == "all" {
		// Every workload in turn, each with its own report and result line.
		code := 0
		for _, w := range workloads {
			one := []string{"-workload", w.Name, "-seed", itoa(int(*seed)), "-seconds", itoa(*seconds), "-trace", itoa(*trace), "-root", *root}
			code = max(code, run(one, stdout, stderr))
		}
		return code
	}
	b := &Bench{Seconds: time.Duration(*seconds) * time.Second, Trace: *trace == 1, Nproc: runtime.NumCPU(), seed: *seed}
	for _, w := range workloads {
		if w.Name == *name {
			b.W = w
		}
	}
	if b.W.Name == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want -workload cold-runs|hot-cache|sweep-storm|all, -seconds ≥ 1, -trace 0|1\n")
		return 2
	}
	// The generator uses no more threads than there are CPUs; the
	// server is pinned to the same count through its environment,
	// because GOMAXPROCS ignores CPU quotas before Go 1.25.
	runtime.GOMAXPROCS(b.Nproc)
	var err error
	if b.Root, err = filepath.Abs(*root); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b.Out = filepath.Join(b.Root, ".bench_build")
	b.RunDir = filepath.Join(b.Out, "run", b.W.Name)
	b.Bin = filepath.Join(b.Out, "htdp")
	build := exec.Command("go", "build", "-o", b.Bin, "./cmd/htdp")
	build.Dir, build.Stdout, build.Stderr = b.Root, stderr, stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(stderr, "perfbench: building cmd/htdp:", err)
		return 1
	}
	// SIGINT and SIGTERM cancel the run; the server is stopped on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, 160*time.Second)
	defer cancel()
	res, err := b.Execute(ctx)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return res.Print(stdout, stderr, b)
}

// Result is everything a run reports.
type Result struct {
	Correct    bool
	Attempted  int
	Failed     int
	EndToEnd   []Metric
	Extra      []Metric // reported, not part of the JSON line
	PerLayer   []Metric
	Setups     []float64
	Mismatches []string
	Invalid    []string
	Attrib     []string
}

// Execute generates the inputs, sets the server up setupReps times,
// measures the window on the last instance, checks a sample of outputs
// in process, and with tracing on replays the workload.
func (b *Bench) Execute(ctx context.Context) (*Result, error) {
	if err := os.RemoveAll(b.RunDir); err != nil {
		return nil, err
	}
	in, err := WriteInputs(b.RunDir, b.seed)
	if err != nil {
		return nil, err
	}
	b.In = in
	if err := WriteSchedule(filepath.Join(b.RunDir, "schedule.jsonl"), in.Seed, b.Seconds); err != nil {
		return nil, err
	}
	res := &Result{}
	var srv *Server
	for k := 0; k < setupReps; k++ {
		dir := filepath.Join(b.RunDir, "cache-"+itoa(k))
		s, d, err := StartServer(b.Bin, b.W.Args(in, dir), b.Nproc, filepath.Join(b.RunDir, "server-"+itoa(k)+".log"))
		if err != nil {
			return nil, err
		}
		if b.W.Warm != nil {
			t := time.Now()
			if err := b.W.Warm(ctx, b, s); err != nil {
				s.Stop()
				return nil, err
			}
			d += time.Since(t)
		}
		res.Setups = append(res.Setups, d.Seconds())
		if k < setupReps-1 {
			s.Stop()
			continue
		}
		srv = s
	}
	s0, err4 := ReadSteal()
	p0, err0 := ReadProc(srv.Pid())
	m0, err1 := Scrape(ctx, srv.Base)
	win := b.W.Run(ctx, b, srv)
	p1, err2 := ReadProc(srv.Pid())
	m1, err3 := Scrape(ctx, srv.Base)
	s1, err5 := ReadSteal()
	srv.Stop()
	if err := errors.Join(err0, err1, err2, err3, err4, err5); err != nil {
		return nil, fmt.Errorf("reading server counters: %w", err)
	}
	os.MkdirAll(filepath.Join(b.Out, "log"), 0o755)
	os.WriteFile(filepath.Join(b.Out, "log", b.W.Name+".requests.jsonl"), encodeRecords(win.Records), 0o644)

	res.Attempted = len(win.Records)
	var lags []float64
	for i := range win.Records {
		r := &win.Records[i]
		if !r.OK() {
			res.Failed++
		}
		lags = append(lags, r.LagMS)
	}
	res.Mismatches = append(res.Mismatches, win.Mismatches...)
	res.EndToEnd, res.Extra = b.endToEnd(win, p0, p1, res)
	res.Extra = append(res.Extra, Metric{Name: "host_steal_pct", Unit: "%", Value: s1.Since(s0), N: 1,
		Note: "CPU time the hypervisor gave other guests during the window; wall-clock figures move with it"})
	lag, _ := Percentile(lags, 99)
	if lag > float64(lagLimit)/1e6 {
		res.Invalid = append(res.Invalid, fmt.Sprintf("generator lag p99 %.1f ms exceeds %s", lag, lagLimit))
	}

	pool, err := NewPool(in)
	if err != nil {
		return nil, err
	}
	res.Mismatches = append(res.Mismatches, b.verifySample(ctx, pool, win)...)
	pool.Close()

	if b.Trace {
		layers, attrib, mism, err := b.traced(ctx, win, m0, m1, lag)
		if err != nil {
			return nil, err
		}
		res.PerLayer, res.Attrib = layers, attrib
		res.Mismatches = append(res.Mismatches, mism...)
	}
	res.Correct = len(res.Mismatches) == 0
	return res, nil
}

// endToEnd derives the end-to-end metrics from the window and the
// server's counters. The tail percentiles are reported, not put in the
// result line: on a shared host they follow the hypervisor's steal time
// more than the program.
func (b *Bench) endToEnd(w *Window, p0, p1 ProcStats, res *Result) (e2e, extra []Metric) {
	n := len(w.Latency)
	p50, groups, _ := WindowedPercentile(w.Latency, 50, latencyGroup, latencyGroups)
	p90, _, ok90 := WindowedPercentile(w.Latency, 90, latencyGroup, latencyGroups)
	if !ok90 {
		res.Invalid = append(res.Invalid, fmt.Sprintf("latency_p90_ms has n=%d, under ten samples beyond it", n))
	}
	grouped := fmt.Sprintf("median over %d groups of ≥%d consecutive requests", groups, min(n, latencyGroup))
	window := w.Elapsed
	class := "completed sync runs"
	switch b.W.Name {
	case "hot-cache":
		class = "completed reads"
	case "sweep-storm":
		window, class = w.Makespan, "sweeps completed over the burst's makespan"
	}
	e2e = []Metric{
		{Name: "throughput_rps", Unit: "req/s", Value: float64(w.Primary) / window.Seconds(), N: w.Primary, Note: class},
		{Name: "latency_p50_ms", Unit: "ms", Value: p50, N: n, Note: grouped},
		{Name: "cpu_ms_per_op", Unit: "ms", Value: float64(p1.CPU-p0.CPU) / 1e6 / float64(max(w.Ops, 1)), N: w.Ops, Note: "server utime+stime over the window"},
		{Name: "rss_peak_mb", Unit: "MB", Value: float64(p1.HWMKiB) / 1024, N: 1, Note: "server VmHWM"},
		{Name: "setup_s", Unit: "s", Value: vecmath.Median(res.Setups), N: len(res.Setups), Note: "median of the set-ups"},
	}
	errs := 0
	for i := range w.Records {
		if !w.Records[i].OK() {
			errs++
		}
	}
	extra = []Metric{
		{Name: "latency_p90_ms", Unit: "ms", Value: p90, N: n, Note: grouped},
		{Name: "error_ratio", Unit: "fraction", Value: float64(errs) / float64(max(len(w.Records), 1)), N: len(w.Records)},
		{Name: "window_s", Unit: "s", Value: window.Seconds(), N: 1},
	}
	if b.W.Name == "sweep-storm" {
		extra = append(extra, Metric{Name: "sweeps_per_min", Unit: "1/min", Value: float64(w.Primary) / window.Minutes(), N: w.Primary})
	}
	all90, _ := Percentile(w.Latency, 90)
	extra = append(extra, Metric{Name: "latency_p90_all_ms", Unit: "ms", Value: all90, N: n, Note: "over the whole window"})
	if p99, ok := Percentile(w.Latency, 99); ok {
		extra = append(extra, Metric{Name: "latency_p99_ms", Unit: "ms", Value: p99, N: n, Note: "over the whole window"})
	}
	return e2e, extra
}

// Print writes the report and the JSON line, and returns the exit code.
func (r *Result) Print(stdout, stderr io.Writer, b *Bench) int {
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%t nproc=%d server_GOMAXPROCS=%d generator_GOMAXPROCS=%d go=%s\n",
		b.W.Name, b.In.Seed, int(b.Seconds.Seconds()), b.Trace, b.Nproc, b.Nproc, runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(stdout, "why: %s\n", b.W.Why)
	fmt.Fprintf(stdout, "attempted=%d failed=%d setups_s=%v\n", r.Attempted, r.Failed, fmtFloats(r.Setups))
	for _, m := range append(append([]Metric(nil), r.EndToEnd...), r.Extra...) {
		printMetric(stdout, "e2e", m)
	}
	for _, line := range r.Attrib {
		fmt.Fprintln(stdout, line)
	}
	for _, m := range r.PerLayer {
		printMetric(stdout, "layer", m)
	}
	for _, s := range r.Mismatches {
		fmt.Fprintln(stdout, "MISMATCH:", s)
	}
	r.record(b)
	if len(r.Invalid) > 0 {
		for _, s := range r.Invalid {
			fmt.Fprintln(stderr, "perfbench: invalid run:", s)
		}
		return 3
	}
	metrics := r.EndToEnd
	if b.Trace {
		metrics = r.PerLayer
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]jsonMetricType `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]jsonMetricType{}}
	for _, m := range metrics {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 1e12 // no sample, or a failed request at the percentile
		}
		out.Metrics[m.Name] = jsonMetricType{Value: v, Unit: m.Unit}
	}
	line, _ := json.Marshal(out)
	fmt.Fprintln(stdout, string(line))
	if !r.Correct {
		return 1
	}
	return 0
}

// record writes the whole result, with the run's environment, to
// .bench_build/log/<workload>.result.json.
func (r *Result) record(b *Bench) {
	all := append(append(append([]Metric(nil), r.EndToEnd...), r.Extra...), r.PerLayer...)
	for i := range all {
		if math.IsNaN(all[i].Value) || math.IsInf(all[i].Value, 0) {
			all[i].Value = -1 // JSON has no NaN; n tells the two apart
		}
	}
	doc, err := json.MarshalIndent(struct {
		Workload            string    `json:"workload"`
		Seed                int64     `json:"seed"`
		Seconds             int       `json:"seconds"`
		Trace               bool      `json:"trace"`
		Nproc               int       `json:"nproc"`
		ServerGOMAXPROCS    int       `json:"server_gomaxprocs"`
		GeneratorGOMAXPROCS int       `json:"generator_gomaxprocs"`
		GoVersion           string    `json:"go_version"`
		Correct             bool      `json:"correct"`
		Attempted           int       `json:"attempted"`
		Failed              int       `json:"failed"`
		SetupsS             []float64 `json:"setups_s"`
		Metrics             []Metric  `json:"metrics"`
		Mismatches          []string  `json:"mismatches,omitempty"`
		Invalid             []string  `json:"invalid,omitempty"`
		Attribution         []string  `json:"attribution,omitempty"`
	}{b.W.Name, b.In.Seed, int(b.Seconds.Seconds()), b.Trace, b.Nproc, b.Nproc, runtime.GOMAXPROCS(0), runtime.Version(),
		len(r.Mismatches) == 0, r.Attempted, r.Failed, r.Setups, all, r.Mismatches, r.Invalid, r.Attrib}, "", "  ")
	if err == nil {
		os.WriteFile(filepath.Join(b.Out, "log", b.W.Name+".result.json"), append(doc, '\n'), 0o644)
	}
}

type jsonMetricType struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printMetric(w io.Writer, kind string, m Metric) {
	note := ""
	if m.Note != "" {
		note = "  # " + m.Note
	}
	fmt.Fprintf(w, "%-5s %-36s %14.6g %-8s n=%d%s\n", kind, m.Name, m.Value, m.Unit, m.N, note)
}

func fmtFloats(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return "[" + strings.Join(s, " ") + "]"
}

func itoa(v int) string { return strconv.Itoa(v) }
