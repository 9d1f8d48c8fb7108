package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"htdp/internal/data"
	"htdp/internal/experiments"
	"htdp/internal/randx"
)

// testCSV materializes a small deterministic dataset and writes it as a
// CSV file, returning the path and the in-memory reference.
func testCSV(t *testing.T, seed int64, n, d int) (string, *data.Dataset) {
	t.Helper()
	gen := data.LinearSource(seed, data.LinearOpt{
		N: n, D: d,
		Feature: randx.LogNormal{Mu: 0, Sigma: 0.8},
		Noise:   randx.Normal{Mu: 0, Sigma: 0.3},
	})
	ref := gen.Materialize()
	var buf bytes.Buffer
	if err := data.WriteCSV(&buf, ref); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "serve.csv")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, ref
}

// newTestServer builds a server over a pool holding one CSV-backed
// dataset named "csv". Tests that don't exercise auth run in -noauth
// mode (every request resolves to the anonymous tenant).
func newTestServer(t *testing.T, opt Options) (*httptest.Server, *Server, string) {
	t.Helper()
	path, _ := testCSV(t, 7, 240, 8)
	pool := data.NewSourcePool()
	if _, err := pool.RegisterCSV("csv", path, -1, false); err != nil {
		t.Fatal(err)
	}
	if opt.TokensPath == "" {
		opt.NoAuth = true
	}
	srv, err := New(pool, opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		pool.Close()
	})
	return ts, srv, path
}

func postJSON(t *testing.T, url string, body any) (int, http.Header, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, out
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// sequentialReference computes the reference response bytes the batch
// path produces: a fresh single-goroutine source, sequential engine.
func sequentialReference(t *testing.T, csvPath string, q RunRequest) []byte {
	t.Helper()
	src, err := data.OpenCSV(csvPath, q.Dataset, -1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	q.Parallelism = 1
	res, err := ExecuteRun(context.Background(), src, q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func TestHealthzAndListings(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	code, body := get(t, ts.URL+"/healthz")
	if code != 200 || string(body) != "{\"status\":\"ok\"}\n" {
		t.Fatalf("healthz = %d %q", code, body)
	}
	code, body = get(t, ts.URL+"/v1/experiments")
	if code != 200 {
		t.Fatalf("experiments = %d", code)
	}
	for _, want := range []string{"fig1", "fig11", "lowerbound", "abl-estimators", "streaming"} {
		if !strings.Contains(string(body), "\""+want+"\"") {
			t.Errorf("experiments listing missing %q", want)
		}
	}
	code, body = get(t, ts.URL+"/v1/datasets")
	if code != 200 || !strings.Contains(string(body), "\"csv\"") {
		t.Fatalf("datasets = %d %q", code, body)
	}
}

func TestRunSyncCacheBitIdentity(t *testing.T) {
	ts, _, path := newTestServer(t, Options{})
	req := RunRequest{Dataset: "csv", Algo: "fw", Eps: 2, Seed: 3, T: 5}
	want := sequentialReference(t, path, req)

	code, hdr, body := postJSON(t, ts.URL+"/v1/run", req)
	if code != 200 {
		t.Fatalf("run = %d %q", code, body)
	}
	if hdr.Get("X-Htdp-Cache") != "miss" {
		t.Fatalf("first request cache header = %q, want miss", hdr.Get("X-Htdp-Cache"))
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("served bytes differ from sequential reference:\n got %q\nwant %q", body, want)
	}

	// The identical request again: a cache hit with the exact same bytes.
	code, hdr, body2 := postJSON(t, ts.URL+"/v1/run", req)
	if code != 200 || hdr.Get("X-Htdp-Cache") != "hit" {
		t.Fatalf("repeat = %d cache=%q", code, hdr.Get("X-Htdp-Cache"))
	}
	if !bytes.Equal(body2, want) {
		t.Fatal("cached bytes differ from computed bytes")
	}

	// A different parallelism is the same canonical request (the knob
	// cannot change bytes), so it is a hit too — and still bit-exact.
	req.Parallelism = 2
	code, hdr, body3 := postJSON(t, ts.URL+"/v1/run", req)
	if code != 200 || hdr.Get("X-Htdp-Cache") != "hit" {
		t.Fatalf("parallelism variant = %d cache=%q", code, hdr.Get("X-Htdp-Cache"))
	}
	if !bytes.Equal(body3, want) {
		t.Fatal("parallelism variant bytes differ")
	}

	// Cache accounting: exactly 1 miss, 2 hits.
	code, metrics := get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{"htdp_cache_hits_total 2", "htdp_cache_misses_total 1", "htdp_cache_entries 1"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestConcurrentRunsBitIdentical is the serving determinism test: many
// parallel /v1/run requests over ONE pooled CSV entry, with distinct
// seeds and mixed parallelism, must each return bytes identical to the
// sequential batch reference for their seed. Run with -race this also
// exercises the pool-handle isolation under real handler concurrency.
func TestConcurrentRunsBitIdentical(t *testing.T) {
	ts, _, path := newTestServer(t, Options{Workers: 4})
	algos := []string{"fw", "lasso", "iht"}
	seeds := []int64{1, 2, 3, 4}
	type call struct {
		req  RunRequest
		want []byte
	}
	var calls []call
	for si, seed := range seeds {
		req := RunRequest{Dataset: "csv", Algo: algos[si%len(algos)], Eps: 2, Seed: seed, T: 3, SStar: 3}
		calls = append(calls, call{req: req, want: sequentialReference(t, path, req)})
	}

	const repeats = 3 // 4 seeds × 3 = 12 concurrent requests
	errc := make(chan error, len(calls)*repeats)
	for rep := 0; rep < repeats; rep++ {
		for ci, c := range calls {
			go func(rep, ci int, c call) {
				req := c.req
				req.Parallelism = rep // 0, 1, 2 — must not change bytes
				b, err := json.Marshal(req)
				if err != nil {
					errc <- err
					return
				}
				resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(b))
				if err != nil {
					errc <- err
					return
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					errc <- err
					return
				}
				if resp.StatusCode != 200 {
					errc <- fmt.Errorf("call %d rep %d: status %d: %s", ci, rep, resp.StatusCode, body)
					return
				}
				if !bytes.Equal(body, c.want) {
					errc <- fmt.Errorf("call %d rep %d: bytes differ from sequential reference", ci, rep)
					return
				}
				errc <- nil
			}(rep, ci, c)
		}
	}
	for i := 0; i < len(calls)*repeats; i++ {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}

	// After the storm, every request is cached: one more pass must be
	// all hits, still bit-identical.
	for _, c := range calls {
		code, hdr, body := postJSON(t, ts.URL+"/v1/run", c.req)
		if code != 200 || hdr.Get("X-Htdp-Cache") != "hit" {
			t.Fatalf("post-storm %s seed=%d: %d cache=%q", c.req.Algo, c.req.Seed, code, hdr.Get("X-Htdp-Cache"))
		}
		if !bytes.Equal(body, c.want) {
			t.Fatal("post-storm cached bytes differ")
		}
	}
}

func TestRunAsyncJobFlow(t *testing.T) {
	ts, _, path := newTestServer(t, Options{})
	req := RunRequest{Dataset: "csv", Algo: "lasso", Eps: 1, Seed: 9, T: 4, Async: true}
	want := sequentialReference(t, path, req)

	code, _, body := postJSON(t, ts.URL+"/v1/run", req)
	if code != 202 {
		t.Fatalf("async run = %d %q", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Kind != "run" {
		t.Fatalf("job status = %+v", st)
	}

	// Poll the job until done (bounded).
	for i := 0; ; i++ {
		code, jb := get(t, ts.URL+"/v1/jobs/"+st.ID)
		if code != 200 {
			t.Fatalf("jobs = %d %q", code, jb)
		}
		if err := json.Unmarshal(jb, &st); err != nil {
			t.Fatal(err)
		}
		if st.Status == "done" {
			break
		}
		if st.Status == "failed" {
			t.Fatalf("job failed: %s", st.Error)
		}
		if i > 10000 {
			t.Fatal("job never finished")
		}
	}
	code, body = get(t, ts.URL+"/v1/results/"+st.ID)
	if code != 200 {
		t.Fatalf("results = %d %q", code, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("async result bytes differ from sequential reference")
	}

	// The same request synchronously is now a cache hit with those bytes.
	sync := req
	sync.Async = false
	code, hdr, body2 := postJSON(t, ts.URL+"/v1/run", sync)
	if code != 200 || hdr.Get("X-Htdp-Cache") != "hit" {
		t.Fatalf("sync-after-async = %d cache=%q", code, hdr.Get("X-Htdp-Cache"))
	}
	if !bytes.Equal(body2, want) {
		t.Fatal("sync-after-async bytes differ")
	}

	// An async re-request of cached work returns an immediately-done job
	// that names its cache tier, exactly like the sync response.
	code, hdr, body = postJSON(t, ts.URL+"/v1/run", req)
	if code != 202 {
		t.Fatalf("async rerun = %d", code)
	}
	if tier := hdr.Get("X-Htdp-Cache"); tier != "hit" {
		t.Fatalf("async rerun cache = %q, want hit", tier)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "done" {
		t.Fatalf("cached async job status = %q, want done", st.Status)
	}
	code, body = get(t, ts.URL+"/v1/results/"+st.ID)
	if code != 200 || !bytes.Equal(body, want) {
		t.Fatalf("cached async result = %d, equal=%v", code, bytes.Equal(body, want))
	}
}

func TestRunErrors(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	for _, tc := range []struct {
		name string
		body string
		code int
		frag string
	}{
		{"malformed json", "{", 400, "bad_request"},
		{"unknown field", `{"dataset":"csv","algo":"fw","bogus":1}`, 400, "bad_request"},
		{"missing dataset", `{"algo":"fw"}`, 400, "dataset is required"},
		{"unknown algo", `{"dataset":"csv","algo":"gd"}`, 400, "unknown algo"},
		{"negative eps", `{"dataset":"csv","algo":"fw","eps":-1}`, 400, "eps"},
		{"unknown dataset", `{"dataset":"nope","algo":"fw"}`, 404, "not_found"},
	} {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code || !strings.Contains(string(body), tc.frag) {
			t.Errorf("%s: got %d %q, want %d containing %q", tc.name, resp.StatusCode, body, tc.code, tc.frag)
		}
		var env errorBody
		if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" {
			t.Errorf("%s: response is not the error envelope: %q", tc.name, body)
		}
	}
	if code, _ := get(t, ts.URL+"/v1/jobs/job-999999"); code != 404 {
		t.Errorf("unknown job = %d, want 404", code)
	}
	if code, _ := get(t, ts.URL+"/v1/results/job-999999"); code != 404 {
		t.Errorf("unknown result = %d, want 404", code)
	}
}

func TestUploadAndRun(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	gen := data.LinearSource(21, data.LinearOpt{
		N: 120, D: 5,
		Feature: randx.LogNormal{Mu: 0, Sigma: 0.7},
		Noise:   randx.Normal{Mu: 0, Sigma: 0.2},
	})
	ref := gen.Materialize()
	var csv bytes.Buffer
	if err := data.WriteCSV(&csv, ref); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/v1/datasets?name=uploaded", "text/csv", bytes.NewReader(csv.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 201 || !strings.Contains(string(body), "\"uploaded\"") {
		t.Fatalf("upload = %d %q", resp.StatusCode, body)
	}

	// The uploaded dataset serves runs, bit-identical to running over
	// the in-memory reference directly.
	req := RunRequest{Dataset: "uploaded", Algo: "fw", Eps: 1, Seed: 5, T: 4}
	code, _, got := postJSON(t, ts.URL+"/v1/run", req)
	if code != 200 {
		t.Fatalf("run on upload = %d %q", code, got)
	}
	src := data.NewMemSource(ref)
	direct := req
	direct.Parallelism = 1
	res, err := ExecuteRun(context.Background(), src, direct)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(got, want) {
		t.Fatal("upload-served bytes differ from direct MemSource run")
	}

	// Duplicate name conflicts; missing name is a 400; junk body is a 400.
	resp, err = http.Post(ts.URL+"/v1/datasets?name=uploaded", "text/csv", bytes.NewReader(csv.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 409 {
		t.Fatalf("duplicate upload = %d, want 409", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/datasets", "text/csv", bytes.NewReader(csv.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("nameless upload = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/datasets?name=junk", "text/csv", strings.NewReader("not,a\nnumeric,csv\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("junk upload = %d, want 400", resp.StatusCode)
	}
}

func TestSweepEndpoint(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	req := experiments.SweepRequest{Experiment: "abl-shrink-k", Reps: 2, Scale: 0.01, Seed: 3}

	code, hdr, body := postJSON(t, ts.URL+"/v1/sweep", req)
	if code != 200 {
		t.Fatalf("sweep = %d %q", code, body)
	}
	if hdr.Get("X-Htdp-Cache") != "miss" {
		t.Fatalf("first sweep cache = %q", hdr.Get("X-Htdp-Cache"))
	}
	panels, err := experiments.RunSweep(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(struct {
		Experiment string              `json:"experiment"`
		Panels     []experiments.Panel `json:"panels"`
	}{Experiment: "abl-shrink-k", Panels: panels})
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(body, want) {
		t.Fatal("sweep bytes differ from direct RunSweep")
	}

	code, hdr, body2 := postJSON(t, ts.URL+"/v1/sweep", req)
	if code != 200 || hdr.Get("X-Htdp-Cache") != "hit" {
		t.Fatalf("sweep repeat = %d cache=%q", code, hdr.Get("X-Htdp-Cache"))
	}
	if !bytes.Equal(body2, want) {
		t.Fatal("cached sweep bytes differ")
	}

	// Unknown experiment → 404; bad scale → 400.
	code, _, body = postJSON(t, ts.URL+"/v1/sweep", experiments.SweepRequest{Experiment: "fig99"})
	if code != 404 {
		t.Fatalf("unknown experiment = %d %q", code, body)
	}
	code, _, body = postJSON(t, ts.URL+"/v1/sweep", experiments.SweepRequest{Experiment: "fig1", Scale: 7})
	if code != 400 {
		t.Fatalf("bad scale = %d %q", code, body)
	}
}

// TestSweepStreamingFromPool runs the streaming experiment against a
// pooled CSV dataset: every trial acquires its own handle from the one
// shared entry.
func TestSweepStreamingFromPool(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	req := experiments.SweepRequest{Experiment: "streaming", Reps: 2, Scale: 0.01, Seed: 2, Dataset: "csv"}
	code, _, body := postJSON(t, ts.URL+"/v1/sweep", req)
	if code != 200 {
		t.Fatalf("streaming sweep = %d %q", code, body)
	}
	if !strings.Contains(string(body), "config.source") || !strings.Contains(string(body), "dpfw-stream") {
		t.Fatalf("streaming sweep output unexpected: %q", body)
	}
	// Unknown pooled dataset → 404.
	req.Dataset = "nope"
	code, _, _ = postJSON(t, ts.URL+"/v1/sweep", req)
	if code != 404 {
		t.Fatalf("unknown sweep dataset = %d", code)
	}
}

// TestSweepDatasetRejected: a dataset on an experiment that does not
// stream from a source is a 400, not a silently-fragmented cache entry.
func TestSweepDatasetRejected(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	req := experiments.SweepRequest{Experiment: "fig1", Reps: 1, Scale: 0.01, Dataset: "csv"}
	code, _, body := postJSON(t, ts.URL+"/v1/sweep", req)
	if code != 400 {
		t.Fatalf("dataset on non-source experiment = %d %q, want 400", code, body)
	}
	if !strings.Contains(string(body), "ignores dataset") {
		t.Fatalf("rejection body does not explain itself: %q", body)
	}
}

// TestSweepFailureKeepsServing is the crash reproducer for the bug this
// engine rewrite fixes: a trial failure mid-sweep (here the pooled CSV
// vanishing between registration and the sweep) used to escape as a
// panic on a sweep worker goroutine and kill the whole process. It must
// instead fail that one job with 422 sweep_failed, leaving the server
// answering everything else.
func TestSweepFailureKeepsServing(t *testing.T) {
	ts, _, path := newTestServer(t, Options{})
	// The pool entry stays registered but every Acquire now fails: the
	// master handle indexes the file, fresh trial handles reopen it.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	req := experiments.SweepRequest{Experiment: "streaming", Reps: 1, Scale: 0.01, Seed: 2, Dataset: "csv"}
	code, _, body := postJSON(t, ts.URL+"/v1/sweep", req)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("failing sweep = %d %q, want 422", code, body)
	}
	if !strings.Contains(string(body), "sweep_failed") {
		t.Fatalf("failing sweep body = %q, want sweep_failed", body)
	}

	// The process survived: health and unrelated compute still answer.
	if code, hb := get(t, ts.URL+"/healthz"); code != 200 || string(hb) != "{\"status\":\"ok\"}\n" {
		t.Fatalf("healthz after failed sweep = %d %q", code, hb)
	}
	ok := experiments.SweepRequest{Experiment: "abl-shrink-k", Reps: 1, Scale: 0.01, Seed: 3}
	if code, _, b := postJSON(t, ts.URL+"/v1/sweep", ok); code != 200 {
		t.Fatalf("sweep after failed sweep = %d %q", code, b)
	}

	// Failures are not cached: the same request fails again (another
	// computation, same 422), rather than serving a stored error.
	if code, _, _ := postJSON(t, ts.URL+"/v1/sweep", req); code != http.StatusUnprocessableEntity {
		t.Fatalf("repeat failing sweep = %d, want 422", code)
	}

	// The async path reports the same failure through the job document.
	async := req
	async.Async = true
	code, _, body = postJSON(t, ts.URL+"/v1/sweep", async)
	if code != 202 {
		t.Fatalf("async failing sweep = %d %q", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	for i := 0; st.Status != "failed"; i++ {
		if st.Status == "done" || i > 10000 {
			t.Fatalf("async failing sweep ended %q", st.Status)
		}
		code, jb := get(t, ts.URL+"/v1/jobs/"+st.ID)
		if code != 200 {
			t.Fatalf("jobs = %d %q", code, jb)
		}
		if err := json.Unmarshal(jb, &st); err != nil {
			t.Fatal(err)
		}
	}
	if st.Error == "" {
		t.Fatal("failed job carries no error")
	}
}

func TestSchedulerBackpressure(t *testing.T) {
	s := newScheduler(1, 1, 0, 0, 0)
	defer s.close(context.Background())
	block := make(chan struct{})
	started := make(chan struct{})
	// Occupy the single worker...
	j1, err := s.submit("run", "", anonTenant, 1, 0, func(context.Context, *job) ([]byte, error) {
		close(started)
		<-block
		return []byte("a\n"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// ...fill the depth-1 queue...
	j2, err := s.submit("run", "", anonTenant, 1, 0, func(context.Context, *job) ([]byte, error) { return []byte("b\n"), nil })
	if err != nil {
		t.Fatal(err)
	}
	// ...and the next submission is rejected, not queued.
	if _, err := s.submit("run", "", anonTenant, 1, 0, func(context.Context, *job) ([]byte, error) { return nil, nil }); err != errQueueFull {
		t.Fatalf("overfull submit err = %v, want errQueueFull", err)
	}
	close(block)
	j1.wait()
	j2.wait()
	if got := j2.status().Status; got != jobDone {
		t.Fatalf("queued job state = %q", got)
	}
	// Failed jobs report their error; panics are contained.
	j3, err := s.submit("run", "", anonTenant, 1, 0, func(context.Context, *job) ([]byte, error) { return nil, fmt.Errorf("boom") })
	if err != nil {
		t.Fatal(err)
	}
	j3.wait()
	if st := j3.status(); st.Status != jobFailed || st.Error != "boom" {
		t.Fatalf("failed job status = %+v", st)
	}
	j4, err := s.submit("run", "", anonTenant, 1, 0, func(context.Context, *job) ([]byte, error) { panic("kaboom") })
	if err != nil {
		t.Fatal(err)
	}
	j4.wait()
	if st := j4.status(); st.Status != jobFailed || !strings.Contains(st.Error, "kaboom") {
		t.Fatalf("panicked job status = %+v", st)
	}
}

func TestSchedulerSubmitAfterClose(t *testing.T) {
	s := newScheduler(1, 4, 0, 0, 0)
	s.close(context.Background())
	if _, err := s.submit("run", "", anonTenant, 1, 0, func(context.Context, *job) ([]byte, error) { return nil, nil }); err == nil {
		t.Fatal("submit after close: expected error, not a panic or success")
	}
	if _, err := s.completed("run", anonTenant, []byte("x\n")); err == nil {
		t.Fatal("completed after close: expected error")
	}
	s.close(context.Background()) // idempotent
}

func TestMetricsRouteCardinalityBounded(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	for _, path := range []string{"/nope", "/admin/../etc", "/v2/run"} {
		if code, _ := get(t, ts.URL+path); code != 404 {
			t.Fatalf("GET %s = %d, want 404", path, code)
		}
	}
	_, body := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(body), `htdp_requests_total{route="other",code="404"} 3`) {
		t.Fatalf("probe paths not collapsed to the other label:\n%s", body)
	}
	if strings.Contains(string(body), "nope") {
		t.Fatal("raw probe path leaked into metrics labels")
	}
}

func TestUploadTooLarge(t *testing.T) {
	path, _ := testCSV(t, 3, 50, 3)
	pool := data.NewSourcePool()
	if _, err := pool.RegisterCSV("csv", path, -1, false); err != nil {
		t.Fatal(err)
	}
	srv, err := New(pool, Options{MaxUploadBytes: 16, NoAuth: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
		pool.Close()
	}()
	resp, err := http.Post(ts.URL+"/v1/datasets?name=big", "text/csv",
		strings.NewReader("1,2\n3,4\n5,6\n7,8\n9,10\n11,12\n"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 413 || !strings.Contains(string(body), "too_large") {
		t.Fatalf("oversized upload = %d %q, want 413 too_large", resp.StatusCode, body)
	}
}

// TestDeltaCanonicalizedAgainstDataset: a defaulted-δ and an explicit
// δ = n^-1.1 request are the same computation, so they must share one
// cache entry.
func TestDeltaCanonicalizedAgainstDataset(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	implicit := RunRequest{Dataset: "csv", Algo: "lasso", Seed: 4, T: 3}
	code, hdr, first := postJSON(t, ts.URL+"/v1/run", implicit)
	if code != 200 || hdr.Get("X-Htdp-Cache") != "miss" {
		t.Fatalf("implicit delta = %d cache=%q", code, hdr.Get("X-Htdp-Cache"))
	}
	var res RunResult
	if err := json.Unmarshal(first, &res); err != nil {
		t.Fatal(err)
	}
	explicit := implicit
	explicit.Delta = res.Delta
	code, hdr, second := postJSON(t, ts.URL+"/v1/run", explicit)
	if code != 200 || hdr.Get("X-Htdp-Cache") != "hit" {
		t.Fatalf("explicit delta = %d cache=%q, want hit", code, hdr.Get("X-Htdp-Cache"))
	}
	if !bytes.Equal(first, second) {
		t.Fatal("delta-equivalent requests returned different bytes")
	}
}

func TestStoreMemoryLRUEvictionByBytes(t *testing.T) {
	c, err := newStore(8, "", 0) // memory-only, 8-byte bound
	if err != nil {
		t.Fatal(err)
	}
	c.put("a", []byte("1111"))
	c.put("b", []byte("2222"))
	if _, _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	c.put("c", []byte("3333")) // 12 bytes total: evicts b (least recently used)
	if _, _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, tier, ok := c.get("a"); !ok || tier != "hit" {
		t.Fatalf("a should have survived in memory, tier=%q ok=%v", tier, ok)
	}
	if _, _, ok := c.get("c"); !ok {
		t.Fatal("c should be present")
	}
	// An entry bigger than the whole tier is refused, not thrashed.
	c.put("huge", []byte("123456789"))
	if _, _, ok := c.get("huge"); ok {
		t.Fatal("oversized entry should not have been cached")
	}
	st := c.stats()
	if st.Hits != 3 || st.Misses != 2 || st.MemEntries != 2 || st.MemBytes != 8 {
		t.Fatalf("stats = %+v, want 3 hits, 2 misses, 2 entries, 8 bytes", st)
	}
}

func TestCanonicalization(t *testing.T) {
	// Defaults resolve; scheduling-only fields are zeroed; so a
	// defaulted and an explicit request share one cache key.
	a, err := (RunRequest{Dataset: "d", Algo: "fw"}).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b, err := (RunRequest{Dataset: "d", Algo: "fw", Eps: 1, SStar: 10, Seed: 1, Parallelism: 4, Async: true}).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("canonical forms differ: %+v vs %+v", a, b)
	}
	if cacheKey("run", a) != cacheKey("run", b) {
		t.Fatal("cache keys differ for equivalent requests")
	}
	if cacheKey("run", a) == cacheKey("sweep", a) {
		t.Fatal("cache keys must be kind-tagged")
	}
	for _, bad := range []RunRequest{
		{Algo: "fw"},
		{Dataset: "d", Algo: "x"},
		{Dataset: "d", Algo: "fw", Eps: -1},
		{Dataset: "d", Algo: "fw", Delta: 1.5},
		{Dataset: "d", Algo: "fw", T: -1},
		{Dataset: "d", Algo: "fw", SStar: -2},
	} {
		if _, err := bad.Canonical(); err == nil {
			t.Errorf("expected canonicalization error for %+v", bad)
		}
	}
}

// deleteJob issues DELETE /v1/jobs/{id}.
func deleteJob(t *testing.T, tsURL, id string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, tsURL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestDiskTierCrashRestartRoundTrip is the crash-safety test of the
// durable tier: results completed before a crash — simulated by
// abandoning the server without draining it, with an interrupted
// write's *.tmp litter on disk and a sweep still queued — are served
// by a fresh server over the same -cachedir byte-identically, from the
// disk tier; the in-flight request is simply recomputed (to the same
// bytes, by the determinism contract).
func TestDiskTierCrashRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path, _ := testCSV(t, 7, 240, 8)
	pool := data.NewSourcePool()
	defer pool.Close()
	if _, err := pool.RegisterCSV("csv", path, -1, false); err != nil {
		t.Fatal(err)
	}

	srv1, err := New(pool, Options{Workers: 1, QueueDepth: 4, CacheDir: dir, NoAuth: true})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1)
	reqA := RunRequest{Dataset: "csv", Algo: "fw", Eps: 2, Seed: 31, T: 4}
	reqB := RunRequest{Dataset: "csv", Algo: "lasso", Eps: 1, Seed: 32, T: 3}
	wantA := sequentialReference(t, path, reqA)
	wantB := sequentialReference(t, path, reqB)
	for _, c := range []struct {
		req  RunRequest
		want []byte
	}{{reqA, wantA}, {reqB, wantB}} {
		code, _, body := postJSON(t, ts1.URL+"/v1/run", c.req)
		if code != 200 || !bytes.Equal(body, c.want) {
			t.Fatalf("pre-crash run = %d, equal=%v", code, bytes.Equal(body, c.want))
		}
	}
	// Occupy the single worker so the next submission stays queued —
	// genuinely in flight at crash time.
	release := make(chan struct{})
	if _, err := srv1.sched.submit("run", "", anonTenant, 1, 0, func(context.Context, *job) ([]byte, error) {
		<-release
		return []byte("x\n"), nil
	}); err != nil {
		t.Fatal(err)
	}
	inflight := experiments.SweepRequest{Experiment: "abl-shrink-k", Reps: 1, Scale: 0.01, Seed: 9, Async: true}
	if code, _, body := postJSON(t, ts1.URL+"/v1/sweep", inflight); code != 202 {
		t.Fatalf("in-flight sweep = %d %q", code, body)
	}
	// Crash: stop accepting traffic, never drain, leave write litter.
	if err := os.WriteFile(filepath.Join(dir, "interrupted-000.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	close(release) // let the abandoned scheduler goroutines exit
	// The abandoned worker goes on to run the queued sweep and writes
	// its result into dir; stop it before t.TempDir's cleanup removes
	// dir, or the write can race the removal ("directory not empty").
	t.Cleanup(srv1.Close)

	srv2, err := New(pool, Options{CacheDir: dir, NoAuth: true})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	t.Cleanup(func() {
		ts2.Close()
		srv2.Close()
	})
	if _, err := os.Stat(filepath.Join(dir, "interrupted-000.tmp")); !os.IsNotExist(err) {
		t.Fatal("restart should sweep crash-interrupted temp files")
	}
	// Completed results come back from the disk tier, bit-identical.
	for _, c := range []struct {
		req  RunRequest
		want []byte
	}{{reqA, wantA}, {reqB, wantB}} {
		code, hdr, body := postJSON(t, ts2.URL+"/v1/run", c.req)
		if code != 200 || hdr.Get("X-Htdp-Cache") != "disk" {
			t.Fatalf("post-restart run = %d cache=%q, want 200 disk", code, hdr.Get("X-Htdp-Cache"))
		}
		if !bytes.Equal(body, c.want) {
			t.Fatal("post-restart disk bytes differ from pre-crash bytes")
		}
	}
	// Promoted to memory now; and the interrupted sweep is a plain miss.
	if _, hdr, _ := postJSON(t, ts2.URL+"/v1/run", reqA); hdr.Get("X-Htdp-Cache") != "hit" {
		t.Fatalf("promoted re-request cache = %q, want hit", hdr.Get("X-Htdp-Cache"))
	}
	sync := inflight
	sync.Async = false
	if code, hdr, _ := postJSON(t, ts2.URL+"/v1/sweep", sync); code != 200 || hdr.Get("X-Htdp-Cache") != "miss" {
		t.Fatalf("interrupted sweep after restart = %d cache=%q, want 200 miss", code, hdr.Get("X-Htdp-Cache"))
	}
	code, metrics := get(t, ts2.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{"htdp_cache_disk_hits_total 2", "htdp_cache_disk_entries 3"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestSingleflightCoalescesConcurrentMisses is the singleflight
// acceptance test: N concurrent identical misses schedule exactly one
// job; the N−1 followers coalesce onto it (header "coalesced", metric
// N−1) and every response is byte-identical to the sequential
// reference. Run under -race this also exercises the flight group's
// locking.
func TestSingleflightCoalescesConcurrentMisses(t *testing.T) {
	ts, srv, path := newTestServer(t, Options{Workers: 1, QueueDepth: 8})
	// Occupy the single worker so the leader's job stays queued while
	// the followers arrive: every one of the N requests must take the
	// miss path.
	release := make(chan struct{})
	blocker, err := srv.sched.submit("run", "", anonTenant, 1, 0, func(context.Context, *job) ([]byte, error) {
		<-release
		return []byte("x\n"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	req := RunRequest{Dataset: "csv", Algo: "fw", Eps: 2, Seed: 77, T: 4}
	want := sequentialReference(t, path, req)

	const n = 6
	type reply struct {
		code int
		tier string
		body []byte
	}
	replies := make(chan reply, n)
	for i := 0; i < n; i++ {
		go func() {
			b, err := json.Marshal(req)
			if err != nil {
				replies <- reply{code: -1}
				return
			}
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(b))
			if err != nil {
				replies <- reply{code: -1}
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			replies <- reply{code: resp.StatusCode, tier: resp.Header.Get("X-Htdp-Cache"), body: body}
		}()
	}
	// All N requests miss and join the flight group before any compute
	// runs; wait for the N−1 followers to have registered.
	deadline := time.Now().Add(10 * time.Second)
	for srv.flight.coalescedCount() != n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("coalesced = %d, want %d", srv.flight.coalescedCount(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	blocker.wait()

	tiers := map[string]int{}
	for i := 0; i < n; i++ {
		r := <-replies
		if r.code != 200 {
			t.Fatalf("concurrent miss = %d", r.code)
		}
		if !bytes.Equal(r.body, want) {
			t.Fatal("coalesced bytes differ from sequential reference")
		}
		tiers[r.tier]++
	}
	if tiers["miss"] != 1 || tiers["coalesced"] != n-1 {
		t.Fatalf("cache headers = %v, want 1 miss + %d coalesced", tiers, n-1)
	}
	_, metrics := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), fmt.Sprintf("htdp_singleflight_coalesced_total %d", n-1)) {
		t.Fatalf("metrics missing coalesced count %d:\n%s", n-1, metrics)
	}
	// Exactly one run job computed the result (plus the blocker): a
	// third identical request is a plain memory hit.
	if _, hdr, _ := postJSON(t, ts.URL+"/v1/run", req); hdr.Get("X-Htdp-Cache") != "hit" {
		t.Fatalf("post-storm cache = %q, want hit", hdr.Get("X-Htdp-Cache"))
	}
}

// TestSingleflightAsyncAttachesToSameJob: a duplicate async miss gets
// the leader's job id instead of a second job.
func TestSingleflightAsyncAttachesToSameJob(t *testing.T) {
	ts, srv, _ := newTestServer(t, Options{Workers: 1, QueueDepth: 8})
	release := make(chan struct{})
	if _, err := srv.sched.submit("run", "", anonTenant, 1, 0, func(context.Context, *job) ([]byte, error) {
		<-release
		return []byte("x\n"), nil
	}); err != nil {
		t.Fatal(err)
	}
	req := RunRequest{Dataset: "csv", Algo: "lasso", Eps: 1, Seed: 55, T: 3, Async: true}
	code, _, body := postJSON(t, ts.URL+"/v1/run", req)
	if code != 202 {
		t.Fatalf("async miss = %d %q", code, body)
	}
	var leader JobStatus
	if err := json.Unmarshal(body, &leader); err != nil {
		t.Fatal(err)
	}
	code, hdr, body := postJSON(t, ts.URL+"/v1/run", req)
	if code != 202 || hdr.Get("X-Htdp-Cache") != "coalesced" {
		t.Fatalf("async follower = %d cache=%q", code, hdr.Get("X-Htdp-Cache"))
	}
	var follower JobStatus
	if err := json.Unmarshal(body, &follower); err != nil {
		t.Fatal(err)
	}
	if follower.ID != leader.ID {
		t.Fatalf("follower job %s != leader job %s", follower.ID, leader.ID)
	}
	close(release)
}

// TestJobCancellation: DELETE /v1/jobs/{id} cancels a queued job
// immediately (200); a finished job is not cancellable (409); a
// cancelled job's result is 410; and a cancelled singleflight leader
// does not wedge later requests for the same key. Cancelling a RUNNING
// job is covered by TestCancelRunningJob.
func TestJobCancellation(t *testing.T) {
	ts, srv, path := newTestServer(t, Options{Workers: 1, QueueDepth: 8})
	release := make(chan struct{})
	blocker, err := srv.sched.submit("run", "", anonTenant, 1, 0, func(context.Context, *job) ([]byte, error) {
		<-release
		return []byte("x\n"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	req := RunRequest{Dataset: "csv", Algo: "fw", Eps: 2, Seed: 99, T: 3, Async: true}
	code, _, body := postJSON(t, ts.URL+"/v1/run", req)
	if code != 202 {
		t.Fatalf("async submit = %d %q", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != jobQueued {
		t.Fatalf("job status = %q, want queued (worker is occupied)", st.Status)
	}

	code, body = deleteJob(t, ts.URL, st.ID)
	if code != 200 || !strings.Contains(string(body), `"cancelled"`) {
		t.Fatalf("cancel = %d %q", code, body)
	}
	if code, body := get(t, ts.URL+"/v1/jobs/"+st.ID); code != 200 || !strings.Contains(string(body), `"cancelled"`) {
		t.Fatalf("cancelled job doc = %d %q", code, body)
	}
	if code, body := get(t, ts.URL+"/v1/results/"+st.ID); code != 410 || !strings.Contains(string(body), "cancelled") {
		t.Fatalf("cancelled result = %d %q, want 410", code, body)
	}
	// Cancelling twice conflicts: the job already finished.
	if code, _ := deleteJob(t, ts.URL, st.ID); code != 409 {
		t.Fatalf("double cancel = %d, want 409", code)
	}
	if code, _ := deleteJob(t, ts.URL, "job-999999"); code != 404 {
		t.Fatalf("cancel unknown = %d, want 404", code)
	}

	// The worker skips the cancelled job, and the key is free again:
	// the same request re-submitted computes normally.
	close(release)
	blocker.wait()
	sync := req
	sync.Async = false
	want := sequentialReference(t, path, RunRequest{Dataset: "csv", Algo: "fw", Eps: 2, Seed: 99, T: 3})
	code, hdr, body := postJSON(t, ts.URL+"/v1/run", sync)
	if code != 200 || hdr.Get("X-Htdp-Cache") != "miss" {
		t.Fatalf("post-cancel recompute = %d cache=%q", code, hdr.Get("X-Htdp-Cache"))
	}
	if !bytes.Equal(body, want) {
		t.Fatal("post-cancel bytes differ from sequential reference")
	}
	_, metrics := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), `htdp_jobs{status="cancelled"} 1`) {
		t.Fatalf("metrics missing cancelled gauge:\n%s", metrics)
	}
}

// TestJobTTLEviction drives the scheduler's age-based retention with an
// injected clock: finished jobs past the TTL vanish from lookups, live
// jobs never expire.
func TestJobTTLEviction(t *testing.T) {
	s := newScheduler(1, 4, time.Minute, 0, 0)
	defer s.close(context.Background())
	var (
		mu  sync.Mutex
		now = time.Unix(1000, 0)
	)
	s.now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}

	quick, err := s.submit("run", "", anonTenant, 1, 0, func(context.Context, *job) ([]byte, error) { return []byte("q\n"), nil })
	if err != nil {
		t.Fatal(err)
	}
	quick.wait()
	release := make(chan struct{})
	slow, err := s.submit("run", "", anonTenant, 1, 0, func(context.Context, *job) ([]byte, error) {
		<-release
		return []byte("s\n"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.get(quick.id); !ok {
		t.Fatal("fresh finished job should be retrievable")
	}
	advance(2 * time.Minute)
	if _, ok := s.get(quick.id); ok {
		t.Fatal("finished job should have expired past the TTL")
	}
	if _, ok := s.get(slow.id); !ok {
		t.Fatal("live job must never expire")
	}
	if _, expired := s.counts(); expired != 1 {
		t.Fatalf("expired count = %d, want 1", expired)
	}
	close(release)
	slow.wait()
}

// readSSE consumes a /v1/jobs/{id}/events stream until its terminal
// event, returning (eventName, decodedData) pairs.
func readSSE(t *testing.T, url string) (names []string, payloads []string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("events = %d %q", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var event, dta string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			dta = strings.TrimPrefix(line, "data: ")
		case line == "":
			if event == "" {
				continue
			}
			names = append(names, event)
			payloads = append(payloads, dta)
			if event != "progress" {
				return names, payloads // terminal event closes the stream
			}
			event, dta = "", ""
		}
	}
	t.Fatalf("stream ended without a terminal event (got %v)", names)
	return nil, nil
}

// TestSweepProgressAndSSE: an async sweep reports per-panel progress on
// its job document and over SSE, finishing with a deterministic
// done==total progress and a terminal event — and the progress
// machinery must not change the result bytes.
func TestSweepProgressAndSSE(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{Workers: 2})
	req := experiments.SweepRequest{Experiment: "fig1", Reps: 1, Scale: 0.01, Seed: 5, Async: true}
	code, _, body := postJSON(t, ts.URL+"/v1/sweep", req)
	if code != 202 {
		t.Fatalf("async sweep = %d %q", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	names, payloads := readSSE(t, ts.URL+"/v1/jobs/"+st.ID+"/events")
	if names[len(names)-1] != "done" {
		t.Fatalf("terminal event = %q, want done (events %v)", names[len(names)-1], names)
	}
	var lastProgress experiments.Progress
	sawProgress := false
	for i, name := range names[:len(names)-1] {
		if name != "progress" {
			t.Fatalf("unexpected event %q before terminal", name)
		}
		if err := json.Unmarshal([]byte(payloads[i]), &lastProgress); err != nil {
			t.Fatal(err)
		}
		sawProgress = true
	}
	if !sawProgress {
		t.Fatal("no progress events before the terminal event")
	}
	if lastProgress.Done != 3 || lastProgress.Total != 3 || lastProgress.Panel != "fig1(c)" {
		t.Fatalf("last progress = %+v, want 3/3 fig1(c)", lastProgress)
	}
	var final JobStatus
	if err := json.Unmarshal([]byte(payloads[len(payloads)-1]), &final); err != nil {
		t.Fatal(err)
	}
	if final.Status != jobDone || final.Progress == nil || final.Progress.Done != 3 {
		t.Fatalf("terminal payload = %+v", final)
	}

	// The job document carries the same terminal progress.
	code, jb := get(t, ts.URL+"/v1/jobs/"+st.ID)
	if code != 200 {
		t.Fatalf("job doc = %d", code)
	}
	if err := json.Unmarshal(jb, &st); err != nil {
		t.Fatal(err)
	}
	if st.Progress == nil || st.Progress.Done != 3 || st.Progress.Total != 3 {
		t.Fatalf("job progress = %+v, want 3/3", st.Progress)
	}

	// Result bytes match a direct RunSweep without any progress sink.
	code, got := get(t, ts.URL+"/v1/results/"+st.ID)
	if code != 200 {
		t.Fatalf("results = %d", code)
	}
	panels, err := experiments.RunSweep(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(struct {
		Experiment string              `json:"experiment"`
		Panels     []experiments.Panel `json:"panels"`
	}{Experiment: "fig1", Panels: panels})
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(got, want) {
		t.Fatal("progress-observed sweep bytes differ from direct RunSweep")
	}

	// SSE on an already-finished job replays progress + terminal at once.
	names, _ = readSSE(t, ts.URL+"/v1/jobs/"+st.ID+"/events")
	if names[len(names)-1] != "done" {
		t.Fatalf("finished-job SSE terminal = %v", names)
	}
	// SSE on an unknown job is a plain 404.
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("unknown job events = %d", resp.StatusCode)
	}
}
