package serve

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"htdp/internal/experiments"
)

// waitClosed blocks until the scheduler has flipped its closed flag, so
// a test can order events against an in-flight close().
func waitClosed(t *testing.T, s *scheduler) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("scheduler never reported closed")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSchedulerCloseCancelsQueued pins close()'s drain semantics: a job
// still in the queue when close begins finishes as cancelled — its
// waiters unblock, wait() never hangs — while a running job that
// completes within the drain window finishes normally and counts as
// drained.
func TestSchedulerCloseCancelsQueued(t *testing.T) {
	s := newScheduler(1, 4, 0, 0, 0, neverStored)
	started := make(chan struct{})
	release := make(chan struct{})
	j1, _, err := s.submit("run", "", anonTenant, 1, 0, func(ctx context.Context, _ *job) ([]byte, error) {
		close(started)
		select {
		case <-release:
			return []byte("drained\n"), nil
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	j2, _, err := s.submit("run", "", anonTenant, 1, 0, func(context.Context, *job) ([]byte, error) {
		return []byte("never runs\n"), nil
	})
	if err != nil {
		t.Fatal(err)
	}

	closed := make(chan struct{})
	go func() {
		s.close(context.Background())
		close(closed)
	}()
	waitClosed(t, s)
	close(release) // the running job drains naturally
	<-closed

	j1.wait()
	j2.wait() // the pinned contract: never hangs on a closed scheduler
	if st := j1.status(); st.Status != jobDone {
		t.Fatalf("running job drained to %q, want done", st.Status)
	}
	if st := j2.status(); st.Status != jobCancelled || !strings.Contains(st.Error, "shutdown") {
		t.Fatalf("queued job landed in %+v, want cancelled by shutdown", st)
	}
	if drained, cancelled := s.shutdownCounts(); drained != 1 || cancelled != 1 {
		t.Fatalf("shutdown counts = (%d drained, %d cancelled), want (1, 1)", drained, cancelled)
	}
}

// TestSchedulerCloseForceCancelsPastDeadline: when the drain context is
// already expired, close cancels running jobs immediately (cause:
// shutdown) instead of waiting for them, and still never hangs wait().
func TestSchedulerCloseForceCancelsPastDeadline(t *testing.T) {
	s := newScheduler(1, 4, 0, 0, 0, neverStored)
	started := make(chan struct{})
	j1, _, err := s.submit("run", "", anonTenant, 1, 0, func(ctx context.Context, _ *job) ([]byte, error) {
		close(started)
		<-ctx.Done() // only a cancelled context ends this job
		return nil, context.Cause(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	j2, _, err := s.submit("run", "", anonTenant, 1, 0, func(context.Context, *job) ([]byte, error) {
		return []byte("never runs\n"), nil
	})
	if err != nil {
		t.Fatal(err)
	}

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	s.close(expired)

	j1.wait()
	j2.wait()
	if st := j1.status(); st.Status != jobCancelled || !strings.Contains(st.Error, "shutdown") {
		t.Fatalf("running job = %+v, want cancelled by shutdown", st)
	}
	if st := j2.status(); st.Status != jobCancelled {
		t.Fatalf("queued job = %+v, want cancelled", st)
	}
	if drained, cancelled := s.shutdownCounts(); drained != 0 || cancelled != 2 {
		t.Fatalf("shutdown counts = (%d drained, %d cancelled), want (0, 2)", drained, cancelled)
	}
}

// TestSchedulerDeadlineExceeded drives the per-job deadline with an
// injected timeout hook instead of wall-clock sleeps: the hook returns
// an already-deadline-cancelled context, so the job observes its
// deadline on the first check, fails, and is classified as
// deadline-exceeded (the 504 discriminator) — not cancelled, not a
// plain failure.
func TestSchedulerDeadlineExceeded(t *testing.T) {
	s := newScheduler(1, 4, 0, 0, 0, neverStored)
	defer s.close(context.Background())
	s.timeoutCtx = func(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
		ctx, cancel := context.WithCancelCause(parent)
		cancel(context.DeadlineExceeded)
		return ctx, func() {}
	}
	j, _, err := s.submit("run", "", anonTenant, 1, time.Hour, func(ctx context.Context, _ *job) ([]byte, error) {
		return nil, context.Cause(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
	j.wait()
	st := j.status()
	if st.Status != jobFailed {
		t.Fatalf("timed-out job = %q, want failed", st.Status)
	}
	if !j.deadlineExceeded() {
		t.Fatal("timed-out job not marked deadline-exceeded")
	}

	// A job WITHOUT a timeout never consults the hook: it runs to
	// completion untouched.
	ok, _, err := s.submit("run", "", anonTenant, 1, 0, func(ctx context.Context, _ *job) ([]byte, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return []byte("ok\n"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ok.wait()
	if st := ok.status(); st.Status != jobDone {
		t.Fatalf("untimed job = %+v, want done", st)
	}
}

// TestSubscribeInitialSnapshotNonBlocking is the regression test for
// the lossy-subscribe contract: the initial progress snapshot uses the
// same non-blocking send as setProgress, so a zero-capacity (or full)
// subscriber misses the snapshot instead of deadlocking subscribe
// against the job lock.
func TestSubscribeInitialSnapshotNonBlocking(t *testing.T) {
	j := &job{done: make(chan struct{}), state: jobRunning}
	j.setProgress(experiments.Progress{Done: 1, Total: 2, Panel: "fig1(a)"})

	subscribed := make(chan struct{})
	go func() {
		j.subscribe(0) // would block forever here before the fix
		close(subscribed)
	}()
	select {
	case <-subscribed:
	case <-time.After(10 * time.Second):
		t.Fatal("subscribe(0) blocked on the initial progress snapshot")
	}

	// The zero-capacity subscriber stays registered; fan-out to it must
	// stay non-blocking too.
	j.setProgress(experiments.Progress{Done: 2, Total: 2, Panel: "fig1(b)"})

	// A subscriber with room receives the current snapshot immediately.
	ch := j.subscribe(1)
	select {
	case p := <-ch:
		if p.Done != 2 || p.Panel != "fig1(b)" {
			t.Fatalf("snapshot = %+v, want the latest progress", p)
		}
	default:
		t.Fatal("capacity-1 subscriber did not receive the snapshot")
	}
}

// TestCancelRunningJob is the end-to-end running-cancellation
// acceptance test: DELETE on a RUNNING sweep answers 202, the worker
// observes the cancel and lands the job in cancelled in bounded time,
// the SSE stream closes with a terminal `cancelled` event, nothing is
// cached for the request's key, and the server keeps serving new work.
func TestCancelRunningJob(t *testing.T) {
	ts, srv, _ := newTestServer(t, Options{Workers: 1})
	// Big enough to run for tens of seconds uncancelled — the test only
	// passes quickly because cancellation stops it within a grid point.
	req := experiments.SweepRequest{
		Experiment: "streaming", Reps: 20000, Scale: 0.01, Seed: 2,
		Dataset: "csv", Parallelism: 2, Async: true,
	}
	code, _, body := postJSON(t, ts.URL+"/v1/sweep", req)
	if code != 202 {
		t.Fatalf("async sweep = %d %q", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	pollState := func(want string, deadline time.Duration) JobStatus {
		t.Helper()
		until := time.Now().Add(deadline)
		for {
			code, b := get(t, ts.URL+"/v1/jobs/"+st.ID)
			if code != 200 {
				t.Fatalf("jobs = %d %q", code, b)
			}
			var cur JobStatus
			if err := json.Unmarshal(b, &cur); err != nil {
				t.Fatal(err)
			}
			if cur.Status == want {
				return cur
			}
			if cur.Status == jobDone || cur.Status == jobFailed {
				t.Fatalf("job reached %q while waiting for %q (%s)", cur.Status, want, cur.Error)
			}
			if time.Now().After(until) {
				t.Fatalf("job stuck in %q, want %q within %s", cur.Status, want, deadline)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	pollState(jobRunning, 30*time.Second)

	code, body = deleteJob(t, ts.URL, st.ID)
	if code != 202 {
		t.Fatalf("cancel running = %d %q, want 202", code, body)
	}
	// Bounded-time cancellation: the worker stops at its next per-point
	// check (or chunk read), far inside this deadline.
	pollState(jobCancelled, 30*time.Second)

	// The SSE stream of a cancelled job terminates with event `cancelled`.
	names, _ := readSSE(t, ts.URL+"/v1/jobs/"+st.ID+"/events")
	if names[len(names)-1] != "cancelled" {
		t.Fatalf("terminal SSE event = %q, want cancelled", names[len(names)-1])
	}
	// Its result is gone, and nothing was cached under the request key:
	// partial work is discarded, never served.
	if code, b := get(t, ts.URL+"/v1/results/"+st.ID); code != 410 {
		t.Fatalf("cancelled result = %d %q, want 410", code, b)
	}
	canon, err := req.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if srv.store.contains(cacheKey("sweep", canon)) {
		t.Fatal("cancelled sweep left bytes in the result store")
	}

	// The worker is free again: the next job runs clean.
	ok := experiments.SweepRequest{Experiment: "abl-shrink-k", Reps: 1, Scale: 0.01, Seed: 3}
	if code, _, b := postJSON(t, ts.URL+"/v1/sweep", ok); code != 200 {
		t.Fatalf("sweep after cancel = %d %q", code, b)
	}
}

// TestRunDeadlineExceededHTTP drives the timeout_ms request field end
// to end with the injected deadline hook (no wall-clock sleeps): a
// timed-out run answers 504 deadline_exceeded, caches nothing, and —
// because timeout_ms is canonical-hash-excluded like parallelism — the
// same request with any timeout shares one cache entry.
func TestRunDeadlineExceededHTTP(t *testing.T) {
	ts, srv, _ := newTestServer(t, Options{Workers: 1})
	srv.sched.timeoutCtx = func(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
		ctx, cancel := context.WithCancelCause(parent)
		cancel(context.DeadlineExceeded)
		return ctx, func() {}
	}
	req := RunRequest{Dataset: "csv", Algo: "fw", Eps: 1, Seed: 42, T: 3, TimeoutMS: 1}
	code, _, body := postJSON(t, ts.URL+"/v1/run", req)
	if code != 504 {
		t.Fatalf("timed-out run = %d %q, want 504", code, body)
	}
	if !strings.Contains(string(body), "deadline_exceeded") {
		t.Fatalf("timed-out body = %q, want deadline_exceeded", body)
	}
	// An async timeout resolves through /v1/results with the same 504.
	async := req
	async.Async = true
	code, _, body = postJSON(t, ts.URL+"/v1/run", async)
	if code != 202 {
		t.Fatalf("async timed run = %d %q", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code, _ := get(t, ts.URL+"/v1/jobs/"+st.ID); code != 200 {
			t.Fatalf("jobs = %d", code)
		}
		code, body = get(t, ts.URL+"/v1/results/"+st.ID)
		if code != 409 { // not_finished
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("async timed job never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if code != 504 || !strings.Contains(string(body), "deadline_exceeded") {
		t.Fatalf("async timed result = %d %q, want 504 deadline_exceeded", code, body)
	}

	// Nothing cached by the failures: the same request WITHOUT a timeout
	// computes fresh (miss, not hit)...
	plain := RunRequest{Dataset: "csv", Algo: "fw", Eps: 1, Seed: 42, T: 3}
	code, hdr, _ := postJSON(t, ts.URL+"/v1/run", plain)
	if code != 200 || hdr.Get("X-Htdp-Cache") != "miss" {
		t.Fatalf("post-timeout run = %d cache=%q, want 200 miss", code, hdr.Get("X-Htdp-Cache"))
	}
	// ...and once computed, a request WITH a (generous) timeout is a
	// plain cache hit: timeout_ms is excluded from the key, so it never
	// schedules a job — the poisoned hook above is not consulted.
	timed := plain
	timed.TimeoutMS = 5 * 60 * 1000
	code, hdr, _ = postJSON(t, ts.URL+"/v1/run", timed)
	if code != 200 || hdr.Get("X-Htdp-Cache") != "hit" {
		t.Fatalf("timed re-request = %d cache=%q, want 200 hit (timeout_ms outside the cache key)", code, hdr.Get("X-Htdp-Cache"))
	}

	// A negative timeout is a validation error, not a scheduled job.
	bad := plain
	bad.TimeoutMS = -5
	if code, _, b := postJSON(t, ts.URL+"/v1/run", bad); code != 400 {
		t.Fatalf("negative timeout_ms = %d %q, want 400", code, b)
	}
}

// TestServerShutdownRejectsNewWork: after Shutdown, compute endpoints
// answer 503 shutting_down while read-only endpoints keep working —
// the window cmd/htdp uses between scheduler drain and listener close.
func TestServerShutdownRejectsNewWork(t *testing.T) {
	ts, srv, _ := newTestServer(t, Options{Workers: 1})
	req := RunRequest{Dataset: "csv", Algo: "fw", Eps: 1, Seed: 9, T: 3}
	if code, _, b := postJSON(t, ts.URL+"/v1/run", req); code != 200 {
		t.Fatalf("pre-shutdown run = %d %q", code, b)
	}
	drained, cancelled := srv.Shutdown(context.Background())
	if drained != 0 || cancelled != 0 {
		t.Fatalf("idle shutdown counts = (%d, %d), want (0, 0)", drained, cancelled)
	}
	// Cached results still serve; new compute is rejected.
	if code, hdr, _ := postJSON(t, ts.URL+"/v1/run", req); code != 200 || hdr.Get("X-Htdp-Cache") != "hit" {
		t.Fatalf("post-shutdown cached run = %d cache=%q", code, hdr.Get("X-Htdp-Cache"))
	}
	fresh := RunRequest{Dataset: "csv", Algo: "lasso", Eps: 1, Seed: 10, T: 3}
	code, _, body := postJSON(t, ts.URL+"/v1/run", fresh)
	if code != 503 || !strings.Contains(string(body), "shutting_down") {
		t.Fatalf("post-shutdown fresh run = %d %q, want 503 shutting_down", code, body)
	}
	if code, _ := get(t, ts.URL+"/healthz"); code != 200 {
		t.Fatalf("healthz after shutdown = %d", code)
	}
	_, metrics := get(t, ts.URL+"/metrics")
	for _, want := range []string{"htdp_shutdown_drained_total 0", "htdp_shutdown_cancelled_total 0"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
