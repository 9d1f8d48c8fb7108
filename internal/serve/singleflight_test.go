package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"htdp/internal/experiments"
)

// neverStored is the store hook of scheduler-only tests: the store
// holds nothing, so a free key always schedules a job.
func neverStored(string) bool { return false }

// holdWorker occupies a one-worker scheduler with an unkeyed blocker.
// The returned func lets the blocker finish and waits for it; a test
// that fails first still frees the worker at cleanup, so the server's
// drain never hangs.
func holdWorker(t *testing.T, s *scheduler) (release func()) {
	t.Helper()
	started, done := make(chan struct{}), make(chan struct{})
	j, _, err := s.submit("run", "", "blocker", 1, 0, func(context.Context, *job) ([]byte, error) {
		close(started)
		<-done
		return []byte("x\n"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { openGate(done) })
	<-started
	return func() {
		openGate(done)
		j.wait()
	}
}

// openGate closes a test's release channel unless it is already closed.
// Only the test goroutine and its cleanups call it.
func openGate(ch chan struct{}) {
	select {
	case <-ch:
	default:
		close(ch)
	}
}

// keyHeld reports whether a job holds key in the scheduler's
// singleflight registry.
func keyHeld(s *scheduler, key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.inflight[key]
	return ok
}

// TestKeyLifecycle pins the invariant of the scheduler's singleflight
// registry: every path that ends a keyed job releases its key. While
// the job is unfinished a submit of its key joins it (same job,
// joined=true, one more coalesced); after it ended a submit of the key
// creates a new job. A running job that is cancelled releases the key
// at cancel time, while it is still winding down.
func TestKeyLifecycle(t *testing.T) {
	const key = "k"
	boom := errors.New("boom")
	cases := []struct {
		name    string
		queued  bool  // a blocker holds the worker, so the job never runs
		fnErr   error // what the job's fn returns once released
		end     func(t *testing.T, s *scheduler, j *job, release chan struct{})
		winding bool // the job is still running after end
		closed  bool // end closed the scheduler
		want    string
	}{
		{name: "done", end: func(_ *testing.T, _ *scheduler, _ *job, release chan struct{}) { close(release) }, want: jobDone},
		{name: "failed", fnErr: boom, end: func(_ *testing.T, _ *scheduler, _ *job, release chan struct{}) { close(release) }, want: jobFailed},
		{name: "delete while queued", queued: true, end: func(t *testing.T, s *scheduler, j *job, _ chan struct{}) {
			if pending, err := s.cancel(j); pending || err != nil {
				t.Fatalf("cancel queued = (%v, %v), want (false, nil)", pending, err)
			}
		}, want: jobCancelled},
		{name: "delete while running", end: func(t *testing.T, s *scheduler, j *job, _ chan struct{}) {
			if pending, err := s.cancel(j); !pending || err != nil {
				t.Fatalf("cancel running = (%v, %v), want (true, nil)", pending, err)
			}
		}, winding: true, want: jobCancelled},
		{name: "cancelTenant while queued", queued: true, end: func(t *testing.T, s *scheduler, _ *job, _ chan struct{}) {
			if n := s.cancelTenant("alice", errTenantRevoked); n != 1 {
				t.Fatalf("cancelTenant = %d, want 1", n)
			}
		}, want: jobCancelled},
		{name: "cancelTenant while running", end: func(t *testing.T, s *scheduler, _ *job, _ chan struct{}) {
			if n := s.cancelTenant("alice", errTenantRevoked); n != 1 {
				t.Fatalf("cancelTenant = %d, want 1", n)
			}
		}, winding: true, want: jobCancelled},
		{name: "close flush", queued: true, end: func(t *testing.T, s *scheduler, _ *job, _ chan struct{}) {
			go s.close(context.Background())
			waitClosed(t, s)
		}, closed: true, want: jobCancelled},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := newScheduler(1, 8, 0, 0, 0, neverStored)
			t.Cleanup(func() { s.close(context.Background()) })
			unblock := func() {}
			if c.queued {
				unblock = holdWorker(t, s)
			}
			// Both gates open at cleanup at the latest, so a failing row
			// never leaves the drain waiting on a blocked job.
			release, freshRelease := make(chan struct{}), make(chan struct{})
			t.Cleanup(func() { openGate(release); openGate(freshRelease) })
			started := make(chan struct{})
			j, joined, err := s.submit("run", key, "alice", 1, 0, func(ctx context.Context, _ *job) ([]byte, error) {
				close(started)
				<-release // the job returns only when the test says so
				if cause := context.Cause(ctx); cause != nil {
					return nil, cause
				}
				return []byte("k\n"), c.fnErr
			})
			if err != nil || joined {
				t.Fatalf("first submit = (joined %v, %v), want a new job", joined, err)
			}
			if !c.queued {
				<-started
			}

			// Unfinished: an identical submit joins the job.
			before := s.coalescedCount()
			follower, joined, err := s.submit("run", key, "bob", 1, 0, nil)
			if err != nil || !joined || follower != j {
				t.Fatalf("submit of a held key = (%v, joined %v, %v), want the holder joined", follower, joined, err)
			}
			if got := s.coalescedCount(); got != before+1 {
				t.Fatalf("coalesced = %d, want %d", got, before+1)
			}
			if !j.visibleTo("bob") {
				t.Fatal("joining tenant cannot see the job")
			}

			c.end(t, s, j, release)
			if c.winding {
				if st := j.status().Status; st != jobRunning {
					t.Fatalf("cancelled job = %q, want still running", st)
				}
			} else {
				j.wait()
			}
			if keyHeld(s, key) {
				t.Fatal("the ended job still holds its key")
			}

			// Ended: an identical submit creates a new job (or, once
			// closed, is refused without joining the flushed one).
			fresh, joined, err := s.submit("run", key, "carol", 1, 0, func(context.Context, *job) ([]byte, error) {
				<-freshRelease
				return []byte("k\n"), nil
			})
			switch {
			case c.closed:
				if err == nil || joined {
					t.Fatalf("submit after close = (joined %v, %v), want refused", joined, err)
				}
			case err != nil || joined || fresh == j:
				t.Fatalf("submit after the job ended = (joined %v, same job %v, %v), want a new job", joined, fresh == j, err)
			}
			if got := s.coalescedCount(); got != before+1 {
				t.Fatalf("coalesced after a fresh submit = %d, want %d", got, before+1)
			}

			openGate(release)
			unblock()
			j.wait()
			if st := j.status(); st.Status != c.want {
				t.Fatalf("job ended as %+v, want %s", st, c.want)
			}
			// The old job's late finish must not release the new holder.
			if !c.closed {
				if again, joined, err := s.submit("run", key, "dave", 1, 0, nil); err != nil || !joined || again != fresh {
					t.Fatalf("submit after the old job finished = (joined %v, %v), want the new holder joined", joined, err)
				}
			}
		})
	}
}

// TestStoredKeyRegistersNothing: a key the result store already holds
// answers errStored from submit and registers nothing — no queue slot,
// no retention slot, no job id, no registry entry.
func TestStoredKeyRegistersNothing(t *testing.T) {
	s := newScheduler(1, 4, 0, 0, 0, func(key string) bool { return key == "stored" })
	defer s.close(context.Background())
	noop := func(context.Context, *job) ([]byte, error) { return []byte("x\n"), nil }
	if j, joined, err := s.submit("run", "stored", "alice", 1, 0, noop); !errors.Is(err, errStored) || joined || j != nil {
		t.Fatalf("submit of a stored key = (%v, joined %v, %v), want errStored", j, joined, err)
	}
	s.mu.Lock()
	queued, retained, next, held := s.queuedTotal, len(s.jobs), s.next, len(s.inflight)
	s.mu.Unlock()
	if queued != 0 || retained != 0 || next != 0 || held != 0 {
		t.Fatalf("after errStored: queued %d, retained %d, job ids %d, keys held %d; want all 0", queued, retained, next, held)
	}
	j, _, err := s.submit("run", "free", "alice", 1, 0, noop)
	if err != nil {
		t.Fatal(err)
	}
	if j.id != "job-000001" {
		t.Fatalf("next job id = %s, want job-000001", j.id)
	}
	j.wait()
}

// TestDrainingSchedulerJoinsHeldKey: joining is checked before the
// closed flag, so a request arriving while a shutdown drains a running
// keyed job still joins it, while a free key is refused.
func TestDrainingSchedulerJoinsHeldKey(t *testing.T) {
	s := newScheduler(1, 4, 0, 0, 0, neverStored)
	started, release := make(chan struct{}), make(chan struct{})
	t.Cleanup(func() { openGate(release) })
	j, _, err := s.submit("run", "k", "alice", 1, 0, func(context.Context, *job) ([]byte, error) {
		close(started)
		<-release
		return []byte("k\n"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	closed := make(chan struct{})
	go func() {
		s.close(context.Background())
		close(closed)
	}()
	waitClosed(t, s)
	if got, joined, err := s.submit("run", "k", "bob", 1, 0, nil); err != nil || !joined || got != j {
		t.Fatalf("submit of a running key during the drain = (joined %v, %v), want it joined", joined, err)
	}
	if _, _, err := s.submit("run", "other", "bob", 1, 0, nil); err == nil {
		t.Fatal("submit of a free key during the drain succeeded, want refused")
	}
	openGate(release)
	<-closed
	if st := j.status().Status; st != jobDone {
		t.Fatalf("drained job = %q, want done", st)
	}
}

// httpReply is one HTTP response collected off the test goroutine.
type httpReply struct {
	code int
	hdr  http.Header
	body []byte
	err  error
}

// postAsync POSTs body as JSON with a Bearer token (empty = none) on
// its own goroutine, so the test can act while the request waits on a
// job.
func postAsync(url, token string, body any) <-chan httpReply {
	ch := make(chan httpReply, 1)
	go func() {
		b, err := json.Marshal(body)
		if err != nil {
			ch <- httpReply{err: err}
			return
		}
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
		if err != nil {
			ch <- httpReply{err: err}
			return
		}
		req.Header.Set("Content-Type", "application/json")
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			ch <- httpReply{err: err}
			return
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		ch <- httpReply{code: resp.StatusCode, hdr: resp.Header, body: out, err: err}
	}()
	return ch
}

// awaitReply receives a reply, failing the test on a transport error
// or when none arrives within 30 seconds — a request left waiting on a
// job that will not end before the test releases it.
func awaitReply(t *testing.T, ch <-chan httpReply) httpReply {
	t.Helper()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r
	case <-time.After(30 * time.Second):
		t.Fatal("no reply within 30s")
		return httpReply{}
	}
}

// revoke rewrites the token file and reloads it, cancelling the jobs of
// every tenant that lost its last token.
func revoke(t *testing.T, srv *Server, tokensPath, remaining string) {
	t.Helper()
	if err := os.WriteFile(tokensPath, []byte(remaining), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := srv.ReloadTokens(); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it holds, failing after ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRevokedQueuedJobReleasesKey: revoking a tenant whose keyed job is
// still queued releases the job's key. Another tenant's identical sync
// request — sent after the revocation, or already waiting on the job
// when it happened — computes afresh and answers 200 miss with the
// reference bytes, instead of joining the cancelled job until it gives
// up with 409.
func TestRevokedQueuedJobReleasesKey(t *testing.T) {
	for _, waiting := range []bool{false, true} {
		t.Run(fmt.Sprintf("waiting=%v", waiting), func(t *testing.T) {
			tokens := writeTokenFile(t, "tok-alice alice\ntok-bob bob\n")
			ts, srv, path := newTestServer(t, Options{Workers: 1, QueueDepth: 8, TokensPath: tokens})
			release := holdWorker(t, srv.sched)
			req := RunRequest{Dataset: "csv", Algo: "fw", Eps: 2, Seed: 41, T: 3}
			async := req
			async.Async = true
			if r := awaitReply(t, postAsync(ts.URL+"/v1/run", "tok-alice", async)); r.code != 202 {
				t.Fatalf("alice async run = %d %q", r.code, r.body)
			}
			var bob <-chan httpReply
			wantCoalesced := int64(0)
			if waiting {
				bob = postAsync(ts.URL+"/v1/run", "tok-bob", req)
				waitFor(t, "bob to join alice's job", func() bool { return srv.sched.coalescedCount() == 1 })
				wantCoalesced = 1
			}
			revoke(t, srv, tokens, "tok-bob bob\n")
			release()
			if !waiting {
				bob = postAsync(ts.URL+"/v1/run", "tok-bob", req)
			}
			r := awaitReply(t, bob)
			if r.code != 200 || r.hdr.Get("X-Htdp-Cache") != "miss" {
				t.Fatalf("bob's run = %d cache=%q %q, want 200 miss", r.code, r.hdr.Get("X-Htdp-Cache"), r.body)
			}
			if !bytes.Equal(r.body, sequentialReference(t, path, req)) {
				t.Fatal("bob's bytes differ from the sequential reference")
			}
			if got := srv.sched.coalescedCount(); got != wantCoalesced {
				t.Fatalf("coalesced = %d, want %d", got, wantCoalesced)
			}
		})
	}
}

// TestShutdownFlushedJobReleasesKey: a keyed job that Shutdown flushes
// from the queue releases its key, so the identical request answers 503
// shutting_down instead of joining the flushed job until it gives up
// with 409.
func TestShutdownFlushedJobReleasesKey(t *testing.T) {
	ts, srv, _ := newTestServer(t, Options{Workers: 1, QueueDepth: 8})
	release := holdWorker(t, srv.sched)
	req := RunRequest{Dataset: "csv", Algo: "fw", Eps: 2, Seed: 43, T: 3}
	async := req
	async.Async = true
	code, _, body := postJSON(t, ts.URL+"/v1/run", async)
	if code != 202 {
		t.Fatalf("async run = %d %q", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	shut := make(chan struct{})
	go func() {
		srv.Shutdown(context.Background())
		close(shut)
	}()
	waitClosed(t, srv.sched)
	if code, b := get(t, ts.URL+"/v1/jobs/"+st.ID); code != 200 || !strings.Contains(string(b), `"cancelled"`) {
		t.Fatalf("flushed job = %d %q, want cancelled", code, b)
	}
	code, _, body = postJSON(t, ts.URL+"/v1/run", req)
	if code != 503 || !strings.Contains(string(body), "shutting_down") {
		t.Fatalf("identical run after the flush = %d %q, want 503 shutting_down", code, body)
	}
	release()
	<-shut
}

// TestDeleteRunningJobReleasesKey: DELETE of a running keyed job
// releases the key at cancel time, so an immediate identical request
// computes afresh — 200 miss with the reference bytes — while the
// cancelled job is still winding down, instead of joining it.
func TestDeleteRunningJobReleasesKey(t *testing.T) {
	ts, srv, path := newTestServer(t, Options{Workers: 2, QueueDepth: 8})
	// An explicit delta keeps the key independent of the dataset's n.
	req := RunRequest{Dataset: "csv", Algo: "fw", Eps: 2, Delta: 1e-3, Seed: 47, T: 3}
	canon, err := req.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	started, release := make(chan struct{}), make(chan struct{})
	t.Cleanup(func() { openGate(release) })
	dying, _, err := srv.sched.submit("run", cacheKey("run", canon), anonTenant, 1, 0, func(ctx context.Context, _ *job) ([]byte, error) {
		close(started)
		<-release // winds down only when the test says so
		return nil, context.Cause(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if code, body := deleteJob(t, ts.URL, dying.id); code != 202 {
		t.Fatalf("DELETE running = %d %q, want 202", code, body)
	}
	r := awaitReply(t, postAsync(ts.URL+"/v1/run", "", req))
	if r.code != 200 || r.hdr.Get("X-Htdp-Cache") != "miss" {
		t.Fatalf("identical run after DELETE = %d cache=%q %q, want 200 miss", r.code, r.hdr.Get("X-Htdp-Cache"), r.body)
	}
	if !bytes.Equal(r.body, sequentialReference(t, path, req)) {
		t.Fatal("bytes differ from the sequential reference")
	}
	if st := dying.status().Status; st != jobRunning {
		t.Fatalf("deleted job = %q, want still winding down", st)
	}
	openGate(release)
	dying.wait()
	if st := dying.status().Status; st != jobCancelled {
		t.Fatalf("deleted job ended as %q, want cancelled", st)
	}
}

// TestRevokedRequestNotResubmitted: a sync request whose own tenant is
// revoked while it waits answers 401 with the Bearer challenge, and its
// computation is not submitted again — the tenant is left with nothing
// queued and nothing running, whether its job was running or queued
// when the revocation cancelled it.
func TestRevokedRequestNotResubmitted(t *testing.T) {
	for _, queued := range []bool{false, true} {
		t.Run(fmt.Sprintf("queued=%v", queued), func(t *testing.T) {
			tokens := writeTokenFile(t, "tok-alice alice\ntok-bob bob\n")
			ts, srv, _ := newTestServer(t, Options{Workers: 1, QueueDepth: 8, TokensPath: tokens})
			release := func() {}
			if queued {
				release = holdWorker(t, srv.sched)
			}
			// Long enough to still be running when the revocation lands;
			// cancellation stops it within a grid point.
			req := experiments.SweepRequest{Experiment: "streaming", Reps: 2000, Scale: 0.01, Seed: 5, Dataset: "csv", Parallelism: 2}
			alice := postAsync(ts.URL+"/v1/sweep", "tok-alice", req)
			waitFor(t, "alice's job", func() bool {
				q, r := srv.sched.tenantCounts()
				return (queued && q["alice"] == 1) || (!queued && r["alice"] == 1)
			})
			revoke(t, srv, tokens, "tok-bob bob\n")
			r := awaitReply(t, alice)
			if r.code != 401 || !strings.Contains(string(r.body), "unauthorized") {
				t.Fatalf("revoked tenant's sweep = %d %q, want 401 unauthorized", r.code, r.body)
			}
			if got := r.hdr.Get("WWW-Authenticate"); got != `Bearer realm="htdp"` {
				t.Fatalf("WWW-Authenticate = %q, want the Bearer challenge", got)
			}
			waitFor(t, "alice to hold no jobs", func() bool {
				q, r := srv.sched.tenantCounts()
				return q["alice"] == 0 && r["alice"] == 0
			})
			release()
		})
	}
}
