package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTenantStormFairness is the tenant-storm acceptance test of the
// fair-queueing front door: one tenant floods the queue while an
// interactive tenant trickles requests in, and the weighted round-robin
// must keep serving the interactive tenant — its i-th job dispatches
// within a bounded number of positions, never behind the whole flood.
// Every response stays byte-identical to the sequential reference
// (scheduling order cannot change bytes), no request is shed, and the
// per-tenant request counters reconcile exactly against a client-side
// count. Run with -race this also exercises the admission path under
// concurrent submissions.
func TestTenantStormFairness(t *testing.T) {
	tokens := writeTokenFile(t, "tok-flood flood\ntok-inter interactive\n")
	ts, srv, path := newTestServer(t, Options{Workers: 1, QueueDepth: 64, TokensPath: tokens})

	// requestCounts tallies every HTTP request we issue per tenant, for
	// the exact metrics reconciliation at the end.
	var (
		countMu       sync.Mutex
		requestCounts = map[string]int64{}
	)
	do := func(tenant, token, method, url string, body []byte) (int, []byte) {
		var rd *bytes.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		} else {
			rd = bytes.NewReader(nil)
		}
		code, _, resp := authDo(t, method, url, token, rd)
		countMu.Lock()
		requestCounts[tenant]++
		countMu.Unlock()
		return code, resp
	}

	// Occupy the single worker so the storm queues up behind it and the
	// dispatch order below is purely the scheduler's choice.
	started := make(chan struct{})
	release := make(chan struct{})
	blocker, _, err := srv.sched.submit("run", "", anonTenant, 1, 0, func(context.Context, *job) ([]byte, error) {
		close(started)
		<-release
		return []byte("x\n"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// Record the dispatch order. testDispatch runs under sched.mu, which
	// serializes the appends.
	var order []string
	srv.sched.mu.Lock()
	srv.sched.testDispatch = func(tenant string) { order = append(order, tenant) }
	srv.sched.mu.Unlock()

	// The storm: flood submits 8 async runs, interactive 4, concurrently
	// (distinct seeds everywhere so nothing coalesces).
	const floodN, interN = 8, 4
	type submitted struct {
		tenant, token, id string
		req               RunRequest
	}
	var (
		jobsMu sync.Mutex
		jobs   []submitted
	)
	submit := func(tenant, token string, seed int64) {
		req := RunRequest{Dataset: "csv", Algo: "fw", Eps: 2, Seed: seed, T: 3, Async: true}
		body, err := json.Marshal(req)
		if err != nil {
			t.Error(err)
			return
		}
		code, resp := do(tenant, token, "POST", ts.URL+"/v1/run", body)
		if code != 202 {
			t.Errorf("%s submit seed=%d = %d %q (storm must not shed within the depth bound)", tenant, seed, code, resp)
			return
		}
		var st JobStatus
		if err := json.Unmarshal(resp, &st); err != nil {
			t.Error(err)
			return
		}
		jobsMu.Lock()
		jobs = append(jobs, submitted{tenant: tenant, token: token, id: st.ID, req: req})
		jobsMu.Unlock()
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := int64(0); i < floodN; i++ {
			submit("flood", "tok-flood", 100+i)
		}
	}()
	go func() {
		defer wg.Done()
		for i := int64(0); i < interN; i++ {
			submit("interactive", "tok-inter", 200+i)
		}
	}()
	wg.Wait()
	if t.Failed() {
		close(release)
		t.FailNow()
	}

	// Drain: release the blocker and wait for every job to finish.
	close(release)
	blocker.wait()
	for _, s := range jobs {
		deadline := time.Now().Add(60 * time.Second)
		for {
			code, resp := do(s.tenant, s.token, "GET", ts.URL+"/v1/jobs/"+s.id, nil)
			if code != 200 {
				t.Fatalf("poll %s = %d %q", s.id, code, resp)
			}
			var st JobStatus
			if err := json.Unmarshal(resp, &st); err != nil {
				t.Fatal(err)
			}
			if st.Status == jobDone {
				break
			}
			if st.Status == jobFailed || st.Status == jobCancelled {
				t.Fatalf("storm job %s landed in %q: %s", s.id, st.Status, st.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("storm job %s never finished", s.id)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Fairness: in the recorded dispatch order, the i-th interactive
	// dispatch must appear within the first 2(i+1) flood/interactive
	// dispatches — the alternation bound of equal-weight round-robin.
	// A plain FIFO would put every interactive job behind flood's entire
	// backlog submitted before it.
	srv.sched.mu.Lock()
	srv.sched.testDispatch = nil
	dispatched := append([]string(nil), order...)
	srv.sched.mu.Unlock()
	var filtered []string
	for _, tenant := range dispatched {
		if tenant == "flood" || tenant == "interactive" {
			filtered = append(filtered, tenant)
		}
	}
	if len(filtered) != floodN+interN {
		t.Fatalf("dispatch order recorded %d storm jobs, want %d: %v", len(filtered), floodN+interN, filtered)
	}
	seen := 0
	for pos, tenant := range filtered {
		if tenant != "interactive" {
			continue
		}
		if bound := 2 * (seen + 1); pos >= bound {
			t.Fatalf("interactive dispatch %d at position %d, want < %d (starved): %v", seen, pos, bound, filtered)
		}
		seen++
	}
	if seen != interN {
		t.Fatalf("saw %d interactive dispatches, want %d", seen, interN)
	}

	// Byte identity: every stormed result equals the sequential
	// reference for its seed — scheduling order changed nothing.
	for _, s := range jobs {
		code, resp := do(s.tenant, s.token, "GET", ts.URL+"/v1/results/"+s.id, nil)
		if code != 200 {
			t.Fatalf("result %s = %d %q", s.id, code, resp)
		}
		if want := sequentialReference(t, path, s.req); !bytes.Equal(resp, want) {
			t.Fatalf("%s seed=%d: stormed bytes differ from sequential reference", s.tenant, s.req.Seed)
		}
	}

	// Exact metrics reconciliation: htdp_tenant_requests_total equals
	// the client-side request count for each tenant, and the queued and
	// running gauges are back to zero.
	_, metrics := get(t, ts.URL+"/metrics")
	countMu.Lock()
	defer countMu.Unlock()
	for _, tenant := range []string{"flood", "interactive"} {
		want := fmt.Sprintf("htdp_tenant_requests_total{tenant=%q} %d", tenant, requestCounts[tenant])
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metricsExcerpt(metrics))
		}
		for _, state := range []string{"queued", "running"} {
			gauge := fmt.Sprintf("htdp_tenant_jobs{tenant=%q,state=%q} 0", tenant, state)
			if !strings.Contains(string(metrics), gauge) {
				t.Errorf("metrics missing %q after drain:\n%s", gauge, metricsExcerpt(metrics))
			}
		}
	}
	// Nothing was throttled: the storm fit the depth bound and no tenant
	// quota was configured.
	if strings.Contains(string(metrics), "htdp_tenant_throttled_total{") {
		t.Errorf("unexpected throttling during the storm:\n%s", metricsExcerpt(metrics))
	}
}

// metricsExcerpt trims a metrics dump to its tenant section for
// readable failures.
func metricsExcerpt(metrics []byte) string {
	var keep []string
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.Contains(line, "tenant") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// TestWeightedFairShare pins the weight semantics of the round-robin
// directly on the scheduler: a weight-2 tenant receives two dispatches
// per rotation against a weight-1 tenant's one, deterministically.
func TestWeightedFairShare(t *testing.T) {
	s := newScheduler(1, 64, 0, 0, 0, neverStored)
	defer s.close(context.Background())
	started := make(chan struct{})
	release := make(chan struct{})
	if _, _, err := s.submit("run", "", "blocker", 1, 0, func(context.Context, *job) ([]byte, error) {
		close(started)
		<-release
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	var order []string
	s.mu.Lock()
	s.testDispatch = func(tenant string) { order = append(order, tenant) }
	s.mu.Unlock()
	var jobs []*job
	noop := func(context.Context, *job) ([]byte, error) { return []byte("x\n"), nil }
	for i := 0; i < 6; i++ {
		j, _, err := s.submit("run", "", "heavy", 2, 0, noop)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for i := 0; i < 3; i++ {
		j, _, err := s.submit("run", "", "light", 1, 0, noop)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	close(release)
	for _, j := range jobs {
		j.wait()
	}
	s.mu.Lock()
	s.testDispatch = nil
	got := strings.Join(order, ",")
	s.mu.Unlock()
	// Deterministic: heavy spends its 2 credits, light its 1, repeating
	// until both queues drain.
	want := "heavy,heavy,light,heavy,heavy,light,heavy,heavy,light"
	if got != want {
		t.Fatalf("weighted dispatch order:\n got %s\nwant %s", got, want)
	}
}

// TestTenantJobsCapThrottlesDispatchOnly: a tenant at its running-jobs
// cap keeps its work queued — no error — while other tenants dispatch
// past it.
func TestTenantJobsCapThrottlesDispatchOnly(t *testing.T) {
	s := newScheduler(2, 64, 0, 1, 0, neverStored) // 2 workers, 1 running job per tenant
	defer s.close(context.Background())
	started := make(chan struct{})
	release := make(chan struct{})
	capped, _, err := s.submit("run", "", "alice", 1, 0, func(context.Context, *job) ([]byte, error) {
		close(started)
		<-release
		return []byte("a\n"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// Alice's second job queues behind her cap; bob's runs immediately
	// on the free worker.
	second, _, err := s.submit("run", "", "alice", 1, 0, func(context.Context, *job) ([]byte, error) {
		return []byte("a2\n"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	bob, _, err := s.submit("run", "", "bob", 1, 0, func(context.Context, *job) ([]byte, error) {
		return []byte("b\n"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	bob.wait()
	if st := second.status(); st.Status != jobQueued {
		t.Fatalf("capped tenant's second job = %q, want still queued", st.Status)
	}
	close(release)
	capped.wait()
	second.wait()
	if st := second.status(); st.Status != jobDone {
		t.Fatalf("capped job after slot freed = %q, want done", st.Status)
	}
}

// TestCrossTenantSingleflight is the regression test for cache-key
// tenancy exclusion: identical requests from two tenants coalesce onto
// ONE computation and one cache entry, the follower can observe the
// shared job but not cancel it, and both tenants receive byte-identical
// results.
func TestCrossTenantSingleflight(t *testing.T) {
	tokens := writeTokenFile(t, "tok-alice alice\ntok-bob bob\n")
	ts, srv, path := newTestServer(t, Options{Workers: 1, QueueDepth: 8, TokensPath: tokens})
	// Occupy the single worker so both submissions take the miss path
	// before any compute runs.
	started := make(chan struct{})
	release := make(chan struct{})
	blocker, _, err := srv.sched.submit("run", "", anonTenant, 1, 0, func(context.Context, *job) ([]byte, error) {
		close(started)
		<-release
		return []byte("x\n"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	req := RunRequest{Dataset: "csv", Algo: "lasso", Eps: 1, Seed: 321, T: 3, Async: true}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	code, _, resp := authDo(t, "POST", ts.URL+"/v1/run", "tok-alice", bytes.NewReader(body))
	if code != 202 {
		t.Fatalf("alice async miss = %d %q", code, resp)
	}
	var leader JobStatus
	if err := json.Unmarshal(resp, &leader); err != nil {
		t.Fatal(err)
	}
	// Bob's identical request coalesces onto alice's job: same id, the
	// coalesced header, exactly zero extra jobs scheduled.
	code, hdr, resp := authDo(t, "POST", ts.URL+"/v1/run", "tok-bob", bytes.NewReader(body))
	if code != 202 || hdr.Get("X-Htdp-Cache") != "coalesced" {
		t.Fatalf("bob async follower = %d cache=%q", code, hdr.Get("X-Htdp-Cache"))
	}
	var follower JobStatus
	if err := json.Unmarshal(resp, &follower); err != nil {
		t.Fatal(err)
	}
	if follower.ID != leader.ID {
		t.Fatalf("follower job %s != leader job %s: cross-tenant requests did not coalesce", follower.ID, leader.ID)
	}
	// The attached follower may watch the shared job...
	if code, _, _ := authDo(t, "GET", ts.URL+"/v1/jobs/"+leader.ID, "tok-bob", nil); code != 200 {
		t.Fatal("attached follower cannot see the shared job")
	}
	// ...but not cancel it: that would discard alice's computation too.
	code, _, resp = authDo(t, "DELETE", ts.URL+"/v1/jobs/"+leader.ID, "tok-bob", nil)
	if code != 403 || !strings.Contains(string(resp), "forbidden") {
		t.Fatalf("follower DELETE = %d %q, want 403 forbidden", code, resp)
	}

	close(release)
	blocker.wait()
	// Both tenants resolve the job to byte-identical results...
	want := sequentialReference(t, path, RunRequest{Dataset: "csv", Algo: "lasso", Eps: 1, Seed: 321, T: 3})
	var results [][]byte
	for _, token := range []string{"tok-alice", "tok-bob"} {
		deadline := time.Now().Add(30 * time.Second)
		for {
			code, _, resp := authDo(t, "GET", ts.URL+"/v1/results/"+leader.ID, token, nil)
			if code == 200 {
				results = append(results, resp)
				break
			}
			if code != 409 { // not_finished
				t.Fatalf("result as %s = %d %q", token, code, resp)
			}
			if time.Now().After(deadline) {
				t.Fatal("shared job never finished")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	for i, b := range results {
		if !bytes.Equal(b, want) {
			t.Fatalf("result %d differs from sequential reference", i)
		}
	}
	// ...and the accounting proves one execution: 1 coalesce and ONE
	// cache entry (each tenant's lookup counts its own store miss, but
	// only the leader computed and stored anything), serving a later
	// sync request from either tenant.
	_, metrics := get(t, ts.URL+"/metrics")
	for _, wantLine := range []string{
		"htdp_singleflight_coalesced_total 1",
		"htdp_cache_entries 1",
	} {
		if !strings.Contains(string(metrics), wantLine) {
			t.Errorf("metrics missing %q", wantLine)
		}
	}
	sync := req
	sync.Async = false
	body, err = json.Marshal(sync)
	if err != nil {
		t.Fatal(err)
	}
	code, hdr, resp = authDo(t, "POST", ts.URL+"/v1/run", "tok-bob", bytes.NewReader(body))
	if code != 200 || hdr.Get("X-Htdp-Cache") != "hit" {
		t.Fatalf("bob sync re-request = %d cache=%q, want 200 hit", code, hdr.Get("X-Htdp-Cache"))
	}
	if !bytes.Equal(resp, want) {
		t.Fatal("cross-tenant cached bytes differ")
	}
}

// TestTenantMetricsParse sanity-checks the tenant series against the
// exposition format: every htdp_tenant_* line is `name{labels} value`
// with sorted, bounded labels.
func TestTenantMetricsParse(t *testing.T) {
	tokens := writeTokenFile(t, "tok-alice alice\ntok-bob bob 2\n")
	ts, _, _ := newTestServer(t, Options{TokensPath: tokens})
	for _, token := range []string{"tok-alice", "tok-bob", "tok-alice"} {
		if code, _, _ := authDo(t, "GET", ts.URL+"/v1/experiments", token, nil); code != 200 {
			t.Fatal("seed request failed")
		}
	}
	_, metrics := get(t, ts.URL+"/metrics")
	line := regexp.MustCompile(`^htdp_tenant_[a-z_]+\{[a-z]+="[a-z]+"(,[a-z]+="[a-z_]+")?\} \d+$`)
	var tenantLines int
	for _, l := range strings.Split(string(metrics), "\n") {
		if !strings.HasPrefix(l, "htdp_tenant_") {
			continue
		}
		tenantLines++
		if !line.MatchString(l) {
			t.Errorf("malformed tenant series line: %q", l)
		}
	}
	if tenantLines < 2 {
		t.Fatalf("expected per-tenant request counters for both tenants, got %d lines:\n%s", tenantLines, metricsExcerpt(metrics))
	}
	if !strings.Contains(string(metrics), `htdp_tenant_requests_total{tenant="alice"} 2`) ||
		!strings.Contains(string(metrics), `htdp_tenant_requests_total{tenant="bob"} 1`) {
		t.Fatalf("request counters do not reconcile:\n%s", metricsExcerpt(metrics))
	}
}
