package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"htdp/internal/data"
)

// writeTokenFile writes a token table to a temp file and returns its
// path.
func writeTokenFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tokens")
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// authDo issues one request carrying an API token as a Bearer header
// (empty token = no credentials).
func authDo(t *testing.T, method, url, token string, body io.Reader) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
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

func TestParseTokens(t *testing.T) {
	for _, tc := range []struct {
		name    string
		in      string
		wantErr string // "" = parse succeeds
		want    map[string]tenantEntry
	}{
		{
			name: "basic",
			in:   "tok-a alice\ntok-b bob 3\n",
			want: map[string]tenantEntry{
				"tok-a": {tenant: "alice", weight: 1},
				"tok-b": {tenant: "bob", weight: 3},
			},
		},
		{
			name: "comments and blanks",
			in:   "# header comment\n\ntok-a alice # trailing comment\n   \n",
			want: map[string]tenantEntry{"tok-a": {tenant: "alice", weight: 1}},
		},
		{
			name: "two tokens one tenant",
			in:   "tok-a alice 2\ntok-a2 alice 2\n",
			want: map[string]tenantEntry{
				"tok-a":  {tenant: "alice", weight: 2},
				"tok-a2": {tenant: "alice", weight: 2},
			},
		},
		{name: "one field", in: "just-a-token\n", wantErr: "line 1"},
		{name: "four fields", in: "tok a 1 extra\n", wantErr: "line 1"},
		{name: "weight not a number", in: "tok alice heavy\n", wantErr: "weight"},
		{name: "weight zero", in: "tok alice 0\n", wantErr: "below 1"},
		{name: "duplicate token", in: "tok alice\ntok bob\n", wantErr: "duplicate token"},
		{name: "conflicting weights", in: "tok-a alice 1\ntok-a2 alice 2\n", wantErr: "conflicting weights"},
		{name: "error names its line", in: "tok-a alice\nbroken\n", wantErr: "line 2"},
	} {
		got, err := parseTokens(strings.NewReader(tc.in))
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: parsed %d tokens, want %d", tc.name, len(got), len(tc.want))
			continue
		}
		for tok, want := range tc.want {
			if got[tok] != want {
				t.Errorf("%s: token %q = %+v, want %+v", tc.name, tok, got[tok], want)
			}
		}
	}
}

func TestRequestToken(t *testing.T) {
	for _, tc := range []struct {
		name, header, value, want string
	}{
		{"bearer", "Authorization", "Bearer tok-a", "tok-a"},
		{"bearer lowercase scheme", "Authorization", "bearer tok-a", "tok-a"},
		{"bearer padded", "Authorization", "Bearer   tok-a  ", "tok-a"},
		{"basic scheme ignored", "Authorization", "Basic dXNlcg==", ""},
		{"bare token not a scheme", "Authorization", "tok-a", ""},
		{"custom header", "X-Htdp-Token", "tok-b", "tok-b"},
		{"no credentials", "", "", ""},
	} {
		r, err := http.NewRequest("GET", "http://example/v1/experiments", nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.header != "" {
			r.Header.Set(tc.header, tc.value)
		}
		if got := requestToken(r); got != tc.want {
			t.Errorf("%s: token = %q, want %q", tc.name, got, tc.want)
		}
	}
	// A malformed Authorization header wins over (hides) X-Htdp-Token:
	// ambiguous credentials never silently fall through.
	r, _ := http.NewRequest("GET", "http://example/", nil)
	r.Header.Set("Authorization", "Basic zzz")
	r.Header.Set("X-Htdp-Token", "tok-a")
	if got := requestToken(r); got != "" {
		t.Errorf("malformed Authorization + X-Htdp-Token = %q, want empty", got)
	}
}

// TestLimiterRefill drives the token bucket with an injected clock: no
// sleeps, exact refill math.
func TestLimiterRefill(t *testing.T) {
	now := time.Unix(1000, 0)
	l := newLimiter(1, 2) // 1 token/s, burst 2
	l.now = func() time.Time { return now }

	// Buckets start full: the first burst passes.
	for i := 0; i < 2; i++ {
		if ok, _ := l.allow("alice"); !ok {
			t.Fatalf("burst request %d denied", i)
		}
	}
	ok, retry := l.allow("alice")
	if ok {
		t.Fatal("third request within the burst should be denied")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retryAfter = %v, want (0, 1s]", retry)
	}
	// Tenants are independent buckets.
	if ok, _ := l.allow("bob"); !ok {
		t.Fatal("bob's fresh bucket denied")
	}
	// One second refills one token...
	now = now.Add(time.Second)
	if ok, _ := l.allow("alice"); !ok {
		t.Fatal("refilled token denied")
	}
	if ok, _ := l.allow("alice"); ok {
		t.Fatal("second token after 1s refill should not exist")
	}
	// ...and refill caps at burst, not unbounded.
	now = now.Add(time.Hour)
	for i := 0; i < 2; i++ {
		if ok, _ := l.allow("alice"); !ok {
			t.Fatalf("post-idle burst request %d denied", i)
		}
	}
	if ok, _ := l.allow("alice"); ok {
		t.Fatal("idle refill exceeded burst")
	}
	// rate <= 0 disables limiting.
	open := newLimiter(0, 1)
	for i := 0; i < 100; i++ {
		if ok, _ := open.allow("anyone"); !ok {
			t.Fatal("disabled limiter denied a request")
		}
	}
}

// TestAuthResolution is the table-driven 401 matrix of the front door:
// which credentials resolve, which are rejected, and which paths skip
// auth entirely.
func TestAuthResolution(t *testing.T) {
	tokens := writeTokenFile(t, "tok-alice alice\ntok-bob bob 2 # weighted\n")
	ts, _, _ := newTestServer(t, Options{TokensPath: tokens})
	for _, tc := range []struct {
		name, header, value string
		code                int
	}{
		{"no credentials", "", "", 401},
		{"unknown token", "Authorization", "Bearer nope", 401},
		{"wrong scheme", "Authorization", "Basic tok-alice", 401},
		{"bearer", "Authorization", "Bearer tok-alice", 200},
		{"bearer case-insensitive", "Authorization", "bearer tok-alice", 200},
		{"custom header", "X-Htdp-Token", "tok-bob", 200},
		{"custom header unknown", "X-Htdp-Token", "nope", 401},
	} {
		req, err := http.NewRequest("GET", ts.URL+"/v1/experiments", nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.header != "" {
			req.Header.Set(tc.header, tc.value)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status = %d %q, want %d", tc.name, resp.StatusCode, body, tc.code)
			continue
		}
		if tc.code == 401 {
			if resp.Header.Get("WWW-Authenticate") == "" {
				t.Errorf("%s: 401 without a WWW-Authenticate challenge", tc.name)
			}
			var env errorBody
			if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "unauthorized" {
				t.Errorf("%s: 401 body = %q, want the unauthorized envelope", tc.name, body)
			}
		}
	}

	// Liveness and scrape endpoints stay open: no token needed.
	if code, _ := get(t, ts.URL+"/healthz"); code != 200 {
		t.Fatalf("healthz without token = %d", code)
	}
	if code, _ := get(t, ts.URL+"/metrics"); code != 200 {
		t.Fatalf("metrics without token = %d", code)
	}
	// Compute without a token is rejected before the handler: a valid
	// request body changes nothing.
	body, _ := json.Marshal(RunRequest{Dataset: "csv", Algo: "fw"})
	if code, _, _ := authDo(t, "POST", ts.URL+"/v1/run", "", bytes.NewReader(body)); code != 401 {
		t.Fatalf("unauthenticated run = %d, want 401", code)
	}
}

// TestNoAuthPassthrough: with Options.NoAuth every request — with any
// token, or none — resolves to the shared anonymous tenant, and the
// whole admission machinery stays live under that identity.
func TestNoAuthPassthrough(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	if code, _ := get(t, ts.URL+"/v1/experiments"); code != 200 {
		t.Fatalf("noauth without token = %d", code)
	}
	// A stray token is ignored, not rejected.
	if code, _, _ := authDo(t, "GET", ts.URL+"/v1/experiments", "whatever", nil); code != 200 {
		t.Fatal("noauth with a token should still pass")
	}
	_, metrics := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), `htdp_tenant_requests_total{tenant="anonymous"}`) {
		t.Fatalf("noauth requests not metered under the anonymous tenant:\n%s", metrics)
	}
}

// TestServerAuthConfigErrors pins New's fail-fast contract: no silent
// unauthenticated boot, no contradictory options, no deferred token
// file errors.
func TestServerAuthConfigErrors(t *testing.T) {
	path, _ := testCSV(t, 3, 40, 3)
	pool := newPoolWithCSV(t, path)
	if _, err := New(pool, Options{}); err == nil || !strings.Contains(err.Error(), "NoAuth") {
		t.Fatalf("New without auth config = %v, want fail-fast naming the opt-out", err)
	}
	tokens := writeTokenFile(t, "tok alice\n")
	if _, err := New(pool, Options{TokensPath: tokens, NoAuth: true}); err == nil {
		t.Fatal("TokensPath+NoAuth: expected mutual-exclusion error")
	}
	if _, err := New(pool, Options{TokensPath: filepath.Join(t.TempDir(), "gone")}); err == nil {
		t.Fatal("missing token file: expected startup error")
	}
	if _, err := New(pool, Options{TokensPath: writeTokenFile(t, "broken\n")}); err == nil {
		t.Fatal("malformed token file: expected startup error")
	}
}

// TestJobVisibilityAcrossTenants: job ids are tenant-scoped. Another
// tenant's id answers 404 everywhere — the same 404 as a nonexistent id,
// so ids cannot be probed — and only the submitter may cancel.
func TestJobVisibilityAcrossTenants(t *testing.T) {
	tokens := writeTokenFile(t, "tok-alice alice\ntok-bob bob\n")
	ts, _, _ := newTestServer(t, Options{TokensPath: tokens})
	body, _ := json.Marshal(RunRequest{Dataset: "csv", Algo: "fw", Seed: 11, T: 3, Async: true})
	code, _, resp := authDo(t, "POST", ts.URL+"/v1/run", "tok-alice", bytes.NewReader(body))
	if code != 202 {
		t.Fatalf("alice async run = %d %q", code, resp)
	}
	var st JobStatus
	if err := json.Unmarshal(resp, &st); err != nil {
		t.Fatal(err)
	}
	if st.Tenant != "alice" {
		t.Fatalf("job tenant = %q, want alice", st.Tenant)
	}

	unknown404 := func(token, url string) []byte {
		t.Helper()
		code, _, b := authDo(t, "GET", url, token, nil)
		if code != 404 {
			t.Fatalf("GET %s as %s = %d %q, want 404", url, token, code, b)
		}
		return b
	}
	// Bob cannot see alice's job, its result, or its event stream...
	bobJob := unknown404("tok-bob", ts.URL+"/v1/jobs/"+st.ID)
	unknown404("tok-bob", ts.URL+"/v1/results/"+st.ID)
	unknown404("tok-bob", ts.URL+"/v1/jobs/"+st.ID+"/events")
	// ...and the 404 for an existing-but-invisible job is byte-identical
	// in shape to a truly unknown id: no existence leak.
	bobMissing := unknown404("tok-bob", ts.URL+"/v1/jobs/job-999999")
	normalize := func(b []byte) string { return strings.ReplaceAll(string(b), st.ID, "job-999999") }
	if normalize(bobJob) != string(bobMissing) {
		t.Fatalf("invisible-job 404 differs from unknown-id 404:\n%q\n%q", bobJob, bobMissing)
	}
	// Bob cannot cancel it either (404, not 403: he cannot see it).
	if code, _, _ := authDo(t, "DELETE", ts.URL+"/v1/jobs/"+st.ID, "tok-bob", nil); code != 404 {
		t.Fatal("cross-tenant DELETE should 404")
	}
	// Alice observes her own job normally.
	if code, _, _ := authDo(t, "GET", ts.URL+"/v1/jobs/"+st.ID, "tok-alice", nil); code != 200 {
		t.Fatal("submitter lost sight of own job")
	}
}

// TestTenantRateLimit429: the per-tenant token bucket throttles the
// work-creating POSTs with 429 + Retry-After, leaves reads unthrottled,
// and never bleeds across tenants.
func TestTenantRateLimit429(t *testing.T) {
	tokens := writeTokenFile(t, "tok-alice alice\ntok-bob bob\n")
	// 0.01 tokens/s ≈ no refill within the test; burst 2.
	ts, _, _ := newTestServer(t, Options{TokensPath: tokens, TenantRate: 0.01, TenantBurst: 2})
	post := func(token string) (int, http.Header) {
		code, hdr, _ := authDo(t, "POST", ts.URL+"/v1/run", token, strings.NewReader("{"))
		return code, hdr
	}
	// The burst passes (the malformed body 400s, but past admission).
	for i := 0; i < 2; i++ {
		if code, _ := post("tok-alice"); code != 400 {
			t.Fatalf("burst request %d = %d, want 400 (past admission)", i, code)
		}
	}
	code, hdr := post("tok-alice")
	if code != 429 {
		t.Fatalf("over-rate request = %d, want 429", code)
	}
	if ra := hdr.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("429 Retry-After = %q, want a positive integer", ra)
	}
	// Reads stay open for the throttled tenant...
	if code, _, _ := authDo(t, "GET", ts.URL+"/v1/experiments", "tok-alice", nil); code != 200 {
		t.Fatal("rate limit must not throttle reads")
	}
	// ...and bob's bucket is untouched.
	if code, _ := post("tok-bob"); code != 400 {
		t.Fatal("one tenant's throttle leaked into another's bucket")
	}
	_, metrics := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), `htdp_tenant_throttled_total{tenant="alice",reason="rate_limited"} 1`) {
		t.Fatalf("metrics missing the rate_limited count:\n%s", metrics)
	}
}

// TestTenantQueueQuota429: a tenant at its queue quota gets 429
// quota_exceeded while the global queue still admits other tenants.
func TestTenantQueueQuota429(t *testing.T) {
	tokens := writeTokenFile(t, "tok-alice alice\ntok-bob bob\n")
	ts, srv, _ := newTestServer(t, Options{Workers: 1, QueueDepth: 16, TenantQueue: 1, TokensPath: tokens})
	// Occupy the single worker so submissions stay queued.
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

	submit := func(token string, seed int64) (int, []byte) {
		body, err := json.Marshal(RunRequest{Dataset: "csv", Algo: "fw", Seed: seed, T: 3, Async: true})
		if err != nil {
			t.Fatal(err)
		}
		code, _, resp := authDo(t, "POST", ts.URL+"/v1/run", token, bytes.NewReader(body))
		return code, resp
	}
	if code, resp := submit("tok-alice", 1); code != 202 {
		t.Fatalf("alice first submit = %d %q", code, resp)
	}
	// Alice's queue quota (1) is full: distinct request → 429, never 503.
	code, resp := submit("tok-alice", 2)
	if code != 429 || !strings.Contains(string(resp), "quota_exceeded") {
		t.Fatalf("over-quota submit = %d %q, want 429 quota_exceeded", code, resp)
	}
	// The overload is alice's alone: bob still submits into the same
	// global queue.
	if code, resp := submit("tok-bob", 3); code != 202 {
		t.Fatalf("bob submit while alice throttled = %d %q", code, resp)
	}
	_, metrics := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), `htdp_tenant_throttled_total{tenant="alice",reason="quota_exceeded"} 1`) {
		t.Fatalf("metrics missing the quota_exceeded count:\n%s", metrics)
	}
	close(release)
	blocker.wait()
	// Once her queued job drains, alice submits again.
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, _ := submit("tok-alice", 2)
		if code == 202 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("alice never recovered her quota after the queue drained")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestReloadTokensRotation: reload swaps the table live — new tokens
// start resolving, removed tokens stop — and a tenant whose last token
// disappeared has its queued AND running jobs cancelled with the
// revocation cause.
func TestReloadTokensRotation(t *testing.T) {
	tokensPath := writeTokenFile(t, "tok-alice alice\ntok-bob bob\n")
	ts, srv, _ := newTestServer(t, Options{Workers: 1, TokensPath: tokensPath})

	if code, _, _ := authDo(t, "GET", ts.URL+"/v1/experiments", "tok-alice", nil); code != 200 {
		t.Fatal("alice should resolve before the rotation")
	}
	// One running and one queued job owned by alice.
	started := make(chan struct{})
	running, _, err := srv.sched.submit("run", "", "alice", 1, 0, func(ctx context.Context, _ *job) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, context.Cause(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, _, err := srv.sched.submit("run", "", "alice", 1, 0, func(context.Context, *job) ([]byte, error) {
		return []byte("never\n"), nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Rotate: alice's token is gone, carol's appears.
	if err := os.WriteFile(tokensPath, []byte("tok-bob bob\ntok-carol carol\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := srv.ReloadTokens(); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := authDo(t, "GET", ts.URL+"/v1/experiments", "tok-alice", nil); code != 401 {
		t.Fatal("revoked token still resolves after reload")
	}
	if code, _, _ := authDo(t, "GET", ts.URL+"/v1/experiments", "tok-carol", nil); code != 200 {
		t.Fatal("new token does not resolve after reload")
	}
	// Revocation has teeth: both jobs land in cancelled with the
	// revocation cause, the running one mid-flight through its context.
	running.wait()
	queued.wait()
	for _, j := range []*job{running, queued} {
		if st := j.status(); st.Status != jobCancelled || !strings.Contains(st.Error, "revoked") {
			t.Fatalf("job after revocation = %+v, want cancelled: tenant access revoked", st)
		}
	}
	_, metrics := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), `htdp_tenant_cancelled_over_quota_total{tenant="alice"} 2`) {
		t.Fatalf("metrics missing the enforcement cancellations:\n%s", metrics)
	}
}

// TestReloadTokensParseError: a bad rotation never takes the front door
// down — the previous table keeps serving and the error is returned.
func TestReloadTokensParseError(t *testing.T) {
	tokensPath := writeTokenFile(t, "tok-alice alice\n")
	ts, srv, _ := newTestServer(t, Options{TokensPath: tokensPath})
	if err := os.WriteFile(tokensPath, []byte("broken-line\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := srv.ReloadTokens(); err == nil {
		t.Fatal("reload of a malformed file: expected error")
	}
	if code, _, _ := authDo(t, "GET", ts.URL+"/v1/experiments", "tok-alice", nil); code != 200 {
		t.Fatal("previous token table stopped serving after a failed reload")
	}
}

// TestAccessLog: the structured request log carries one JSON line per
// request with the resolved tenant (empty when unauthenticated).
func TestAccessLog(t *testing.T) {
	tokens := writeTokenFile(t, "tok-alice alice\n")
	var buf bytes.Buffer
	logw := &syncWriter{w: &buf}
	ts, _, _ := newTestServer(t, Options{TokensPath: tokens, AccessLog: logw})
	if code, _, _ := authDo(t, "GET", ts.URL+"/v1/experiments", "tok-alice", nil); code != 200 {
		t.Fatal("authenticated request failed")
	}
	if code, _, _ := authDo(t, "GET", ts.URL+"/v1/experiments", "", nil); code != 401 {
		t.Fatal("unauthenticated request should 401")
	}
	type line struct {
		Method string  `json:"method"`
		Path   string  `json:"path"`
		Route  string  `json:"route"`
		Status int     `json:"status"`
		Tenant string  `json:"tenant"`
		DurMS  float64 `json:"dur_ms"`
	}
	var lines []line
	logw.mu.Lock()
	raw := strings.TrimSpace(buf.String())
	logw.mu.Unlock()
	for _, l := range strings.Split(raw, "\n") {
		var entry line
		if err := json.Unmarshal([]byte(l), &entry); err != nil {
			t.Fatalf("access log line is not JSON: %q", l)
		}
		lines = append(lines, entry)
	}
	if len(lines) != 2 {
		t.Fatalf("access log has %d lines, want 2:\n%s", len(lines), raw)
	}
	if lines[0].Status != 200 || lines[0].Tenant != "alice" || lines[0].Route != "GET /v1/experiments" {
		t.Fatalf("authenticated log line = %+v", lines[0])
	}
	if lines[1].Status != 401 || lines[1].Tenant != "" {
		t.Fatalf("unauthenticated log line = %+v", lines[1])
	}
}

// syncWriter serializes concurrent writes from the server's log path
// against the test's read.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// newPoolWithCSV registers one CSV at path under the name "csv".
func newPoolWithCSV(t *testing.T, path string) *data.SourcePool {
	t.Helper()
	pool := data.NewSourcePool()
	if _, err := pool.RegisterCSV("csv", path, -1, false); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	return pool
}
