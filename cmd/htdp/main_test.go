package main

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"htdp/internal/benchio"
	"htdp/internal/data"
	"htdp/internal/randx"
	"htdp/internal/serve"
)

// -update regenerates the serve smoke goldens (testdata/*_golden.json)
// from the live server instead of asserting against them.
var updateGolden = flag.Bool("update", false, "rewrite serve smoke goldens")

func TestList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fig1", "fig11", "lowerbound", "abl-estimators"} {
		if !strings.Contains(out, want) {
			t.Errorf("list missing %q", want)
		}
	}
}

func TestNoArgs(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err == nil {
		t.Fatal("expected usage error")
	}
}

func TestUnknownID(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "fig99"}, &buf); err == nil {
		t.Fatal("expected lookup error")
	}
}

func TestRunTinyTable(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "abl-shrink-k", "-reps", "2", "-scale", "0.01"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "abl-shrink-k") || !strings.Contains(out, "±") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestRunWithShapes(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "abl-shrink-k", "-reps", "2", "-scale", "0.01", "-shapes"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "shape report") {
		t.Fatalf("missing shape report:\n%s", buf.String())
	}
}

func TestRunCSVToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.csv")
	var buf bytes.Buffer
	if err := run([]string{"-run", "abl-shrink-k", "-reps", "2", "-scale", "0.01", "-csv", "-o", path}, &buf); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) < 5 {
		t.Fatalf("CSV too short: %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "abl-shrink-k,a,") {
		t.Fatalf("CSV row = %q", lines[0])
	}
}

// writeStreamCSV materializes a small synthetic dataset as a CSV file
// for the -stream tests.
func writeStreamCSV(t *testing.T, n, d int) string {
	t.Helper()
	gen := data.LinearSource(5, data.LinearOpt{
		N: n, D: d,
		Feature: randx.LogNormal{Mu: 0, Sigma: 0.8},
		Noise:   randx.Normal{Mu: 0, Sigma: 0.3},
	})
	var buf bytes.Buffer
	if err := data.WriteCSV(&buf, gen.Materialize()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "stream.csv")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestStreamMode(t *testing.T) {
	path := writeStreamCSV(t, 400, 8)
	for _, algo := range []string{"fw", "lasso", "iht", "sparseopt", "dpsgd"} {
		var buf bytes.Buffer
		if err := run([]string{"-stream", path, "-algo", algo, "-eps", "2", "-sstar", "3", "-T", "3"}, &buf); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		out := buf.String()
		if !strings.Contains(out, "n=400 d=8") || !strings.Contains(out, "risk(ŵ)=") {
			t.Fatalf("%s: unexpected output:\n%s", algo, out)
		}
	}
	// The dpsgd knobs reach the engine: an explicit batch and the rdp
	// accountant run end to end from the CLI.
	var buf bytes.Buffer
	if err := run([]string{"-stream", path, "-algo", "dpsgd", "-T", "3",
		"-batch", "16", "-clip", "2", "-lr", "0.05", "-accountant", "rdp"}, &buf); err != nil {
		t.Fatalf("dpsgd knobs: %v", err)
	}
	if !strings.Contains(buf.String(), "algo=dpsgd") {
		t.Fatalf("dpsgd knobs: unexpected output:\n%s", buf.String())
	}
}

func TestStreamModeErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-stream", filepath.Join(t.TempDir(), "nope.csv")}, &buf); err == nil {
		t.Fatal("missing file: expected error")
	}
	path := writeStreamCSV(t, 50, 3)
	if err := run([]string{"-stream", path, "-algo", "bogus"}, &buf); err == nil {
		t.Fatal("unknown algo: expected error")
	}
	if err := run([]string{"-stream", path, "-algo", "fw", "-batch", "16"}, &buf); err == nil {
		t.Fatal("dpsgd knob on fw: expected error")
	}
	if err := run([]string{"-stream", path, "-algo", "dpsgd", "-accountant", "zcdp"}, &buf); err == nil {
		t.Fatal("unknown accountant: expected error")
	}
}

func TestStreamFeedsStreamingExperiment(t *testing.T) {
	path := writeStreamCSV(t, 300, 6)
	var buf bytes.Buffer
	if err := run([]string{"-run", "streaming", "-stream", path, "-reps", "2", "-scale", "0.01"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "config.source") || !strings.Contains(out, "dpfw-stream") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

// smokeServer is the exact server `htdp -serve -noauth` runs with no
// extra flags: the built-in demo pool, default sizing.
func smokeServer(t *testing.T) *httptest.Server {
	t.Helper()
	pool, err := buildServePool("", nil, -1, false)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(pool, serve.Options{NoAuth: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		pool.Close()
	})
	return ts
}

// TestServeSmokeGolden replays the CI server smoke step in-process:
// GET /healthz and one POST /v1/run on the built-in demo-linear
// dataset must match the committed goldens byte for byte (results are
// deterministic in the request, so the goldens pin them), and the
// repeated run must be served from cache with identical bytes. The CI
// step curls a real `htdp -serve` process against the same files.
func TestServeSmokeGolden(t *testing.T) {
	ts := smokeServer(t)

	hres, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health, _ := io.ReadAll(hres.Body)
	hres.Body.Close()

	reqBody, err := os.ReadFile(filepath.Join("testdata", "serve_run_request.json"))
	if err != nil {
		t.Fatal(err)
	}
	post := func() (http.Header, []byte) {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("run = %d %q", resp.StatusCode, body)
		}
		return resp.Header, body
	}
	hdr, runOut := post()
	if hdr.Get("X-Htdp-Cache") != "miss" {
		t.Fatalf("first run cache = %q", hdr.Get("X-Htdp-Cache"))
	}

	healthGolden := filepath.Join("testdata", "healthz_golden.json")
	runGolden := filepath.Join("testdata", "serve_run_golden.json")
	if *updateGolden {
		if err := os.WriteFile(healthGolden, health, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(runGolden, runOut, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s and %s", healthGolden, runGolden)
	}
	wantHealth, err := os.ReadFile(healthGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(health, wantHealth) {
		t.Errorf("healthz drifted from golden:\n got %q\nwant %q", health, wantHealth)
	}
	wantRun, err := os.ReadFile(runGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(runOut, wantRun) {
		t.Errorf("run response drifted from golden (regenerate with -update if intended):\n got %q\nwant %q", runOut, wantRun)
	}

	hdr, runOut2 := post()
	if hdr.Get("X-Htdp-Cache") != "hit" {
		t.Fatalf("repeat run cache = %q, want hit", hdr.Get("X-Htdp-Cache"))
	}
	if !bytes.Equal(runOut2, runOut) {
		t.Fatal("cached bytes differ from computed bytes")
	}
}

func TestBuildServePool(t *testing.T) {
	path := writeStreamCSV(t, 60, 4)
	pool, err := buildServePool(path, []string{"extra=" + path}, -1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	names := map[string]bool{}
	for _, e := range pool.List() {
		names[e.Name] = true
	}
	for _, want := range []string{"demo-linear", "demo-logistic", "extra", filepath.Base(path)} {
		if !names[want] {
			t.Errorf("pool missing %q (have %v)", want, names)
		}
	}
	if _, err := buildServePool("", []string{"=nope"}, -1, false); err == nil {
		t.Error("empty dataset name: expected error")
	}
	if _, err := buildServePool("", []string{"x=" + filepath.Join(t.TempDir(), "gone.csv")}, -1, false); err == nil {
		t.Error("missing dataset file: expected error")
	}
}

func TestServeFlagErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-serve", "127.0.0.1:999999", "-noauth"}, &buf); err == nil {
		t.Fatal("bad listen address: expected error")
	}
	if err := run([]string{"-serve", ":0", "-noauth", "-dataset", "nope"}, &buf); err == nil {
		t.Fatal("malformed -dataset: expected error")
	}
	// An unusable -cachedir fails at startup, not silently memory-only.
	blocked := filepath.Join(t.TempDir(), "file-not-dir")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-serve", ":0", "-noauth", "-cachedir", blocked}, &buf); err == nil {
		t.Fatal("unusable -cachedir: expected error")
	}
}

// TestServeAuthFlagErrors pins the fail-fast auth contract: the server
// refuses to boot open, and refuses contradictory auth flags.
func TestServeAuthFlagErrors(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-serve", ":0"}, &buf)
	if err == nil {
		t.Fatal("serve without -tokens or -noauth: expected error")
	}
	if !strings.Contains(err.Error(), "-noauth") {
		t.Fatalf("boot-open error does not name the opt-out: %v", err)
	}
	tokens := filepath.Join(t.TempDir(), "tokens")
	if err := os.WriteFile(tokens, []byte("tok-a alice\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-serve", ":0", "-tokens", tokens, "-noauth"}, &buf); err == nil {
		t.Fatal("-tokens with -noauth: expected mutual-exclusion error")
	}
	// A missing or malformed token file fails at startup, not at first use.
	if err := run([]string{"-serve", ":0", "-tokens", filepath.Join(t.TempDir(), "gone")}, &buf); err == nil {
		t.Fatal("missing token file: expected error")
	}
	bad := filepath.Join(t.TempDir(), "bad")
	if err := os.WriteFile(bad, []byte("just-a-token\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-serve", ":0", "-tokens", bad}, &buf); err == nil {
		t.Fatal("malformed token file: expected error")
	}
}

// TestRunWithProgress: the -progress flag only adds stderr
// observability — the stdout tables are byte-identical with and
// without it.
func TestRunWithProgress(t *testing.T) {
	var plain, observed bytes.Buffer
	if err := run([]string{"-run", "abl-shrink-k", "-reps", "1", "-scale", "0.01"}, &plain); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-run", "abl-shrink-k", "-reps", "1", "-scale", "0.01", "-progress"}, &observed); err != nil {
		t.Fatal(err)
	}
	stripTiming := func(s string) string {
		// The header line carries wall-clock; drop it before comparing.
		lines := strings.Split(s, "\n")
		var kept []string
		for _, l := range lines {
			if strings.HasPrefix(l, "### ") {
				continue
			}
			kept = append(kept, l)
		}
		return strings.Join(kept, "\n")
	}
	if stripTiming(plain.String()) != stripTiming(observed.String()) {
		t.Fatal("-progress changed stdout output")
	}
}

func TestBenchJSONMode(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real benchmark")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_test.json")
	var buf bytes.Buffer
	if err := run([]string{"-benchjson", out, "-benchfilter", "^kernel:robust-term$", "-benchrounds", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	rep, err := benchio.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 || rep.Results[0].Name != "kernel:robust-term" {
		t.Fatalf("unexpected report: %+v", rep)
	}
	if !strings.Contains(buf.String(), "wrote "+out) {
		t.Fatalf("missing confirmation:\n%s", buf.String())
	}

	// Gate against a copy of the report made 10x slower: a fresh timing
	// must pass. An untouched copy would make this path timing-dependent
	// (on a loaded machine a second timing has come out 1.3x the first);
	// a tenfold margin does not...
	lenient := rep
	lenient.Results = []benchio.Result{rep.Results[0]}
	lenient.Results[0].NsPerOp *= 10
	lenientPath := filepath.Join(dir, "BENCH_lenient.json")
	if err := benchio.WriteFile(lenientPath, lenient); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := run([]string{"-benchjson", filepath.Join(dir, "BENCH_again.json"),
		"-benchfilter", "^kernel:robust-term$", "-benchrounds", "1",
		"-benchcmp", lenientPath}, &buf); err != nil {
		t.Fatalf("comparison against a 10x-slower baseline failed: %v\n%s", err, buf.String())
	}
	// ...while a doctored 10x-faster baseline fails the gate.
	rep.Results[0].NsPerOp /= 10
	doctored := filepath.Join(dir, "BENCH_doctored.json")
	if err := benchio.WriteFile(doctored, rep); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := run([]string{"-benchjson", filepath.Join(dir, "BENCH_slow.json"),
		"-benchfilter", "^kernel:robust-term$", "-benchrounds", "1",
		"-benchcmp", doctored}, &buf); err == nil {
		t.Fatalf("regression not flagged:\n%s", buf.String())
	} else if !strings.Contains(buf.String(), "REGRESSION") {
		t.Fatalf("missing regression report:\n%s", buf.String())
	}
}

func TestBenchCmpNeedsBenchJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-benchcmp", "whatever.json"}, &buf); err == nil {
		t.Fatal("-benchcmp alone: expected error")
	}
}

func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var buf bytes.Buffer
	if err := run([]string{"-list", "-cpuprofile", cpu, "-memprofile", mem}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}
