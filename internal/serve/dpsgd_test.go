package serve

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestRunDPSGD lifts the serving exclusion end to end: minibatch
// DP-SGD over the pooled CSV dataset through POST /v1/run, bit-identical
// to the sequential batch reference, cached on replay, and invariant to
// the parallelism knob — the same contract as every other algorithm.
func TestRunDPSGD(t *testing.T) {
	ts, _, path := newTestServer(t, Options{})
	req := RunRequest{Dataset: "csv", Algo: "dpsgd", Eps: 1, Seed: 9, T: 12, Batch: 16}
	want := sequentialReference(t, path, req)

	code, hdr, body := postJSON(t, ts.URL+"/v1/run", req)
	if code != 200 {
		t.Fatalf("dpsgd run = %d %q", code, body)
	}
	if tier := hdr.Get("X-Htdp-Cache"); tier != "miss" {
		t.Fatalf("first run cache = %q, want miss", tier)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("served dpsgd differs from sequential reference:\n%s\n%s", body, want)
	}

	// Replay: a hit serving the same bytes.
	code, hdr, again := postJSON(t, ts.URL+"/v1/run", req)
	if code != 200 || hdr.Get("X-Htdp-Cache") != "hit" {
		t.Fatalf("replay = %d cache=%q", code, hdr.Get("X-Htdp-Cache"))
	}
	if !bytes.Equal(again, want) {
		t.Fatal("replay bytes differ")
	}

	// The parallelism knob neither changes bytes nor fragments the cache.
	par := req
	par.Parallelism = 4
	code, hdr, body = postJSON(t, ts.URL+"/v1/run", par)
	if code != 200 || hdr.Get("X-Htdp-Cache") != "hit" || !bytes.Equal(body, want) {
		t.Fatalf("parallel replay = %d cache=%q equal=%v", code, hdr.Get("X-Htdp-Cache"), bytes.Equal(body, want))
	}

	// The rdp accountant is a distinct result (smaller σ), not an error
	// and not a cache collision with the compose run.
	rdp := req
	rdp.Accountant = "rdp"
	code, hdr, body = postJSON(t, ts.URL+"/v1/run", rdp)
	if code != 200 {
		t.Fatalf("rdp run = %d %q", code, body)
	}
	if hdr.Get("X-Htdp-Cache") != "miss" {
		t.Fatalf("rdp run cache = %q, want miss (own key)", hdr.Get("X-Htdp-Cache"))
	}
	if bytes.Equal(body, want) {
		t.Fatal("rdp accountant returned the compose bytes")
	}
}

// TestRunDPSGDKnobValidation pins the 400s: dpsgd's knobs are rejected
// on other algorithms (they would otherwise fragment the cache as dead
// fields), and invalid knob values never reach the engine.
func TestRunDPSGDKnobValidation(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	for _, tc := range []struct {
		name string
		body string
		frag string
	}{
		{"batch on fw", `{"dataset":"csv","algo":"fw","batch":16}`, "only valid with algo dpsgd"},
		{"accountant on lasso", `{"dataset":"csv","algo":"lasso","accountant":"rdp"}`, "only valid with algo dpsgd"},
		{"clip on iht", `{"dataset":"csv","algo":"iht","clip":2}`, "only valid with algo dpsgd"},
		{"negative batch", `{"dataset":"csv","algo":"dpsgd","batch":-1}`, "batch"},
		{"negative clip", `{"dataset":"csv","algo":"dpsgd","clip":-1}`, "clip"},
		{"negative lr", `{"dataset":"csv","algo":"dpsgd","lr":-0.5}`, "lr"},
		{"unknown accountant", `{"dataset":"csv","algo":"dpsgd","accountant":"zcdp"}`, "unknown accountant"},
	} {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 400 || !strings.Contains(string(body), tc.frag) {
			t.Errorf("%s: got %d %q, want 400 containing %q", tc.name, resp.StatusCode, body, tc.frag)
		}
	}
}

// TestRunDPSGDUncalibratableBudget pins the 422 for a finite positive
// ε no noise level can be calibrated to: the run fails with core's
// error, not a recovered panic, under both accountants — including an
// ε below the rdp accountant's floor, which must not be served (and
// cached) with a σ the accountant itself rejects.
func TestRunDPSGDUncalibratableBudget(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	for _, body := range []string{
		`{"dataset":"csv","algo":"dpsgd","eps":1e-20}`,
		`{"dataset":"csv","algo":"dpsgd","eps":1e-20,"accountant":"rdp"}`,
		`{"dataset":"csv","algo":"dpsgd","eps":1e300,"accountant":"rdp"}`,
		`{"dataset":"csv","algo":"dpsgd","eps":0.001,"accountant":"rdp"}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 422 || !strings.Contains(string(msg), "cannot be calibrated") || strings.Contains(string(msg), "panicked") {
			t.Errorf("%s: got %d %s, want 422 cannot be calibrated without a panic", body, resp.StatusCode, msg)
		}
	}
}
