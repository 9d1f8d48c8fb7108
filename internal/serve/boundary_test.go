package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"htdp/internal/data"
	"htdp/internal/randx"
)

// boundaryN and boundaryD are the shape of the boundary table's
// dataset: wide enough for the default sparsity s* = 10.
const boundaryN, boundaryD = 300, 24

// boundaryServer serves one pooled 300×24 generated dataset, "rows".
func boundaryServer(t *testing.T) *Server {
	t.Helper()
	pool := data.NewSourcePool()
	if _, err := pool.RegisterGen("rows", data.LinearSource(3, data.LinearOpt{
		N: boundaryN, D: boundaryD,
		Feature: randx.LogNormal{Mu: 0, Sigma: 0.8},
		Noise:   randx.Normal{Mu: 0, Sigma: 0.3},
	})); err != nil {
		t.Fatal(err)
	}
	srv, err := New(pool, Options{NoAuth: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		pool.Close()
	})
	return srv
}

// boundaryAlgos are the algorithms of POST /v1/run, dpsgd under each
// accountant.
var boundaryAlgos = []map[string]any{
	{"algo": "fw"},
	{"algo": "lasso"},
	{"algo": "iht"},
	{"algo": "sparseopt"},
	{"algo": "dpsgd", "accountant": "compose"},
	{"algo": "dpsgd", "accountant": "rdp"},
}

// TestRunBoundaryValues walks POST /v1/run through Server.ServeHTTP at
// the edges of every numeric field. Each float field an algorithm reads
// (eps and delta everywhere, clip and lr for dpsgd) takes the smallest
// subnormal, 1e-300, 1e-20, 1, 1e300 and MaxFloat64; T, sstar and batch
// take their integer edges. Every answer must be a 200 whose JSON holds
// only finite numbers, or a 4xx whose message names its cause — never a
// recovered panic or an encoder error.
func TestRunBoundaryValues(t *testing.T) {
	srv := boundaryServer(t)
	floats := []float64{math.SmallestNonzeroFloat64, 1e-300, 1e-20, 1, 1e300, math.MaxFloat64}
	type row struct {
		field string
		value any
		base  map[string]any
	}
	var rows []row
	for _, base := range boundaryAlgos {
		fields := []string{"eps", "delta"}
		if base["algo"] == "dpsgd" {
			fields = append(fields, "clip", "lr")
		}
		for _, f := range fields {
			for _, v := range floats {
				rows = append(rows, row{f, v, base})
			}
		}
		for _, v := range []int{1, 2, boundaryN - 1, boundaryN, boundaryN + 1, 1000} {
			rows = append(rows, row{"T", v, base})
		}
		switch base["algo"] {
		case "iht", "sparseopt":
			for _, v := range []int{1, boundaryD - 1, boundaryD, boundaryD + 1, 1 << 30} {
				rows = append(rows, row{"sstar", v, base})
			}
		case "dpsgd":
			for _, v := range []int{1, boundaryN - 1, boundaryN, boundaryN + 1, 1 << 30} {
				rows = append(rows, row{"batch", v, base})
			}
		}
	}
	for _, r := range rows {
		q := map[string]any{"dataset": "rows", r.field: r.value}
		for k, v := range r.base {
			q[k] = v
		}
		body, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprint(r.base["algo"])
		if acct, ok := r.base["accountant"]; ok {
			name += "-" + acct.(string)
		}
		name += fmt.Sprintf("/%s=%v", r.field, r.value)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(string(body))))
		checkBoundaryAnswer(t, name, r.field, rec.Code, rec.Body.String())
	}
}

// checkBoundaryAnswer holds one answer to the boundary contract.
func checkBoundaryAnswer(t *testing.T, name, field string, code int, body string) {
	t.Helper()
	if strings.Contains(body, "panicked") || strings.Contains(body, "json:") {
		t.Errorf("%s: %d %s", name, code, body)
		return
	}
	switch {
	case code == http.StatusOK:
		var res RunResult
		if err := json.Unmarshal([]byte(body), &res); err != nil {
			t.Errorf("%s: 200 with undecodable body %q: %v", name, body, err)
			return
		}
		finite := true
		for _, v := range append([]float64{res.Eps, res.Delta, res.Risk, res.RiskZero, res.Norm1}, res.W...) {
			finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
		}
		if !finite {
			t.Errorf("%s: 200 with a non-finite number: %s", name, body)
		}
	case code >= 400 && code < 500:
		var env struct {
			Error struct{ Code, Message string }
		}
		if err := json.Unmarshal([]byte(body), &env); err != nil || env.Error.Message == "" {
			t.Errorf("%s: %d without an error envelope: %q", name, code, body)
			return
		}
		if !namesCause(env.Error.Message, field) {
			t.Errorf("%s: %d %q does not name its cause", name, code, env.Error.Message)
		}
	default:
		t.Errorf("%s: status %d: %s", name, code, body)
	}
}

// namesCause reports whether an error message points at the field that
// caused it, or says which result could not be produced and why.
func namesCause(msg, field string) bool {
	names := map[string][]string{
		"eps":   {"eps", "ε"},
		"delta": {"delta", "δ"},
		"clip":  {"clip"},
		"lr":    {"lr"},
		"T":     {"T"},
		"sstar": {"sstar", "s*"},
		"batch": {"batch"},
	}[field]
	for _, n := range names {
		if strings.Contains(strings.ToLower(msg), strings.ToLower(n)) {
			return true
		}
	}
	return strings.Contains(msg, "non-finite")
}
