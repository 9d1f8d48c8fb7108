package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"htdp/internal/data"
	"htdp/internal/randx"
)

// FuzzRunRequestCanonicalHash fuzzes the request-decode → canonicalize
// → hash pipeline of POST /v1/run — the path every untrusted body
// takes before any compute runs. Invariants, for every body that
// survives the strict decode and validation:
//
//   - Canonical is idempotent: canonicalizing a canonical request is a
//     no-op, so the cache key is a fixed point;
//   - the cache key is stable: equal canonical forms hash equally;
//   - the scheduling-only knobs (Parallelism, Async, TimeoutMS) never
//     reach the key: perturbing them yields the same canonical form —
//     the invariant that lets the knobs (and tenancy) vary freely
//     without fragmenting the cache.
//
// Seed corpus: testdata/fuzz/FuzzRunRequestCanonicalHash.
func FuzzRunRequestCanonicalHash(f *testing.F) {
	f.Add([]byte(`{"dataset":"csv","algo":"fw"}`))
	f.Add([]byte(`{"dataset":"csv","algo":"lasso","eps":2,"delta":0.001,"T":7,"seed":5}`))
	f.Add([]byte(`{"dataset":"d","algo":"iht","sstar":3,"parallelism":4,"async":true,"timeout_ms":250}`))
	f.Add([]byte(`{"dataset":"d","algo":"sparseopt","eps":1e-9}`))
	f.Add([]byte(`{"dataset":"d","algo":"fw","eps":-1}`))
	f.Add([]byte(`{"dataset":"d","algo":"fw","bogus":1}`))
	f.Add([]byte(`{"dataset":"d","algo":"fw"}{"trailing":true}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var q RunRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&q); err != nil || dec.More() {
			return // rejected at the HTTP layer with 400; nothing to check
		}
		canon, err := q.Canonical()
		if err != nil {
			return // rejected with 400
		}
		// Idempotence: the canonical form is a fixed point.
		again, err := canon.Canonical()
		if err != nil {
			t.Fatalf("canonical form failed re-canonicalization: %v (canon %+v)", err, canon)
		}
		if again != canon {
			t.Fatalf("Canonical not idempotent:\n once %+v\ntwice %+v", canon, again)
		}
		key := cacheKey("run", canon)
		if key != cacheKey("run", again) {
			t.Fatal("equal canonical forms hashed differently")
		}
		// Scheduling knobs are key-excluded: perturbing them must not
		// move the canonical form or the key.
		knobs := q
		knobs.Parallelism = q.Parallelism + 3
		knobs.Async = !q.Async
		knobs.TimeoutMS = q.TimeoutMS + 17
		perturbed, err := knobs.Canonical()
		if err != nil {
			t.Fatalf("scheduling-knob perturbation invalidated the request: %v", err)
		}
		if perturbed != canon {
			t.Fatalf("scheduling knobs leaked into the canonical form:\n base %+v\nknob %+v", canon, perturbed)
		}
		if cacheKey("run", perturbed) != key {
			t.Fatal("scheduling knobs fragmented the cache key")
		}
		// Kind tagging always separates the namespaces.
		if cacheKey("sweep", canon) == key {
			t.Fatal("kind tag failed to separate run and sweep keys")
		}
	})
}

// FuzzExecuteRun carries request bodies past the cache key into
// ExecuteRun on a tiny in-memory dataset (48×6). Every body that
// decodes must end in an error or in a result that json.Marshal
// encodes, which also proves every number in it finite; no input may
// panic. Bodies with T above 8, or with sstar > d for iht and
// sparseopt, are skipped so that each input costs milliseconds; T = 0
// resolves to a theory default, which is at most n except for dpsgd's
// 200 steps.
//
// Seeds: every algorithm, dpsgd under both accountants, with eps,
// delta, clip and lr at the boundary values 5e-324, 1e-300, 1e300 and
// MaxFloat64, and with eps at those values under the default T.
func FuzzExecuteRun(f *testing.F) {
	algos := []string{`"algo":"fw"`, `"algo":"lasso"`, `"algo":"iht","sstar":3`, `"algo":"sparseopt","sstar":3`,
		`"algo":"dpsgd","accountant":"compose","batch":8`, `"algo":"dpsgd","accountant":"rdp","batch":8`}
	for _, algo := range algos {
		f.Add([]byte(`{"dataset":"tiny",` + algo + `,"T":4}`))
		for _, v := range []string{"5e-324", "1e-300", "1e300", "1.7976931348623157e308"} {
			fields := []string{"eps", "delta"}
			if strings.Contains(algo, "dpsgd") {
				fields = append(fields, "clip", "lr")
			}
			for _, field := range fields {
				f.Add([]byte(`{"dataset":"tiny",` + algo + `,"T":4,"` + field + `":` + v + `}`))
			}
			f.Add([]byte(`{"dataset":"tiny",` + algo + `,"eps":` + v + `}`))
		}
	}
	const n, d = 48, 6
	src := data.NewMemSource(data.Linear(randx.New(5), data.LinearOpt{
		N: n, D: d,
		Feature: randx.StudentT{Nu: 3},
		Noise:   randx.Normal{Mu: 0, Sigma: 0.3},
	}))
	f.Fuzz(func(t *testing.T, body []byte) {
		var q RunRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&q); err != nil || dec.More() {
			return
		}
		if q.T > 8 || ((q.Algo == "iht" || q.Algo == "sparseopt") && q.SStar > d) {
			return
		}
		res, err := ExecuteRun(context.Background(), src, q)
		if err != nil {
			return
		}
		if _, err := json.Marshal(res); err != nil {
			t.Fatalf("result of %s does not encode: %v", body, err)
		}
	})
}

// FuzzTokenFile fuzzes the -tokens parser with untrusted bytes. The
// parser must never panic, and every accepted table must satisfy the
// front door's invariants: non-empty whitespace-free tokens and
// tenants, weights ≥ 1, one consistent weight per tenant — and the
// accepted table must survive a serialize/re-parse round trip
// unchanged (rotation rewrites files in this format).
//
// Seed corpus: testdata/fuzz/FuzzTokenFile.
func FuzzTokenFile(f *testing.F) {
	f.Add([]byte("tok-a alice\ntok-b bob 3\n"))
	f.Add([]byte("# comment only\n\n  \n"))
	f.Add([]byte("tok alice # trailing\n"))
	f.Add([]byte("tok alice 0\n"))
	f.Add([]byte("dup alice\ndup bob\n"))
	f.Add([]byte("a t 1\nb t 2\n"))
	f.Add([]byte("just-one-field\n"))
	f.Add([]byte("tok\talice\t2\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		table, err := parseTokens(bytes.NewReader(in))
		if err != nil {
			if !strings.Contains(err.Error(), "tokens file") {
				t.Fatalf("parse error does not identify the file: %v", err)
			}
			return
		}
		weights := make(map[string]int)
		var round strings.Builder
		for tok, e := range table {
			if tok == "" || e.tenant == "" {
				t.Fatalf("accepted empty token or tenant: %q -> %+v", tok, e)
			}
			if strings.IndexFunc(tok+e.tenant, func(r rune) bool { return r == ' ' || r == '\t' || r == '#' }) >= 0 {
				t.Fatalf("accepted token/tenant with delimiter bytes: %q -> %+v", tok, e)
			}
			if e.weight < 1 {
				t.Fatalf("accepted weight below 1: %q -> %+v", tok, e)
			}
			if prev, ok := weights[e.tenant]; ok && prev != e.weight {
				t.Fatalf("tenant %q accepted with weights %d and %d", e.tenant, prev, e.weight)
			}
			weights[e.tenant] = e.weight
			round.WriteString(tok + " " + e.tenant + " " + strconv.Itoa(e.weight) + "\n")
		}
		reparsed, err := parseTokens(strings.NewReader(round.String()))
		if err != nil {
			t.Fatalf("accepted table failed re-parse: %v\n%s", err, round.String())
		}
		if len(reparsed) != len(table) {
			t.Fatalf("round trip changed table size: %d -> %d", len(table), len(reparsed))
		}
		for tok, e := range table {
			if reparsed[tok] != e {
				t.Fatalf("round trip changed %q: %+v -> %+v", tok, e, reparsed[tok])
			}
		}
	})
}
