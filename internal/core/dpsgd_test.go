package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"htdp/internal/data"
	"htdp/internal/loss"
	"htdp/internal/randx"
)

var updateDPSGD = flag.Bool("update", false, "rewrite testdata/dpsgd_golden.json")

// The DPSGD determinism suite: minibatch subsampling moved onto the
// Source contract (RowAt) with this promise — the run is a pure
// function of (data bytes, options, seed), never of the backend, the
// worker count, or whether the source came from a pool. These tests pin
// that promise bit for bit, including against a committed golden so a
// regression anywhere in the RNG draw order, the gather path, or the
// accountant calibration cannot slip through as "still self-consistent".

// dpsgdFixture builds the three direct backends over the same 600×40
// rows plus a SourcePool serving the same bytes under the same names.
func dpsgdFixture(t *testing.T) (direct map[string]data.Source, pool *data.SourcePool) {
	t.Helper()
	gen := data.LinearSource(41, data.LinearOpt{
		N: 600, D: 40,
		Feature: randx.LogNormal{Mu: 0, Sigma: 1},
		Noise:   randx.StudentT{Nu: 3},
	})
	full := gen.Materialize()
	var buf bytes.Buffer
	if err := data.WriteCSV(&buf, full); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dpsgd.csv")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	csvSrc, err := data.OpenCSV(path, "dpsgd", -1, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { csvSrc.Close() })

	pool = data.NewSourcePool()
	if _, err := pool.RegisterCSV("csv", path, -1, false); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.RegisterGen("gen", gen); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.RegisterMem("mem", full); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })

	direct = map[string]data.Source{
		"mem": data.NewMemSource(full), "csv": csvSrc, "gen": gen,
	}
	return direct, pool
}

func dpsgdOpt(p int, accountant string) DPSGDOptions {
	return DPSGDOptions{
		Loss: loss.Squared{}, Eps: 1, Delta: 1e-5, T: 8, Batch: 32,
		Accountant: accountant, Parallelism: p, Rng: randx.New(21),
	}
}

func assertSameWeights(t *testing.T, ctx string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", ctx, len(got), len(want))
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("%s: coord %d = %v, want bit-identical %v", ctx, j, got[j], want[j])
		}
	}
}

func TestDPSGDDeterminism(t *testing.T) {
	direct, pool := dpsgdFixture(t)
	for _, acct := range []string{AccountantCompose, AccountantRDP} {
		t.Run(acct, func(t *testing.T) {
			want, err := DPSGDSource(direct["mem"], dpsgdOpt(1, acct))
			if err != nil {
				t.Fatal(err)
			}
			// "" resolves to the compose accountant.
			if acct == AccountantCompose {
				plain, err := DPSGDSource(direct["mem"], dpsgdOpt(1, ""))
				if err != nil {
					t.Fatal(err)
				}
				assertSameWeights(t, `Accountant ""`, plain, want)
			}
			for bname, src := range direct {
				for _, p := range []int{1, 4} {
					got, err := DPSGDSource(src, dpsgdOpt(p, acct))
					if err != nil {
						t.Fatalf("%s workers=%d: %v", bname, p, err)
					}
					assertSameWeights(t, bname, got, want)
				}
			}
			for _, bname := range []string{"mem", "gen", "csv"} {
				for _, p := range []int{1, 4} {
					h, err := pool.Acquire(bname)
					if err != nil {
						t.Fatal(err)
					}
					got, err := DPSGDSource(h, dpsgdOpt(p, acct))
					h.Close()
					if err != nil {
						t.Fatalf("pooled %s workers=%d: %v", bname, p, err)
					}
					assertSameWeights(t, "pooled "+bname, got, want)
				}
			}
		})
	}
}

// TestDPSGDPoolConcurrent runs DPSGD over concurrently acquired pool
// handles of every kind — the serving plane's usage — and requires all
// results bit-identical to a direct run. Under -race this also shakes
// out sharing bugs between handles (the CSV offset index, gen clones).
func TestDPSGDPoolConcurrent(t *testing.T) {
	direct, pool := dpsgdFixture(t)
	want, err := DPSGDSource(direct["mem"], dpsgdOpt(1, AccountantCompose))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([][]float64, 0, 6)
	errs := make([]error, 0, 6)
	var mu sync.Mutex
	for _, bname := range []string{"mem", "gen", "csv"} {
		for _, p := range []int{1, 4} {
			wg.Add(1)
			go func(bname string, p int) {
				defer wg.Done()
				h, err := pool.Acquire(bname)
				if err == nil {
					var w []float64
					w, err = DPSGDSource(h, dpsgdOpt(p, AccountantCompose))
					h.Close()
					mu.Lock()
					results = append(results, w)
					mu.Unlock()
				}
				if err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}(bname, p)
		}
	}
	wg.Wait()
	for _, err := range errs {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("got %d results, want 6", len(results))
	}
	for _, got := range results {
		assertSameWeights(t, "concurrent run", got, want)
	}
}

func TestDPSGDErrors(t *testing.T) {
	direct, _ := dpsgdFixture(t)
	if _, err := DPSGDSource(direct["mem"], dpsgdOpt(1, "exotic")); err == nil {
		t.Fatal("unknown accountant accepted by DPSGDSource")
	}
	noRng := dpsgdOpt(1, "")
	noRng.Rng = nil
	if _, err := DPSGDSource(direct["mem"], noRng); err == nil {
		t.Fatal("missing Rng accepted")
	}
}

// TestDPSGDUncalibratableBudget pins the error, not a panic, for
// budgets no noise level can be calibrated to: at ε = 1e-20 and 1e-300
// the per-step budget underflows to 0 under either accountant, at
// ε = 1e300 it overflows and leaves the rdp search no bracket, and a δ
// whose per-step share underflows leaves compose no Gaussian σ. The
// compose accountant at ε = 1e300 still runs (σ = 0), as before.
func TestDPSGDUncalibratableBudget(t *testing.T) {
	direct, _ := dpsgdFixture(t)
	for _, tc := range []struct {
		acct  string
		eps   float64
		delta float64
		T     int
	}{
		{AccountantCompose, 1e-20, 1e-5, 8}, {AccountantRDP, 1e-20, 1e-5, 8},
		{AccountantCompose, 1e-300, 1e-5, 8}, {AccountantRDP, 1e-300, 1e-5, 8},
		{AccountantRDP, 1e300, 1e-5, 8},
		{AccountantCompose, 1, 1e-307, 1e18},
	} {
		opt := dpsgdOpt(1, tc.acct)
		opt.Eps, opt.Delta, opt.T = tc.eps, tc.delta, tc.T
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s ε=%g δ=%g: panic %v", tc.acct, tc.eps, tc.delta, r)
				}
			}()
			_, err := DPSGDSource(direct["mem"], opt)
			if err == nil || !strings.Contains(err.Error(), "cannot be calibrated") {
				t.Errorf("%s ε=%g δ=%g: err = %v, want a cannot-be-calibrated error", tc.acct, tc.eps, tc.delta, err)
			}
		}()
	}
	opt := dpsgdOpt(1, AccountantCompose)
	opt.Eps = 1e300
	if _, err := DPSGDSource(direct["mem"], opt); err != nil {
		t.Fatalf("compose at ε=1e300: %v", err)
	}
}

// TestDPSGDCalibrationEdges: the rdp σ search's failures reach the
// caller as errors, never as a σ the accountant rejects or a panic. At
// q = 0.02, T = 200, ε = 0.01 is below the accountant's floor and must
// be refused; a clip whose sensitivity 2·clip/batch rounds to 0 is
// refused under both accountants; and a clip near the bottom of the
// float range calibrates a finite σ and runs.
func TestDPSGDCalibrationEdges(t *testing.T) {
	direct, _ := dpsgdFixture(t)
	run := func(opt DPSGDOptions) (w []float64, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return DPSGDSource(direct["mem"], opt)
	}
	floor := dpsgdOpt(1, AccountantRDP)
	floor.Eps, floor.T, floor.Batch = 0.01, 200, 12 // q = 12/600
	if _, err := run(floor); err == nil || !strings.Contains(err.Error(), "cannot be calibrated") {
		t.Errorf("rdp below the floor: err = %v, want cannot be calibrated", err)
	}
	for _, acct := range []string{AccountantCompose, AccountantRDP} {
		opt := dpsgdOpt(1, acct)
		opt.Clip = math.SmallestNonzeroFloat64
		if _, err := run(opt); err == nil || !strings.Contains(err.Error(), "clip") {
			t.Errorf("%s at clip 5e-324: err = %v, want a clip error", acct, err)
		}
	}
	tiny := dpsgdOpt(1, AccountantRDP)
	tiny.Clip = 1e-300
	w, err := run(tiny)
	if err != nil {
		t.Fatalf("rdp at clip 1e-300: %v", err)
	}
	for j, x := range w {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("rdp at clip 1e-300: w[%d] = %v", j, x)
		}
	}
}

// TestDPSGDGolden pins one reference run per accountant to a committed
// file: cross-backend self-consistency alone cannot catch a change that
// shifts every backend the same way (a reordered RNG draw, a different
// σ expression). Regenerate deliberately with
//
//	go test ./internal/core -run TestDPSGDGolden -update
func TestDPSGDGolden(t *testing.T) {
	direct, _ := dpsgdFixture(t)
	type goldenFile struct {
		Compose []float64 `json:"compose"`
		RDP     []float64 `json:"rdp"`
	}
	run := func(acct string) []float64 {
		w, err := DPSGDSource(direct["gen"], dpsgdOpt(1, acct))
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	got := goldenFile{Compose: run(AccountantCompose), RDP: run(AccountantRDP)}
	golden := filepath.Join("testdata", "dpsgd_golden.json")
	if *updateDPSGD {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want goldenFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	assertSameWeights(t, "compose vs golden", got.Compose, want.Compose)
	assertSameWeights(t, "rdp vs golden", got.RDP, want.RDP)
}
