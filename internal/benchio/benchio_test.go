package benchio

import (
	"bytes"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func sampleReport(calib float64, results ...Result) Report {
	return Report{GoVersion: "go1.24", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 8,
		CalibNs: calib, Results: results}
}

// compare is Compare for reports of equal GOMAXPROCS.
func compare(t *testing.T, base, cur Report) []Regression {
	t.Helper()
	regs, err := Compare(base, cur, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	return regs
}

func TestCompareFlagsSlowdown(t *testing.T) {
	base := sampleReport(1, Result{Name: "fig:fig1", NsPerOp: 1000})
	cur := sampleReport(1, Result{Name: "fig:fig1", NsPerOp: 1300})
	regs := compare(t, base, cur)
	if len(regs) != 1 || regs[0].Name != "fig:fig1" {
		t.Fatalf("regs = %v, want one fig:fig1 regression", regs)
	}
	if regs[0].Ratio < 1.29 || regs[0].Ratio > 1.31 {
		t.Fatalf("ratio = %v", regs[0].Ratio)
	}
	if got := compare(t, base, sampleReport(1, Result{Name: "fig:fig1", NsPerOp: 1200})); len(got) != 0 {
		t.Fatalf("within-tolerance run flagged: %v", got)
	}
}

func TestCompareNormalizesByCalibration(t *testing.T) {
	// The current machine is 2x slower across the board (calibration
	// doubles): raw ns/op doubling is NOT a regression.
	base := sampleReport(10, Result{Name: "k", NsPerOp: 1000})
	cur := sampleReport(20, Result{Name: "k", NsPerOp: 2000})
	if regs := compare(t, base, cur); len(regs) != 0 {
		t.Fatalf("calibrated equal-speed run flagged: %v", regs)
	}
	// A genuine 2x slowdown on an equal-speed machine is.
	cur = sampleReport(10, Result{Name: "k", NsPerOp: 2000})
	if regs := compare(t, base, cur); len(regs) != 1 {
		t.Fatalf("genuine slowdown not flagged: %v", regs)
	}
}

func TestCompareFlagsNewAllocations(t *testing.T) {
	base := sampleReport(1, Result{Name: "kernel:catoni-chunk-seq", NsPerOp: 100, AllocsPerOp: 0})
	cur := sampleReport(1, Result{Name: "kernel:catoni-chunk-seq", NsPerOp: 100, AllocsPerOp: 3})
	regs := compare(t, base, cur)
	if len(regs) != 1 || !regs[0].AllocRegression {
		t.Fatalf("regs = %v, want one alloc regression", regs)
	}
	if !strings.Contains(regs[0].String(), "allocation-free") {
		t.Fatalf("message = %q", regs[0].String())
	}
}

func TestCompareIgnoresUnmatched(t *testing.T) {
	base := sampleReport(1, Result{Name: "old-only", NsPerOp: 1})
	cur := sampleReport(1, Result{Name: "new-only", NsPerOp: 1e9})
	if regs := compare(t, base, cur); len(regs) != 0 {
		t.Fatalf("unmatched benchmarks flagged: %v", regs)
	}
}

// TestCompareRefusesMixedGOMAXPROCS: a baseline recorded at another
// GOMAXPROCS is refused, with both values named, instead of diffed.
func TestCompareRefusesMixedGOMAXPROCS(t *testing.T) {
	base := sampleReport(1, Result{Name: "kernel:catoni-chunk-par", NsPerOp: 100})
	base.GOMAXPROCS = 1
	cur := sampleReport(1, Result{Name: "kernel:catoni-chunk-par", NsPerOp: 100, AllocsPerOp: 8})
	cur.GOMAXPROCS = 2
	regs, err := Compare(base, cur, 0.25)
	if err == nil || regs != nil {
		t.Fatalf("mixed GOMAXPROCS compared: regs %v, err %v", regs, err)
	}
	for _, want := range []string{"GOMAXPROCS=1", "GOMAXPROCS=2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

// TestRegressionStringSignificantDigits: normalized values below 1 keep
// three significant digits instead of printing as 0.
func TestRegressionStringSignificantDigits(t *testing.T) {
	r := Regression{Name: "kernel:robust-term", OldNorm: 0.0123, NewNorm: 0.0170, Ratio: 0.0170 / 0.0123}
	if got, want := r.String(), "kernel:robust-term: 1.38x slower (normalized 0.0123 → 0.017 ns/op)"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestReportRoundTrip(t *testing.T) {
	rep := sampleReport(42.5,
		Result{Name: "fig:fig1", Runs: 3, NsPerOp: 123456, AllocsPerOp: 7, BytesPerOp: 8888,
			Extra: map[string]float64{"passes/op": 4}})
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := WriteFile(path, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.CalibNs != rep.CalibNs || len(got.Results) != 1 || !reflect.DeepEqual(got.Results[0], rep.Results[0]) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("benchio run is slow in -short mode")
	}
	var progress bytes.Buffer
	rep, err := Run("^kernel:robust-term$", 1, &progress)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 || rep.Results[0].Name != "kernel:robust-term" {
		t.Fatalf("results = %+v", rep.Results)
	}
	if rep.CalibNs <= 0 || rep.Results[0].NsPerOp <= 0 {
		t.Fatalf("degenerate measurements: %+v", rep)
	}
	if !strings.Contains(progress.String(), "kernel:robust-term") {
		t.Fatalf("progress output missing: %q", progress.String())
	}
}

func TestRunRejectsBadFilter(t *testing.T) {
	if _, err := Run("(", 1, nil); err == nil {
		t.Fatal("bad regexp accepted")
	}
	if _, err := Run("^matches-nothing$", 1, nil); err == nil {
		t.Fatal("empty selection accepted")
	}
}

// Names returns the registered benchmark names, sorted.
func Names() []string {
	out := make([]string, len(registry))
	for i, b := range registry {
		out[i] = b.Name
	}
	sort.Strings(out)
	return out
}

func TestRegistryHasFiguresAndKernels(t *testing.T) {
	names := Names()
	want := []string{"fig:fig1", "fig:fig11", "fig:lowerbound", "data:gen-chunk", "data:gen-rowat",
		"data:pool-csv-pass", "data:pool-csv-rowat", "kernel:catoni-chunk-seq",
		"kernel:expmech-l1", "kernel:fw-run-par", "kernel:matvec", "kernel:peeling", "kernel:rdp-sigma"}
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("registry missing %s (have %v)", w, names)
		}
	}
}
