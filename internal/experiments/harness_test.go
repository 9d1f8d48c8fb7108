package experiments

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"htdp/internal/randx"
)

// tiny is the cheapest meaningful config for CI-style runs.
var tiny = Config{Reps: 2, Scale: 0.01, Seed: 7}

func TestRegistryComplete(t *testing.T) {
	// All 11 figures plus the lower-bound check, the ablations, and the
	// source-backed sweeps (streaming, dpsgd).
	want := []string{
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "lowerbound",
		"abl-estimators", "abl-alg1-vs-alg2", "abl-shrink-k", "abl-selection",
		"abl-split-vs-full", "streaming", "dpsgd",
	}
	for _, id := range want {
		if _, err := Lookup(id); err != nil {
			t.Errorf("missing experiment %q", id)
		}
	}
	if len(Registry()) != len(want) {
		t.Errorf("registry has %d specs, want %d", len(Registry()), len(want))
	}
	// Sorted and described.
	prev := ""
	for _, s := range Registry() {
		if s.ID <= prev {
			t.Errorf("registry not sorted at %q", s.ID)
		}
		prev = s.ID
		if s.Description == "" || s.Run == nil {
			t.Errorf("spec %q incomplete", s.ID)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown ID accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	c, err := Config{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if c.Reps != 5 || c.Scale != 0.1 || c.Seed != 1 {
		t.Fatalf("defaults = %+v", c)
	}
	if n := c.n(10000); n != 1000 {
		t.Fatalf("n(10000) = %d", n)
	}
	if n := c.n(50); n != 100 {
		t.Fatalf("floor: n(50) = %d", n)
	}
	if _, err := (Config{Scale: 2}).withDefaults(); err == nil {
		t.Fatal("expected error for Scale > 1")
	}
	if _, err := (Config{Scale: -0.5}).withDefaults(); err == nil {
		t.Fatal("expected error for Scale < 0")
	}
}

// mustSweep runs sweep and fails the test on error.
func mustSweep(t *testing.T, cfg Config, name string, xs []float64, seedOff int64, f trialFn) Series {
	t.Helper()
	s, err := sweep(cfg, name, xs, seedOff, f)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustRun runs a spec and fails the test on error.
func mustRun(t *testing.T, spec Spec, cfg Config) []Panel {
	t.Helper()
	panels, err := spec.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", spec.ID, err)
	}
	return panels
}

func TestSweepDeterministicAndParallel(t *testing.T) {
	cfg, err := Config{Reps: 4, Scale: 0.1, Seed: 9}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	f := func(r *randx.RNG, x float64) (float64, error) { return x + r.Normal(), nil }
	a := mustSweep(t, cfg, "s", []float64{1, 2, 3}, 5, f)
	b := mustSweep(t, cfg, "s", []float64{1, 2, 3}, 5, f)
	for i := range a.Mean {
		if a.Mean[i] != b.Mean[i] || a.Std[i] != b.Std[i] {
			t.Fatalf("sweep not deterministic at %d: %v vs %v", i, a.Mean[i], b.Mean[i])
		}
	}
	// Means track x with noise ~N(0,1)/√4.
	for i, x := range a.X {
		if math.Abs(a.Mean[i]-x) > 2 {
			t.Errorf("mean[%d] = %v far from %v", i, a.Mean[i], x)
		}
	}
	// Different seed offset gives a different stream.
	c := mustSweep(t, cfg, "s", []float64{1, 2, 3}, 6, f)
	same := true
	for i := range a.Mean {
		if a.Mean[i] != c.Mean[i] {
			same = false
		}
	}
	if same {
		t.Error("seed offset ignored")
	}
}

func TestWriteTableAndCSV(t *testing.T) {
	p := Panel{Figure: "figX", Name: "a", Title: "demo", XLabel: "eps", YLabel: "err",
		Series: []Series{
			{Name: "d=10", X: []float64{1, 2}, Mean: []float64{0.5, 0.25}, Std: []float64{0.1, 0.05}},
			{Name: "d=20", X: []float64{1, 2}, Mean: []float64{0.7, 0.35}, Std: []float64{0.1, 0.05}},
		}}
	var buf bytes.Buffer
	if err := WriteTable(&buf, p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"figX(a)", "demo", "d=10", "d=20", "0.5", "0.25"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := WriteCSV(&buf, p); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV rows = %d, want 4", len(lines))
	}
	if lines[0] != "figX,a,d=10,1,0.5,0.1" {
		t.Fatalf("CSV row = %q", lines[0])
	}
	// Empty panel table does not crash.
	if err := WriteTable(&buf, Panel{Figure: "f", Name: "a"}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteTableRagged: series of unequal length render blank cells
// instead of panicking (lowerbound-style panels mix swept series with
// hand-built reference curves of different grids).
func TestWriteTableRagged(t *testing.T) {
	p := Panel{Figure: "figR", Name: "a", Title: "ragged", XLabel: "n", YLabel: "err",
		Series: []Series{
			{Name: "short", X: []float64{1, 2}, Mean: []float64{0.5, 0.25}, Std: []float64{0.1, 0.05}},
			{Name: "long", X: []float64{1, 2, 3, 4}, Mean: []float64{9, 8, 7, 6}, Std: []float64{1, 1, 1, 1}},
		}}
	var buf bytes.Buffer
	if err := WriteTable(&buf, p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"short", "long", "0.25", "7", "6"} {
		if !strings.Contains(out, want) {
			t.Errorf("ragged table missing %q:\n%s", want, out)
		}
	}
	// Four data rows: the long series drives the row count, x values
	// come from whichever series still has that row.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	var dataRows int
	for _, l := range lines {
		if strings.HasPrefix(l, "1") || strings.HasPrefix(l, "2") ||
			strings.HasPrefix(l, "3") || strings.HasPrefix(l, "4") {
			dataRows++
		}
	}
	if dataRows != 4 {
		t.Fatalf("ragged table has %d data rows, want 4:\n%s", dataRows, out)
	}
	// Reversed order must render the same rows.
	p.Series[0], p.Series[1] = p.Series[1], p.Series[0]
	buf.Reset()
	if err := WriteTable(&buf, p); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0.25") {
		t.Errorf("reversed ragged table lost short-series cells:\n%s", buf.String())
	}
}

// checkPanels validates the structural contract every figure must meet.
func checkPanels(t *testing.T, id string, panels []Panel, wantPanels int) {
	t.Helper()
	if len(panels) != wantPanels {
		t.Fatalf("%s: %d panels, want %d", id, len(panels), wantPanels)
	}
	for _, p := range panels {
		if p.Figure != id {
			t.Errorf("%s: panel figure %q", id, p.Figure)
		}
		if len(p.Series) == 0 {
			t.Fatalf("%s(%s): no series", id, p.Name)
		}
		for _, s := range p.Series {
			if len(s.X) == 0 || len(s.X) != len(s.Mean) || len(s.X) != len(s.Std) {
				t.Fatalf("%s(%s)/%s: ragged series", id, p.Name, s.Name)
			}
			for i, m := range s.Mean {
				if math.IsNaN(m) || math.IsInf(m, 0) {
					t.Fatalf("%s(%s)/%s: non-finite mean at %d", id, p.Name, s.Name, i)
				}
			}
		}
	}
}

func TestFig1Tiny(t *testing.T) {
	spec, _ := Lookup("fig1")
	checkPanels(t, "fig1", mustRun(t, spec, tiny), 3)
}

func TestFig2Tiny(t *testing.T) {
	spec, _ := Lookup("fig2")
	checkPanels(t, "fig2", mustRun(t, spec, tiny), 3)
}

func TestFig4Tiny(t *testing.T) {
	spec, _ := Lookup("fig4")
	checkPanels(t, "fig4", mustRun(t, spec, tiny), 2)
}

func TestFig8Tiny(t *testing.T) {
	spec, _ := Lookup("fig8")
	panels := mustRun(t, spec, tiny)
	checkPanels(t, "fig8", panels, 3)
	// Estimation error must be non-degenerate even under mean-less noise
	// (the metric bug this figure once had produced exactly 0 ± 0).
	for _, p := range panels {
		for _, s := range p.Series {
			allZero := true
			for _, m := range s.Mean {
				if m != 0 {
					allZero = false
				}
			}
			if allZero {
				t.Fatalf("%s/%s: degenerate all-zero series", p.Name, s.Name)
			}
		}
	}
}

func TestFig11Tiny(t *testing.T) {
	spec, _ := Lookup("fig11")
	checkPanels(t, "fig11", mustRun(t, spec, tiny), 3)
}

func TestSplitVsFullTiny(t *testing.T) {
	spec, _ := Lookup("abl-split-vs-full")
	checkPanels(t, "abl-split-vs-full", mustRun(t, spec, tiny), 1)
}

func TestFig5Tiny(t *testing.T) {
	spec, _ := Lookup("fig5")
	checkPanels(t, "fig5", mustRun(t, spec, tiny), 3)
}

func TestFig7Tiny(t *testing.T) {
	spec, _ := Lookup("fig7")
	checkPanels(t, "fig7", mustRun(t, spec, tiny), 3)
}

func TestFig10Tiny(t *testing.T) {
	spec, _ := Lookup("fig10")
	checkPanels(t, "fig10", mustRun(t, spec, tiny), 3)
}

func TestFig3Tiny(t *testing.T) {
	spec, _ := Lookup("fig3")
	checkPanels(t, "fig3", mustRun(t, spec, tiny), 2)
}

func TestLowerBoundTiny(t *testing.T) {
	spec, _ := Lookup("lowerbound")
	panels := mustRun(t, spec, tiny)
	checkPanels(t, "lowerbound", panels, 1)
	// Measured error must sit above the information-theoretic floor.
	var measured, floor *Series
	for i := range panels[0].Series {
		switch panels[0].Series[i].Name {
		case "alg5-measured":
			measured = &panels[0].Series[i]
		case "theorem9-floor":
			floor = &panels[0].Series[i]
		}
	}
	if measured == nil || floor == nil {
		t.Fatal("missing series")
	}
	for i := range measured.X {
		if measured.Mean[i] < floor.Mean[i] {
			t.Errorf("n=%v: measured %v below floor %v", measured.X[i], measured.Mean[i], floor.Mean[i])
		}
	}
}

func TestFigureDeterminism(t *testing.T) {
	// Same config → identical panels, regardless of goroutine schedule.
	spec, _ := Lookup("abl-shrink-k")
	a := mustRun(t, spec, tiny)
	b := mustRun(t, spec, tiny)
	if len(a) != len(b) {
		t.Fatal("panel count differs")
	}
	for i := range a {
		for j := range a[i].Series {
			sa, sb := a[i].Series[j], b[i].Series[j]
			for k := range sa.Mean {
				if sa.Mean[k] != sb.Mean[k] || sa.Std[k] != sb.Std[k] {
					t.Fatalf("non-deterministic at %s/%s[%d]: %v vs %v",
						a[i].Name, sa.Name, k, sa.Mean[k], sb.Mean[k])
				}
			}
		}
	}
	// Different seed → different numbers.
	c := mustRun(t, spec, Config{Reps: tiny.Reps, Scale: tiny.Scale, Seed: 99})
	if c[0].Series[0].Mean[0] == a[0].Series[0].Mean[0] {
		t.Fatal("seed ignored")
	}
}

func TestAblationsTiny(t *testing.T) {
	for _, id := range []string{"abl-alg1-vs-alg2", "abl-shrink-k"} {
		spec, _ := Lookup(id)
		checkPanels(t, id, mustRun(t, spec, tiny), 1)
	}
}

// TestRunSweepProgress: every spec reports one Progress event per
// panel, in order, ending at done == total — and observing progress
// does not change the result panels.
func TestRunSweepProgress(t *testing.T) {
	req := SweepRequest{Experiment: "fig1", Reps: 1, Scale: 0.01, Seed: 3}
	var events []Progress
	panels, err := RunSweep(context.Background(), req, nil, func(p Progress) { events = append(events, p) })
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(panels) {
		t.Fatalf("%d progress events for %d panels", len(events), len(panels))
	}
	for i, ev := range events {
		want := Progress{Done: i + 1, Total: len(panels), Panel: panels[i].Figure + "(" + panels[i].Name + ")"}
		if ev != want {
			t.Errorf("event %d = %+v, want %+v", i, ev, want)
		}
	}

	// Progress is pure observability: the panels match a silent run.
	silent, err := RunSweep(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(panels, silent) {
		t.Fatal("observing progress changed the sweep result")
	}

	// A single-panel ablation reports exactly (1, 1).
	events = nil
	if _, err := RunSweep(context.Background(), SweepRequest{Experiment: "abl-shrink-k", Reps: 1, Scale: 0.01}, nil,
		func(p Progress) { events = append(events, p) }); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Done != 1 || events[0].Total != 1 {
		t.Fatalf("single-panel events = %+v", events)
	}
}
