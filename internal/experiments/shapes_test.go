package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func mkPanel(fig, name, xlabel string, series ...Series) Panel {
	return Panel{Figure: fig, Name: name, XLabel: xlabel, Series: series}
}

func TestCheckShapesEpsMonotone(t *testing.T) {
	good := mkPanel("f", "a", "eps",
		Series{Name: "d=10", X: []float64{0.5, 1, 2}, Mean: []float64{1, 0.6, 0.3}, Std: []float64{0, 0, 0}})
	bad := mkPanel("f", "b", "eps",
		Series{Name: "d=10", X: []float64{0.5, 1, 2}, Mean: []float64{0.3, 0.6, 1.0}, Std: []float64{0, 0, 0}})
	checks := CheckShapes([]Panel{good, bad}, 0.2)
	if len(checks) != 2 {
		t.Fatalf("%d checks", len(checks))
	}
	if !checks[0].OK {
		t.Errorf("good panel flagged: %+v", checks[0])
	}
	if checks[1].OK {
		t.Errorf("bad panel passed: %+v", checks[1])
	}
}

func TestCheckShapesSlackAbsorbsNoise(t *testing.T) {
	// A 10% regression passes at slack 0.35.
	p := mkPanel("f", "a", "n",
		Series{Name: "private", X: []float64{1, 2}, Mean: []float64{1.0, 1.1}, Std: []float64{0, 0}})
	checks := CheckShapes([]Panel{p}, 0.35)
	for _, c := range checks {
		if strings.HasPrefix(c.Name, "decreasing") && !c.OK {
			t.Errorf("slack not applied: %+v", c)
		}
	}
}

func TestCheckShapesSStar(t *testing.T) {
	p := mkPanel("f", "c", "s*",
		Series{Name: "d=10", X: []float64{5, 40}, Mean: []float64{0.1, 0.8}, Std: []float64{0, 0}},
		Series{Name: "d=20", X: []float64{5, 40}, Mean: []float64{0.8, 0.1}, Std: []float64{0, 0}})
	checks := CheckShapes([]Panel{p}, 0.2)
	var okCount, failCount int
	for _, c := range checks {
		if strings.HasPrefix(c.Name, "increasing-in-s*") {
			if c.OK {
				okCount++
			} else {
				failCount++
			}
		}
	}
	if okCount != 1 || failCount != 1 {
		t.Fatalf("s* checks: %d ok, %d fail", okCount, failCount)
	}
}

// TestCheckShapesNegativeSeries: a series below zero trends by
// magnitude. fig1(c)'s non-private in-sample excess risk is negative and
// shrinks toward 0 as n grows, which is the claimed decrease; a negative
// series growing in magnitude is not.
func TestCheckShapesNegativeSeries(t *testing.T) {
	shrinking := mkPanel("f", "a", "n",
		Series{Name: "non-private", X: []float64{200, 1800}, Mean: []float64{-0.04106, -0.009167}, Std: []float64{0, 0}})
	growing := mkPanel("f", "b", "n",
		Series{Name: "non-private", X: []float64{200, 1800}, Mean: []float64{-0.01, -0.05}, Std: []float64{0, 0}})
	checks := CheckShapes([]Panel{shrinking, growing}, 0.35)
	if len(checks) != 2 {
		t.Fatalf("%d checks: %+v", len(checks), checks)
	}
	if !checks[0].OK {
		t.Errorf("shrinking negative series flagged: %+v", checks[0])
	}
	if checks[1].OK {
		t.Errorf("growing negative series passed: %+v", checks[1])
	}
}

func TestDimensionCheck(t *testing.T) {
	flat := mkPanel("f", "a", "eps",
		Series{Name: "d=100", X: []float64{1}, Mean: []float64{0.5}, Std: []float64{0}},
		Series{Name: "d=800", X: []float64{1}, Mean: []float64{0.7}, Std: []float64{0}})
	poly := mkPanel("f", "b", "eps",
		Series{Name: "d=100", X: []float64{1}, Mean: []float64{0.1}, Std: []float64{0}},
		Series{Name: "d=800", X: []float64{1}, Mean: []float64{0.9}, Std: []float64{0}})
	checks := CheckShapes([]Panel{flat, poly}, 0.2)
	var got []ShapeCheck
	for _, c := range checks {
		if c.Name == "dimension-insensitive" {
			got = append(got, c)
		}
	}
	if len(got) != 2 || !got[0].OK || got[1].OK {
		t.Fatalf("dimension checks wrong: %+v", got)
	}
}

func TestReferenceChecks(t *testing.T) {
	ok := mkPanel("f", "c", "n",
		Series{Name: "private", X: []float64{1, 2}, Mean: []float64{0.5, 0.3}, Std: []float64{0, 0}},
		Series{Name: "non-private", X: []float64{1, 2}, Mean: []float64{0.1, 0.05}, Std: []float64{0, 0}})
	bad := mkPanel("f", "d", "n",
		Series{Name: "alg5-measured", X: []float64{1}, Mean: []float64{0.001}, Std: []float64{0}},
		Series{Name: "theorem9-floor", X: []float64{1}, Mean: []float64{0.01}, Std: []float64{0}})
	checks := CheckShapes([]Panel{ok, bad}, 0.2)
	foundRef, foundFloor := false, false
	for _, c := range checks {
		switch c.Name {
		case "private-above-nonprivate":
			foundRef = true
			if !c.OK {
				t.Errorf("reference check failed: %+v", c)
			}
		case "above-minimax-floor":
			foundFloor = true
			if c.OK {
				t.Errorf("floor violation not detected: %+v", c)
			}
		}
	}
	if !foundRef || !foundFloor {
		t.Fatal("missing reference checks")
	}
}

func TestWriteShapeReport(t *testing.T) {
	var buf bytes.Buffer
	n := WriteShapeReport(&buf, []ShapeCheck{
		{Panel: "f(a)", Name: "x", OK: true, Detail: "d"},
		{Panel: "f(b)", Name: "y", OK: false, Detail: "d2"},
	})
	if n != 1 {
		t.Fatalf("fail count = %d", n)
	}
	out := buf.String()
	if !strings.Contains(out, "FAIL") || !strings.Contains(out, "ok") {
		t.Fatalf("report:\n%s", out)
	}
}

func TestShapesOnRealRunTiny(t *testing.T) {
	// Integration: the checker runs on a real figure without crashing
	// and reports at least the monotonicity and dimension checks.
	spec, _ := Lookup("fig1")
	panels := mustRun(t, spec, Config{Reps: 2, Scale: 0.02, Seed: 3})
	checks := CheckShapes(panels, 0.5)
	if len(checks) < 8 {
		t.Fatalf("only %d checks produced", len(checks))
	}
}
