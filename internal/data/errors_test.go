package data

import (
	"errors"
	"math"
	"strings"
	"testing"

	"htdp/internal/randx"
)

// Deep error-path coverage for csv.go and real.go: malformed input must
// fail with an error that names the offending row, not silently produce
// an empty or truncated dataset.

func TestReadCSVErrorMessagesLocateRow(t *testing.T) {
	cases := map[string]struct {
		in   string
		col  int
		hdr  bool
		want string // substring the error must carry
	}{
		"non-numeric-row-3":  {"1,2\n3,4\n5,x\n", -1, false, "row 3"},
		"non-numeric-col-0":  {"oops,2\n", -1, false, "col 0"},
		"ragged-row-2":       {"1,2,3\n1,2\n", -1, false, "line 2"},
		"header-bare-quote":  {"a,\"b\n1,2\n", -1, true, "header"},
		"label-col-too-high": {"1,2,3\n", 7, false, "label column 7"},
		"label-col-too-low":  {"1,2,3\n", -9, false, "label column -9"},
		"single-column":      {"42\n", -1, false, "≥2 columns"},
		"empty-input":        {"", -1, false, "empty CSV"},
		"header-then-empty":  {"a,b\n", -1, true, "empty CSV"},
	}
	for name, c := range cases {
		_, err := ReadCSV(strings.NewReader(c.in), "t", c.col, c.hdr)
		if err == nil {
			t.Errorf("%s: expected error", name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, c.want)
		}
	}
}

func TestReadCSVHeaderRowNotCountedAsData(t *testing.T) {
	// The first data row after a header is row 2; its error must say so.
	_, err := ReadCSV(strings.NewReader("colA,colB\nbad,1\n"), "t", -1, true)
	if err == nil || !strings.Contains(err.Error(), "row 2") {
		t.Fatalf("error %v, want row-2 location", err)
	}
}

func TestReadCSVNegativeLabelFromEnd(t *testing.T) {
	ds, err := ReadCSV(strings.NewReader("1,2,3\n4,5,6\n"), "t", -2, false)
	if err != nil {
		t.Fatal(err)
	}
	if ds.D() != 2 || ds.Y[0] != 2 || ds.Y[1] != 5 {
		t.Fatalf("labelCol=-2: features d=%d labels %v", ds.D(), ds.Y)
	}
}

// failWriter fails after a fixed number of bytes, exercising WriteCSV's
// error propagation on both the row path and the final flush.
type failWriter struct{ budget int }

func (f *failWriter) Write(p []byte) (int, error) {
	if len(p) > f.budget {
		n := f.budget
		f.budget = 0
		return n, errors.New("disk full")
	}
	f.budget -= len(p)
	return len(p), nil
}

func TestWriteCSVPropagatesWriterErrors(t *testing.T) {
	r := randx.New(1)
	ds := Linear(r, LinearOpt{N: 50, D: 4, Feature: randx.Normal{Sigma: 1}})
	if err := WriteCSV(&failWriter{budget: 16}, ds); err == nil {
		t.Fatal("WriteCSV ignored a failing writer")
	}
	if err := WriteCSV(&failWriter{budget: 1 << 20}, ds); err != nil {
		t.Fatalf("WriteCSV with ample budget: %v", err)
	}
}

func TestCSVRoundTripMismatchedDimensions(t *testing.T) {
	// A file whose rows disagree in width must be rejected wholesale,
	// not loaded up to the first bad row.
	in := "1,2,3\n4,5,6\n7,8\n"
	if _, err := ReadCSV(strings.NewReader(in), "t", -1, false); err == nil {
		t.Fatal("mismatched row widths accepted")
	}
}

// TestSimulatedRealScalePanics: a scale that is NaN or outside (0, 1]
// never panics; SimulatedReal returns an error naming it.
func TestSimulatedRealScalePanics(t *testing.T) {
	spec := RealSpecs[0]
	for _, scale := range []float64{0, -0.5, 1.5, math.NaN()} {
		ds, err := SimulatedReal(randx.New(1), spec, scale)
		if err == nil || ds != nil || !strings.Contains(err.Error(), "scale") {
			t.Errorf("scale=%v: dataset %v, error %v; want no dataset and a scale error", scale, ds != nil, err)
		}
	}
}

func TestLookupRealErrorNamesOptions(t *testing.T) {
	_, err := LookupReal("imagenet")
	if err == nil || !strings.Contains(err.Error(), "blog") {
		t.Fatalf("error %v should list the known datasets", err)
	}
}

func TestKurtosisDegenerateColumn(t *testing.T) {
	// A constant column has zero variance; Kurtosis must return 0, not NaN.
	ds, err := ReadCSV(strings.NewReader("5,1\n5,2\n5,3\n"), "t", -1, false)
	if err != nil {
		t.Fatal(err)
	}
	if k := Kurtosis(ds, 0); k != 0 {
		t.Fatalf("constant-column kurtosis = %v, want 0", k)
	}
}

func TestEmptyDatasetRejectedByAlgInputs(t *testing.T) {
	// ReadCSV never produces an empty dataset, so Split/Subset contract
	// checks are the guard for manual construction.
	ds, err := ReadCSV(strings.NewReader("1,2\n"), "t", -1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Split(2) of a 1-row dataset should panic")
		}
	}()
	ds.Split(2)
}
