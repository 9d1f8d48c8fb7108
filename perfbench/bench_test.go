package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSameSeedSameInputs(t *testing.T) {
	dir := t.TempDir()
	gen := func(name string, seed int64) map[string][]byte {
		d := filepath.Join(dir, name)
		in, err := WriteInputs(d, seed)
		if err != nil {
			t.Fatal(err)
		}
		sched := filepath.Join(d, "schedule.jsonl")
		if err := WriteSchedule(sched, seed, 2*time.Second); err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for _, p := range []string{in.HeavyCSV, in.SmallCSV, in.TokenFile, sched} {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			out[filepath.Base(p)] = b
		}
		return out
	}
	a, b, c := gen("a", 7), gen("b", 7), gen("c", 8)
	for name := range a {
		if !bytes.Equal(a[name], b[name]) {
			t.Errorf("%s differs between two runs of seed 7", name)
		}
		if bytes.Equal(a[name], c[name]) {
			t.Errorf("%s is the same for seeds 7 and 8", name)
		}
	}
	// heavy must exceed both CSV caches, small must fit the row cache.
	if rows := bytes.Count(a["heavy.csv"], []byte("\n")); rows != heavyRows || rows <= 8192 {
		t.Errorf("heavy.csv has %d rows, want %d > 8192", rows, heavyRows)
	}
	if rows := bytes.Count(a["small.csv"], []byte("\n")); rows != smallRows || rows >= 2048 {
		t.Errorf("small.csv has %d rows, want %d < 2048", rows, smallRows)
	}
}

func TestColdRunsAreFreshAndCycle(t *testing.T) {
	reqs := ColdRuns(3, 5*len(coldMix))
	seen := map[int64]bool{}
	for i, q := range reqs {
		if seen[q.Run.Seed] {
			t.Fatalf("request %d repeats seed %d; every cold run must miss", i, q.Run.Seed)
		}
		seen[q.Run.Seed] = true
		want := coldMix[i%len(coldMix)]
		if q.Run.Algo != want.Algo || q.Run.Dataset != want.Dataset || q.Run.T != want.T {
			t.Fatalf("request %d is %+v, want the cycle's %+v", i, *q.Run, want)
		}
	}
}

func TestStormWindowCount(t *testing.T) {
	const window = 10 * time.Second
	_, inter := Storm(5, window)
	in := 0
	for i, q := range inter {
		if i > 0 && q.Due < inter[i-1].Due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		if q.Due < window {
			in++
		}
	}
	if want := int(interactiveRate * window.Seconds()); in != want {
		t.Errorf("%d interactive arrivals within the window, want exactly %d", in, want)
	}
}

func TestHotReadsFreshPairs(t *testing.T) {
	keys := HotKeys(9)
	reads := HotReads(9, keys, 5*time.Second)
	pairs := map[int][]Req{}
	for _, q := range reads {
		if q.Pair > 0 {
			pairs[q.Pair] = append(pairs[q.Pair], q)
		} else if q.Key < 0 || q.Key >= len(keys) {
			t.Fatalf("read %d has key %d outside the warmed set", q.ID, q.Key)
		}
	}
	if len(pairs) != hotFreshPairs {
		t.Fatalf("%d fresh pairs, want %d", len(pairs), hotFreshPairs)
	}
	for p, qs := range pairs {
		if len(qs) != 2 || qs[0].Due != qs[1].Due || string(qs[0].Body()) != string(qs[1].Body()) {
			t.Errorf("fresh pair %d is not two identical requests with one due time: %+v", p, qs)
		}
	}
}

func TestPercentileTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: Percentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{99, 90, 90, false},   // rank 90: 9 beyond
		{100, 90, 90, true},   // rank 90: 10 beyond
		{999, 99, 990, false}, // rank 990: 9 beyond
		{1000, 99, 990, true}, // rank 990: 10 beyond
		{20, 50, 10, true},
		{5, 50, 3, false},
	} {
		v, ok := Percentile(seq(c.n), c.p)
		if v != c.want || ok != c.ok {
			t.Errorf("p%g of 1..%d = %v ok=%v, want %v ok=%v", c.p, c.n, v, ok, c.want, c.ok)
		}
	}
	// A failed request counts as missing every limit: it sorts last.
	xs := append(seq(99), math.Inf(1))
	if v, _ := Percentile(xs, 100); !math.IsInf(v, 1) {
		t.Errorf("max with a failure = %v, want +Inf", v)
	}
	if v, ok := Percentile(nil, 50); !math.IsNaN(v) || ok {
		t.Errorf("Percentile of no samples = %v ok=%v, want NaN false", v, ok)
	}
}

func TestWindowedPercentile(t *testing.T) {
	// 300 samples in three groups of 100; the middle group is stalled.
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = float64(i%100 + 1)
		if i >= 100 && i < 200 {
			xs[i] *= 50
		}
	}
	v, groups, ok := WindowedPercentile(xs, 90, 100, 20)
	if v != 90 || groups != 3 || !ok {
		t.Errorf("grouped p90 = %v over %d groups ok=%v, want 90 over 3 groups ok=true", v, groups, ok)
	}
	if _, _, ok := WindowedPercentile(xs[:99], 90, 100, 20); ok {
		t.Error("p90 of 99 samples in one group reported ok; it has 9 samples beyond it")
	}
	if _, groups, _ := WindowedPercentile(make([]float64, 5000), 50, 100, 20); groups != 20 {
		t.Errorf("5000 samples split into %d groups, want the cap of 20", groups)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps span 2
		{ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 3, Start: 25, End: 45},  // a grandchild
		{ID: 6, Start: 200, End: 210},           // another root, no children
	}
	self := SelfTimes(spans)
	for id, want := range map[int]time.Duration{
		1: 100 - (50 - 10) - (100 - 90),
		2: 20,
		3: 30 - 20,
		4: 30,
		5: 20,
		6: 10,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestTracerRecordingOff(t *testing.T) {
	tr := NewTracer()
	root := tr.Begin(0, 1, "compute", "")
	kid := tr.Begin(root, 1, "core.fw", "gen")
	tr.End(kid, 0)
	tr.End(root, 0)
	tr.SetRecording(false)
	if id := tr.Begin(0, 2, "compute", ""); id != 0 {
		t.Fatalf("Begin with recording off = %d, want 0", id)
	}
	tr.End(0, 0)
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].End < spans[1].End {
		t.Fatalf("spans = %+v, want a root enclosing one child", spans)
	}
}
