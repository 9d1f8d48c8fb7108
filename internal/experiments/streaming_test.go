package experiments

import (
	"math"
	"testing"

	"htdp/internal/data"
	"htdp/internal/randx"
)

func TestStreamingTiny(t *testing.T) {
	spec, _ := Lookup("streaming")
	panels := mustRun(t, spec, tiny)
	checkPanels(t, "streaming", panels, 1)
	if len(panels[0].Series) != 2 {
		t.Fatalf("series = %d, want dpfw-stream and lasso-stream", len(panels[0].Series))
	}
}

// testRows is the fixed generated dataset behind the factory tests.
func testRows() *data.GenSource {
	return data.LinearSource(42, data.LinearOpt{
		N: 300, D: 10,
		Feature: randx.LogNormal{Mu: 0, Sigma: 0.8},
		Noise:   randx.Normal{Mu: 0, Sigma: 0.3},
	})
}

// countingFactory returns a seed-invariant source factory (the seed is
// ignored, like a CSV Reopen or a pool Acquire) over testRows, counting
// opens and closes. The counters are unsynchronized: use Parallelism 1.
func countingFactory(opened, closed *int) func(seed int64) (data.Source, error) {
	return func(int64) (data.Source, error) {
		*opened++
		return &closeCounter{Source: testRows(), closed: closed}, nil
	}
}

// TestStreamingConfigSource: a user-supplied factory (the -stream CSV
// path) must replace the default generator, feed every trial, and have
// its sources closed. Every (point, rep) opens its own source.
func TestStreamingConfigSource(t *testing.T) {
	opened, closed := 0, 0
	cfg := tiny
	cfg.Parallelism = 1
	cfg.Source = countingFactory(&opened, &closed)
	spec, _ := Lookup("streaming")
	panels := mustRun(t, spec, cfg)
	checkPanels(t, "streaming", panels, 1)
	// 2 series × |epsGrid| points × Reps trials.
	want := 2 * len(epsGrid) * cfg.Reps
	if opened != want {
		t.Fatalf("factory called %d times, want %d", opened, want)
	}
	if closed != opened {
		t.Fatalf("closed %d of %d sources", closed, opened)
	}
	for _, s := range panels[0].Series {
		for i, m := range s.Mean {
			if math.IsNaN(m) || math.IsInf(m, 0) {
				t.Fatalf("%s[%d] non-finite", s.Name, i)
			}
		}
	}
}

// TestStreamingSharedSource: a seed-invariant factory served by a
// data.SourcePool — what the serving layer and cmd/htdp -run -stream
// pass — decodes the rows once, hands every (point, rep) trial its own
// view, and yields the panel bytes of the same rows streamed from their
// generator per trial.
func TestStreamingSharedSource(t *testing.T) {
	pool := data.NewSourcePool()
	defer pool.Close()
	if _, err := pool.RegisterGen("rows", testRows()); err != nil {
		t.Fatal(err)
	}
	opened, closed := 0, 0
	pooled := tiny
	pooled.Parallelism = 1
	pooled.Source = func(int64) (data.Source, error) {
		opened++
		src, err := pool.Acquire("rows")
		if err != nil {
			return nil, err
		}
		return &closeCounter{Source: src, closed: &closed}, nil
	}
	spec, _ := Lookup("streaming")
	pooledPanels := mustRun(t, spec, pooled)
	checkPanels(t, "streaming", pooledPanels, 1)
	if want := 2 * len(epsGrid) * pooled.Reps; opened != want || closed != opened {
		t.Fatalf("pooled factory opened %d, closed %d views, want %d each", opened, closed, want)
	}
	if got, want := pool.ResidentBytes(), int64(300*(10+1)*8); got != want {
		t.Fatalf("pool holds %d bytes, want the %d of one decode", got, want)
	}

	var o2, c2 int
	direct := pooled
	direct.Source = countingFactory(&o2, &c2)
	directPanels := mustRun(t, spec, direct)
	for i, p := range pooledPanels {
		for j, s := range p.Series {
			u := directPanels[i].Series[j]
			for k := range s.Mean {
				if s.Mean[k] != u.Mean[k] || s.Std[k] != u.Std[k] {
					t.Fatalf("pooled vs streamed differ at %s[%d]: %v vs %v",
						s.Name, k, s.Mean[k], u.Mean[k])
				}
			}
		}
	}
}

type closeCounter struct {
	data.Source
	closed *int
}

func (c *closeCounter) Close() error {
	*c.closed++
	return c.Source.Close()
}
