package serve

import (
	"context"
	"testing"

	"htdp/internal/data"
	"htdp/internal/randx"
)

// chunkLog records every Chunk call reaching the source it wraps.
type chunkLog struct {
	data.Source
	calls [][2]int // (t, T)
}

func (c *chunkLog) Chunk(t, T int) (*data.Dataset, error) {
	c.calls = append(c.calls, [2]int{t, T})
	return c.Source.Chunk(t, T)
}

// TestExecuteRunReadsDataOnceForRisk: after the algorithm, ExecuteRun
// measures risk and risk_zero in one streaming pass, so exactly one
// more walk of the StreamChunks(n) chunks reaches the source. The
// dataset spans several stream chunks and every run uses T = 5, so the
// algorithms' own reads are told apart by their chunk count: fw, iht
// and sparseopt read chunks of 5, dpsgd reads rows, and lasso streams
// T full passes of its own.
func TestExecuteRunReadsDataOnceForRisk(t *testing.T) {
	const n, T = 2*data.StreamRows + 300, 5
	ds := data.Linear(randx.New(3), data.LinearOpt{
		N: n, D: 10,
		Feature: randx.LogNormal{Mu: 0, Sigma: 0.8},
		Noise:   randx.Normal{Mu: 0, Sigma: 0.3},
	})
	C := data.StreamChunks(n)
	for algo, algoPasses := range map[string]int{"fw": 0, "iht": 0, "sparseopt": 0, "dpsgd": 0, "lasso": T} {
		src := &chunkLog{Source: data.NewMemSource(ds)}
		q := RunRequest{Dataset: "mem", Algo: algo, T: T, SStar: 2, Seed: 4}
		if _, err := ExecuteRun(context.Background(), src, q); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		passes := 0
		for _, c := range src.calls {
			if c[1] == C {
				passes++
			}
		}
		if want := (algoPasses + 1) * C; passes != want {
			t.Fatalf("%s: %d reads of the %d stream chunks, want %d (the algorithm's %d passes plus one risk pass)",
				algo, passes, C, want, algoPasses)
		}
		tail := src.calls[len(src.calls)-C:]
		for c, call := range tail {
			if call != [2]int{c, C} {
				t.Fatalf("%s: risk pass read %v, want chunks 0..%d of %d in order", algo, tail, C-1, C)
			}
		}
	}
}
