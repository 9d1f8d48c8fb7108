package loss

import (
	"math"
	"testing"

	"htdp/internal/data"
	"htdp/internal/parallel"
	"htdp/internal/randx"
)

func streamTestSource(n, d int) (*data.GenSource, *data.Dataset) {
	gen := data.LinearSource(21, data.LinearOpt{
		N: n, D: d,
		Feature: randx.LogNormal{Mu: 0, Sigma: 1},
		Noise:   randx.Normal{Mu: 0, Sigma: 0.3},
	})
	return gen, gen.Materialize()
}

// TestEmpiricalSourceMatchesDense: the streamed risk must agree with
// the dense evaluator up to roundoff (the summation orders differ) and
// be bit-identical across backends and worker counts.
func TestEmpiricalSourceMatchesDense(t *testing.T) {
	gen, full := streamTestSource(700, 9)
	w := make([]float64, 9)
	for j := range w {
		w[j] = 0.1 * float64(j)
	}
	dense := Empirical(Squared{}, w, full.X, full.Y)
	ref, err := EmpiricalSource(Squared{}, w, data.NewMemSource(full), 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ref-dense) > 1e-9*(1+math.Abs(dense)) {
		t.Fatalf("streamed %v vs dense %v", ref, dense)
	}
	for _, workers := range []int{1, 3, 0} {
		for name, src := range map[string]data.Source{"mem": data.NewMemSource(full), "gen": gen} {
			got, err := EmpiricalSource(Squared{}, w, src, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got != ref {
				t.Fatalf("%s workers=%d: %v, want bit-identical %v", name, workers, got, ref)
			}
		}
	}
}

func TestFullGradientSourceMatchesDense(t *testing.T) {
	gen, full := streamTestSource(650, 7)
	w := make([]float64, 7)
	w[2] = 0.5
	dense := FullGradient(Squared{}, nil, w, full.X, full.Y)
	ref, err := FullGradientSourceWS(Squared{}, nil, w, data.NewMemSource(full), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := range dense {
		if math.Abs(ref[j]-dense[j]) > 1e-9*(1+math.Abs(dense[j])) {
			t.Fatalf("coord %d: streamed %v vs dense %v", j, ref[j], dense[j])
		}
	}
	for _, workers := range []int{1, 4, 0} {
		got, err := FullGradientSourceWS(Squared{}, nil, w, gen, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ref {
			if got[j] != ref[j] {
				t.Fatalf("gen workers=%d coord %d: %v, want bit-identical %v", workers, j, got[j], ref[j])
			}
		}
	}
}

func TestExcessRiskSource(t *testing.T) {
	_, full := streamTestSource(300, 5)
	src := data.NewMemSource(full)
	zero := make([]float64, 5)
	got, err := ExcessRiskSource(Squared{}, full.WStar, zero, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got >= 0 {
		t.Fatalf("w* should beat the zero vector on its own data, got excess %v", got)
	}
}

// chunkOrderRisk is the reference summation order of the streaming risk:
// per chunk, one parallel.ReduceFloat over the chunk's rows, chunk sums
// added in chunk order, divided by n at the end.
func chunkOrderRisk(t *testing.T, l Loss, w []float64, src data.Source, workers int) float64 {
	t.Helper()
	var sum float64
	if err := data.EachChunk(src, data.StreamChunks(src.N()), func(_ int, ck *data.Dataset) error {
		sum += parallel.ReduceFloat(workers, ck.N(), func(_, lo, hi int) float64 {
			var p float64
			for i := lo; i < hi; i++ {
				p += l.Value(w, ck.X.Row(i), ck.Y[i])
			}
			return p
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return sum / float64(src.N())
}

// TestEmpiricalSourceMultiOnePass: the multi-vector pass reads every
// chunk exactly once and returns, for each vector, the reference
// chunk-order risk bit for bit — over several chunks and at every
// worker count — and EmpiricalSource and ExcessRiskSource agree with it.
// The heavy tails spread the per-row losses over orders of magnitude,
// so a change to any level of the summation order changes the bits.
func TestEmpiricalSourceMultiOnePass(t *testing.T) {
	const n, d = 2*data.StreamRows + 300, 4
	full := data.LinearSource(22, data.LinearOpt{
		N: n, D: d,
		Feature: randx.LogNormal{Mu: 0, Sigma: 2},
		Noise:   randx.StudentT{Nu: 2},
	}).Materialize()
	zero := make([]float64, d)
	ws := [][]float64{full.WStar, zero, {0.3, -0.2, 0.1, 0.05}}
	for _, workers := range []int{1, 3, 0} {
		src := &chunkCounter{Source: data.NewMemSource(full)}
		got, err := EmpiricalSourceMulti(Squared{}, ws, src, workers)
		if err != nil {
			t.Fatal(err)
		}
		if want := data.StreamChunks(n); src.chunks != want {
			t.Fatalf("workers=%d: %d chunk reads, want one pass of %d", workers, src.chunks, want)
		}
		for j, w := range ws {
			want := chunkOrderRisk(t, Squared{}, w, data.NewMemSource(full), workers)
			if got[j] != want {
				t.Fatalf("workers=%d vector %d: %v, want bit-identical %v", workers, j, got[j], want)
			}
			single, err := EmpiricalSource(Squared{}, w, data.NewMemSource(full), workers)
			if err != nil || single != want {
				t.Fatalf("workers=%d vector %d: EmpiricalSource %v (%v), want %v", workers, j, single, err, want)
			}
		}
		excess, err := ExcessRiskSource(Squared{}, ws[0], ws[1], data.NewMemSource(full), workers)
		if err != nil || excess != got[0]-got[1] {
			t.Fatalf("workers=%d: ExcessRiskSource %v (%v), want %v", workers, excess, err, got[0]-got[1])
		}
	}
	if got, err := EmpiricalSourceMulti(Squared{}, nil, data.NewMemSource(full), 0); err != nil || len(got) != 0 {
		t.Fatalf("no vectors: %v, %v", got, err)
	}
}

// chunkCounter counts the Chunk calls reaching the source it wraps.
type chunkCounter struct {
	data.Source
	chunks int
}

func (c *chunkCounter) Chunk(t, T int) (*data.Dataset, error) {
	c.chunks++
	return c.Source.Chunk(t, T)
}
