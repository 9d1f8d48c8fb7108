package robust

import (
	"math"
	"testing"

	"htdp/internal/randx"
)

// TestStreamMeanMatchesEstimateFunc: delivering the samples as one
// block must reproduce EstimateFuncWS bit for bit (identical sharding),
// and any blocking must agree up to roundoff and be worker-invariant.
func TestStreamMeanMatchesEstimateFunc(t *testing.T) {
	const n, d = 500, 11
	r := randx.New(31)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = r.NormalVec(make([]float64, d), 3)
	}
	est := MeanEstimator{S: 2, Beta: 1}
	want := est.EstimateFuncWS(make([]float64, d), n, nil, func(i int, buf []float64) {
		copy(buf, rows[i])
	})

	one := est.NewStream(d)
	one.Add(n, func(i int, buf []float64) { copy(buf, rows[i]) })
	if one.n != n {
		t.Fatalf("Count = %d", one.n)
	}
	got := one.Finish(nil)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("single block coord %d: %v, want bit-identical %v", j, got[j], want[j])
		}
	}

	blocked := func(workers int, splits []int) []float64 {
		e := est
		e.Parallelism = workers
		s := e.NewStream(d)
		lo := 0
		for _, hi := range splits {
			block := rows[lo:hi]
			s.Add(len(block), func(i int, buf []float64) { copy(buf, block[i]) })
			lo = hi
		}
		return s.Finish(nil)
	}
	ref := blocked(1, []int{100, 350, n})
	for _, workers := range []int{1, 2, 7, 0} {
		got := blocked(workers, []int{100, 350, n})
		for j := range ref {
			if got[j] != ref[j] {
				t.Fatalf("workers=%d coord %d: %v, want bit-identical %v", workers, j, got[j], ref[j])
			}
		}
	}
	for j := range want {
		if math.Abs(ref[j]-want[j]) > 1e-12*(1+math.Abs(want[j])) {
			t.Fatalf("blocked coord %d: %v vs unblocked %v", j, ref[j], want[j])
		}
	}
}

func TestStreamMeanReset(t *testing.T) {
	est := MeanEstimator{S: 1, Beta: 1}
	s := est.NewStream(2)
	s.Add(3, func(i int, buf []float64) { buf[0], buf[1] = 1, -1 })
	s.Reset()
	if s.n != 0 {
		t.Fatalf("Count after Reset = %d", s.n)
	}
	out := s.Finish(nil)
	if out[0] != 0 || out[1] != 0 {
		t.Fatalf("Finish after Reset = %v", out)
	}
	s.Add(2, func(i int, buf []float64) { buf[0], buf[1] = 0.5, 0.25 })
	out = s.Finish(nil)
	if out[0] == 0 || out[1] == 0 {
		t.Fatalf("Finish after refill = %v", out)
	}
}
