package robust

import (
	"runtime"
	"testing"

	"htdp/internal/randx"
)

// The estimator's sharded hot paths must be bit-identical at every
// worker count: EstimateVec shards coordinates into disjoint writes,
// EstimateFuncWS merges sample-shard partials in shard order.
func TestEstimatorParallelismBitIdentical(t *testing.T) {
	const n, d = 700, 90
	r := randx.New(21)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = r.NormalVec(make([]float64, d), 50)
	}
	levels := []int{1, 2, 3, runtime.GOMAXPROCS(0), 4 * runtime.GOMAXPROCS(0)}

	base := MeanEstimator{S: 10, Beta: 1, Parallelism: 1}
	wantVec := base.EstimateVec(nil, rows)
	wantFun := base.EstimateFuncWS(make([]float64, d), n, nil, func(i int, buf []float64) { copy(buf, rows[i]) })
	for _, p := range levels {
		e := MeanEstimator{S: 10, Beta: 1, Parallelism: p}
		gotVec := e.EstimateVec(nil, rows)
		gotFun := e.EstimateFuncWS(make([]float64, d), n, nil, func(i int, buf []float64) { copy(buf, rows[i]) })
		for j := 0; j < d; j++ {
			if gotVec[j] != wantVec[j] {
				t.Fatalf("EstimateVec Parallelism=%d coord %d: %v != %v", p, j, gotVec[j], wantVec[j])
			}
			if gotFun[j] != wantFun[j] {
				t.Fatalf("EstimateFuncWS Parallelism=%d coord %d: %v != %v", p, j, gotFun[j], wantFun[j])
			}
		}
	}
}
