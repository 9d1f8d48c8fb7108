package vecmath

import "htdp/internal/parallel"

// Sharded parallel variants of the dense kernels on the algorithms' hot
// paths. All of them shard a row or coordinate range on the
// internal/parallel engine, so their output is bit-identical for every
// worker count: MatVecP writes disjoint coordinates, and the reduction
// kernels merge fixed per-shard partials in shard order.

// MatVecP computes dst = M·v like MatVec, sharding the output rows
// across workers (0 → GOMAXPROCS). Each row is a disjoint write, so the
// result is bit-identical to MatVec at any worker count.
func (m *Mat) MatVecP(dst, v []float64, workers int) []float64 {
	if len(v) != m.Cols {
		panic("vecmath: MatVecP dim mismatch")
	}
	if dst == nil {
		dst = make([]float64, m.Rows)
	}
	parallel.For(workers, m.Rows, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = Dot(m.Row(i), v)
		}
	})
	return dst
}

// MatTVecP computes dst = Mᵀ·v, sharding the rows across workers and
// summing per-shard partials in shard order. The summation tree is
// sharded (fixed by the row count), so the result is worker-count
// independent, though it may differ from the single-pass MatTVec in the
// last bits.
func (m *Mat) MatTVecP(dst, v []float64, workers int) []float64 {
	if len(v) != m.Rows {
		panic("vecmath: MatTVecP dim mismatch")
	}
	if dst == nil {
		dst = make([]float64, m.Cols)
	}
	return parallel.ReduceVec(workers, m.Rows, dst, func(acc []float64, _, lo, hi int) {
		for i := lo; i < hi; i++ {
			Axpy(v[i], m.Row(i), acc)
		}
	})
}

// GramP is the sharded parallel Gram kernel (1/n)·XᵀX: row shards
// accumulate partial d×d second-moment matrices that are merged in
// shard order. Bit-identical for every worker count.
func (m *Mat) GramP(workers int) *Mat {
	d := m.Cols
	g := NewMat(d, d)
	parallel.ReduceVec(workers, m.Rows, g.Data, func(acc []float64, _, lo, hi int) {
		for i := lo; i < hi; i++ {
			r := m.Row(i)
			for a := 0; a < d; a++ {
				ra := r[a]
				if ra == 0 {
					continue
				}
				row := acc[a*d : (a+1)*d]
				for b, rb := range r {
					row[b] += ra * rb
				}
			}
		}
	})
	if m.Rows > 0 {
		Scale(g.Data, 1/float64(m.Rows))
	}
	return g
}

// ColMomentsP returns per-column Welford moment accumulators over the
// rows of m: shard-local OnlineMoments streams merged in shard order
// with the pairwise Chan et al. update. The merge tree is fixed by the
// row count, so the moments are worker-count independent.
func ColMomentsP(m *Mat, workers int) []OnlineMoments {
	d := m.Cols
	if m.Rows == 0 {
		return make([]OnlineMoments, d)
	}
	type acc = []OnlineMoments
	return parallel.Reduce(workers, m.Rows,
		func(int) acc { return make(acc, d) },
		func(a acc, _, lo, hi int) acc {
			for i := lo; i < hi; i++ {
				r := m.Row(i)
				for j, v := range r {
					a[j].Add(v)
				}
			}
			return a
		},
		func(into, from acc) acc {
			for j := range into {
				into[j].Merge(from[j])
			}
			return into
		},
	)
}
