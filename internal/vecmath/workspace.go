package vecmath

import (
	"fmt"

	"htdp/internal/parallel"
)

// MatWorkspace is the reusable iteration scratch of the dense kernels,
// and the home of their register-blocked mat-vecs. The allocating
// entry points (MatVecP, MatTVecP, GramP) cost two kinds of per-call
// garbage on a hot loop: the per-shard partial accumulators of the
// reduction kernels, and the loop-body closure that escapes into the
// worker pool. A workspace owns both — partials live in a
// parallel.VecReducer, and each kernel's body closure is built once, on
// first use, reading its operands through the workspace fields — so a
// loop that reuses one workspace performs zero allocations per call
// after warm-up (with the sequential engine; the parallel engine adds
// only its per-goroutine spawns).
//
// Results are bit-identical to the allocating kernels: the shard
// structure, every output's addition order, and the shard-order merge
// are unchanged. What differs is where the partials and closures live
// and, in MatVec and MatTVec, how many rows one pass covers. One
// workspace serves one goroutine; it is not safe for concurrent use.
//
// Each kernel has one body for two row sources: a *Mat (MatVec,
// MatTVec) or a row view, one slice per row wherever it lives
// (MatVecRows, MatTVecRows). The body picks the source once per block
// of four rows, so a view over the rows of a matrix gives the matrix's
// result bit for bit.
type MatWorkspace struct {
	m      *Mat        // the matrix operand, or nil for a row view
	rows   [][]float64 // the row-view operand, or nil for a matrix
	v, dst []float64
	red    parallel.VecReducer

	matvecBody  func(shard, lo, hi int)
	mattvecBody func(shard, lo, hi int)
}

// MatVec computes dst = M·v like (*Mat).MatVecP, bit-identically,
// reusing the workspace's cached loop body. dst is allocated when nil;
// otherwise it must hold exactly m.Rows entries.
//
// The body is register-blocked: each pass over v runs the dot products
// of four rows as four interleaved accumulator chains, so the adds of
// different rows overlap while every row keeps Dot's single chain in
// column order. Rows past the last full block of four take Dot itself.
func (ws *MatWorkspace) MatVec(dst []float64, m *Mat, v []float64, workers int) []float64 {
	if len(v) != m.Cols {
		panic("vecmath: MatVec dim mismatch")
	}
	dst = sizedDst("MatVec", dst, m.Rows, "rows")
	ws.m = m
	ws.matVec(dst, v, workers)
	return dst
}

// MatVecRows computes dst[i] = ⟨rows[i], v⟩ with MatVec's body, so it
// equals MatVec over the same rows stored as one matrix, bit for bit.
// Every row must hold exactly len(v) entries. dst is allocated when
// nil; otherwise it must hold exactly len(rows) entries.
func (ws *MatWorkspace) MatVecRows(dst []float64, rows [][]float64, v []float64, workers int) []float64 {
	dst = sizedDst("MatVecRows", dst, len(rows), "rows")
	ws.rows = rows
	ws.matVec(dst, v, workers)
	return dst
}

// matVec runs the MatVec body over the operand in ws.m or ws.rows.
func (ws *MatWorkspace) matVec(dst, v []float64, workers int) {
	ws.v, ws.dst = v, dst
	if ws.matvecBody == nil {
		ws.matvecBody = func(_, lo, hi int) {
			m, rows, v, dst := ws.m, ws.rows, ws.v, ws.dst
			d := len(v)
			i := lo
			for ; i+4 <= hi; i += 4 {
				var r0, r1, r2, r3 []float64
				if rows != nil {
					r0, r1, r2, r3 = rows[i], rows[i+1], rows[i+2], rows[i+3]
				} else {
					r0, r1, r2, r3 = m.Row(i), m.Row(i+1), m.Row(i+2), m.Row(i+3)
				}
				r0, r1, r2, r3 = r0[:d], r1[:d], r2[:d], r3[:d]
				var s0, s1, s2, s3 float64
				for j, vj := range v {
					s0 += r0[j] * vj
					s1 += r1[j] * vj
					s2 += r2[j] * vj
					s3 += r3[j] * vj
				}
				dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
			}
			for ; i < hi; i++ {
				if rows != nil {
					dst[i] = Dot(rows[i], v)
				} else {
					dst[i] = Dot(m.Row(i), v)
				}
			}
		}
	}
	parallel.For(workers, len(dst), ws.matvecBody)
	ws.m, ws.rows, ws.v, ws.dst = nil, nil, nil, nil
}

// MatTVec computes dst = Mᵀ·v like (*Mat).MatTVecP, bit-identically,
// with pooled per-shard partials merged in shard order. dst is
// allocated when nil; otherwise it must hold exactly m.Cols entries.
//
// The body is register-blocked: each pass over a shard's accumulator
// folds in four rows, loading and storing every entry once per block
// instead of once per row. Each entry still receives the rows' terms
// one at a time in row order, the adds four Axpy calls would make.
// Rows past the last full block of four take Axpy itself.
func (ws *MatWorkspace) MatTVec(dst []float64, m *Mat, v []float64, workers int) []float64 {
	if len(v) != m.Rows {
		panic("vecmath: MatTVec dim mismatch")
	}
	dst = sizedDst("MatTVec", dst, m.Cols, "cols")
	ws.m = m
	ws.matTVec(dst, v, workers)
	return dst
}

// MatTVecRows computes dst = Σᵢ v[i]·rows[i] with MatTVec's body, so it
// equals MatTVec over the same rows stored as one matrix, bit for bit.
// len(v) must be len(rows), and every row must hold exactly len(dst)
// entries; dst must be non-nil.
func (ws *MatWorkspace) MatTVecRows(dst []float64, rows [][]float64, v []float64, workers int) []float64 {
	if len(v) != len(rows) {
		panic("vecmath: MatTVecRows dim mismatch")
	}
	ws.rows = rows
	ws.matTVec(dst, v, workers)
	return dst
}

// matTVec runs the MatTVec body over the operand in ws.m or ws.rows.
func (ws *MatWorkspace) matTVec(dst, v []float64, workers int) {
	n := len(v)
	if n == 0 {
		Zero(dst)
		ws.m, ws.rows = nil, nil
		return
	}
	ws.red.Setup(parallel.NumShards(n), dst)
	ws.v = v
	if ws.mattvecBody == nil {
		ws.mattvecBody = func(shard, lo, hi int) {
			m, rows, v := ws.m, ws.rows, ws.v
			acc := ws.red.Accs()[shard]
			if shard > 0 {
				Zero(acc)
			}
			d := len(acc)
			i := lo
			for ; i+4 <= hi; i += 4 {
				c0, c1, c2, c3 := v[i], v[i+1], v[i+2], v[i+3]
				var r0, r1, r2, r3 []float64
				if rows != nil {
					r0, r1, r2, r3 = rows[i], rows[i+1], rows[i+2], rows[i+3]
				} else {
					r0, r1, r2, r3 = m.Row(i), m.Row(i+1), m.Row(i+2), m.Row(i+3)
				}
				r0, r1, r2, r3 = r0[:d], r1[:d], r2[:d], r3[:d]
				for j := range acc {
					a := acc[j]
					a += c0 * r0[j]
					a += c1 * r1[j]
					a += c2 * r2[j]
					a += c3 * r3[j]
					acc[j] = a
				}
			}
			for ; i < hi; i++ {
				if rows != nil {
					Axpy(v[i], rows[i], acc)
				} else {
					Axpy(v[i], m.Row(i), acc)
				}
			}
		}
	}
	parallel.For(workers, n, ws.mattvecBody)
	ws.red.Merge(dst)
	ws.m, ws.rows, ws.v = nil, nil, nil
}

// sizedDst returns dst, allocated with n entries when nil, after
// checking its length on the calling goroutine: a wrong length would
// otherwise index out of range inside a worker, where no recover can
// catch it.
func sizedDst(kernel string, dst []float64, n int, what string) []float64 {
	if dst == nil {
		return make([]float64, n)
	}
	if len(dst) != n {
		panic(fmt.Sprintf("vecmath: %s dst length %d != %s %d", kernel, len(dst), what, n))
	}
	return dst
}
