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
type MatWorkspace struct {
	m      *Mat
	v, dst []float64
	red    parallel.VecReducer

	matvecBody  func(shard, lo, hi int)
	mattvecBody func(shard, lo, hi int)
	gramBody    func(shard, lo, hi int)
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
	if dst == nil {
		dst = make([]float64, m.Rows)
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("vecmath: MatVec dst length %d != rows %d", len(dst), m.Rows))
	}
	ws.m, ws.v, ws.dst = m, v, dst
	if ws.matvecBody == nil {
		ws.matvecBody = func(_, lo, hi int) {
			m, v, dst := ws.m, ws.v, ws.dst
			d := len(v)
			i := lo
			for ; i+4 <= hi; i += 4 {
				r0 := m.Row(i)[:d]
				r1 := m.Row(i + 1)[:d]
				r2 := m.Row(i + 2)[:d]
				r3 := m.Row(i + 3)[:d]
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
				dst[i] = Dot(m.Row(i), v)
			}
		}
	}
	parallel.For(workers, m.Rows, ws.matvecBody)
	ws.m, ws.v, ws.dst = nil, nil, nil
	return dst
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
	if dst == nil {
		dst = make([]float64, m.Cols)
	}
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("vecmath: MatTVec dst length %d != cols %d", len(dst), m.Cols))
	}
	if m.Rows == 0 {
		Zero(dst)
		return dst
	}
	ws.red.Setup(parallel.NumShards(m.Rows), dst)
	ws.m, ws.v = m, v
	if ws.mattvecBody == nil {
		ws.mattvecBody = func(shard, lo, hi int) {
			m, v := ws.m, ws.v
			acc := ws.red.Accs()[shard]
			if shard > 0 {
				Zero(acc)
			}
			d := len(acc)
			i := lo
			for ; i+4 <= hi; i += 4 {
				c0, c1, c2, c3 := v[i], v[i+1], v[i+2], v[i+3]
				r0 := m.Row(i)[:d]
				r1 := m.Row(i + 1)[:d]
				r2 := m.Row(i + 2)[:d]
				r3 := m.Row(i + 3)[:d]
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
				Axpy(v[i], m.Row(i), acc)
			}
		}
	}
	parallel.For(workers, m.Rows, ws.mattvecBody)
	ws.red.Merge(dst)
	ws.m, ws.v = nil, nil
	return dst
}

// Gram computes the d×d second-moment matrix (1/n)·XᵀX of m into g
// like (*Mat).GramP, bit-identically. g is allocated when nil; its
// shape must be d×d otherwise.
func (ws *MatWorkspace) Gram(g *Mat, m *Mat, workers int) *Mat {
	d := m.Cols
	if g == nil {
		g = NewMat(d, d)
	}
	if g.Rows != d || g.Cols != d {
		panic("vecmath: Gram destination shape mismatch")
	}
	if m.Rows == 0 {
		Zero(g.Data)
		return g
	}
	ws.red.Setup(parallel.NumShards(m.Rows), g.Data)
	ws.m = m
	if ws.gramBody == nil {
		ws.gramBody = func(shard, lo, hi int) {
			m := ws.m
			d := m.Cols
			acc := ws.red.Accs()[shard]
			if shard > 0 {
				Zero(acc)
			}
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
		}
	}
	parallel.For(workers, m.Rows, ws.gramBody)
	ws.red.Merge(g.Data)
	Scale(g.Data, 1/float64(m.Rows))
	ws.m = nil
	return g
}
