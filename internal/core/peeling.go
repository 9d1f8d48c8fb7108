package core

import (
	"fmt"
	"math"

	"htdp/internal/parallel"
	"htdp/internal/randx"
	"htdp/internal/vecmath"
)

// PeelingP is Algorithm 4 (from Cai–Wang–Zhang): the (ε, δ)-DP noisy
// top-s selection. It iteratively appends the index maximizing
// |v_j| + Lap-noise to the selected set, then returns v restricted to
// the set plus fresh Laplace noise on the selected entries.
//
// lambda must bound the ℓ∞-sensitivity of v as a function of the data;
// by Lemma 10, the output is then (ε, δ)-DP. Each of the s selection
// rounds and the final release use noise scale PeelingScale(s, ε, δ, λ)
// = 2λ√(3s·log(1/δ))/ε.
//
// The input v is not modified; the result is a fresh s-sparse vector.
// workers is the selection scan's worker count (0 → GOMAXPROCS,
// 1 → sequential). Each selection round shards the coordinate range
// across workers; every shard draws its Laplace noise from its own
// child stream split off r in shard order, computes a local noisy
// argmax, and the shard maxima merge in shard order with a strict
// comparison — reproducing the sequential first-argmax scan exactly.
// The shard structure and streams depend only on (r, len(v)), so the
// output is bit-identical for every worker count.
func PeelingP(r *randx.RNG, v []float64, s int, eps, delta, lambda float64, workers int) []float64 {
	return peeling(nil, nil, r, v, s, eps, delta, lambda, workers)
}

// peelArgmax is one shard's local noisy argmax.
type peelArgmax struct {
	score float64
	j     int
}

// peelScratch is the reusable selection scratch of the iterative
// algorithms: the selected mask, per-shard argmaxes, the split RNG
// children (re-seeded in place each round), the index list, and the
// cached scan closure. One scratch per run per goroutine.
type peelScratch struct {
	selected []bool
	idx      []int
	bests    []peelArgmax
	rngs     []*randx.RNG

	// Call state read by the cached body.
	v     []float64
	scale float64
	noisy bool
	body  func(shard, lo, hi int)
}

// peeling implements PeelingP. ps and dst, when non-nil, supply
// reusable scratch and the output buffer (dst must not alias v and is
// zeroed here), making steady-state calls allocation-free; nil ps/dst
// reproduce the one-shot PeelingP behavior. Output is bit-identical
// either way: the scratch only changes where buffers live, and the
// re-seeded RNG children replay the exact streams fresh splits produce.
func peeling(ps *peelScratch, dst []float64, r *randx.RNG, v []float64, s int, eps, delta, lambda float64, workers int) []float64 {
	if s < 1 || s > len(v) {
		panic(fmt.Sprintf("core: Peeling s=%d outside [1,%d]", s, len(v)))
	}
	if eps <= 0 || delta <= 0 || delta >= 1 {
		panic(fmt.Sprintf("core: Peeling needs 0<ε and 0<δ<1, got ε=%v δ=%v", eps, delta))
	}
	if lambda < 0 {
		panic("core: Peeling negative noise scale")
	}
	scale := PeelingScale(s, eps, delta, lambda)
	d := len(v)
	if ps == nil {
		ps = &peelScratch{}
	}
	if dst == nil {
		dst = make([]float64, d)
	} else {
		vecmath.Zero(dst)
	}
	if cap(ps.selected) < d {
		ps.selected = make([]bool, d)
	}
	selected := ps.selected[:d]
	for j := range selected {
		selected[j] = false
	}
	k := parallel.NumShards(d)
	if cap(ps.bests) < k {
		ps.bests = make([]peelArgmax, k)
	}
	bests := ps.bests[:k]
	if cap(ps.idx) < s {
		ps.idx = make([]int, 0, s)
	}
	idx := ps.idx[:0]
	ps.v, ps.scale = v, scale
	ps.noisy = scale > 0
	if ps.body == nil {
		ps.body = func(shard, lo, hi int) {
			v, scale, noisy := ps.v, ps.scale, ps.noisy
			selected := ps.selected
			b := peelArgmax{math.Inf(-1), -1}
			for j := lo; j < hi; j++ {
				if selected[j] {
					continue
				}
				score := math.Abs(v[j])
				if noisy {
					score += ps.rngs[shard].Laplace(scale)
				}
				if score > b.score {
					b = peelArgmax{score, j}
				}
			}
			ps.bests[shard] = b
		}
	}
	for i := 0; i < s; i++ {
		if ps.noisy {
			ps.rngs = parallel.SplitRNGsInto(ps.rngs, r, d)
		}
		parallel.For(workers, d, ps.body)
		win := peelArgmax{math.Inf(-1), -1}
		for _, b := range bests {
			if b.j >= 0 && b.score > win.score {
				win = b
			}
		}
		selected[win.j] = true
		idx = append(idx, win.j)
	}
	ps.idx = idx
	for _, j := range idx {
		dst[j] = v[j]
		if scale > 0 {
			dst[j] += r.Laplace(scale)
		}
	}
	ps.v = nil
	return dst
}

// PeelingScale returns the Laplace scale PeelingP draws its noise at;
// exposed so tests and utility analyses can reason about the added
// noise.
func PeelingScale(s int, eps, delta, lambda float64) float64 {
	return 2 * lambda * math.Sqrt(3*float64(s)*math.Log(1/delta)) / eps
}

// checkPeeling refuses a Peeling round that cannot release a finite
// vector: an iterate v that has left the float range, or a Laplace
// scale at which a draw may overflow (a draw is at most about 37 scales
// from 0). Both come from an ε, δ or sensitivity at the edge of the
// float range.
func checkPeeling(algo string, iter int, v []float64, s int, eps, delta, lambda float64) error {
	if !vecmath.IsFinite(v) {
		return fmt.Errorf("core: %s: ε=%g, δ=%g cannot be calibrated (the iterate is non-finite at iteration %d)", algo, eps, delta, iter)
	}
	if scale := PeelingScale(s, eps, delta, lambda); !(scale <= math.MaxFloat64/64) {
		return fmt.Errorf("core: %s: ε=%g, δ=%g cannot be calibrated (the Peeling noise scale is %v)", algo, eps, delta, scale)
	}
	return nil
}
