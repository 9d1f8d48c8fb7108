// Package parallel is the chunked worker-pool engine behind every
// coordinate- and sample-sharded hot path in the library: the
// Catoni-style robust gradient estimator, the squared-loss gradient
// loops, the Peeling selection scan, and the dense vecmath kernels.
//
// The engine's contract is determinism: results are bit-identical for
// every worker count, including 1. Two rules make that hold.
//
//  1. The shard structure of an index range [0, n) depends only on n —
//     never on the number of workers — so the floating-point merge tree
//     is fixed before any goroutine is scheduled.
//  2. Per-shard results are combined strictly in shard order. Workers
//     race only over which shard they pick up next, never over where a
//     shard's result lands.
//
// Randomized shards derive their stream by splitting a parent RNG in
// shard order (SplitRNGsInto), so noise draws are also
// worker-independent.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"htdp/internal/randx"
)

// MaxShards is the shard-count ceiling. It is a constant (not a
// function of GOMAXPROCS) so that the shard structure — and therefore
// every merge order — is identical on every machine and worker count.
const MaxShards = 32

// shardGrain is the minimum items per shard: ranges smaller than one
// grain run as a single shard (no goroutines, no partial accumulators),
// and the shard count grows one per grain until MaxShards. Like
// MaxShards it is a constant, so NumShards stays a function of n alone.
const shardGrain = 64

// Workers resolves a Parallelism knob to a concrete worker count:
// 0 → GOMAXPROCS, anything below 1 → 1.
func Workers(p int) int {
	if p == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if p < 1 {
		return 1
	}
	return p
}

// Span is a contiguous index block [Lo, Hi).
type Span struct{ Lo, Hi int }

// NumShards returns the number of shards [0, n) is cut into:
// ⌈n/shardGrain⌉ capped at MaxShards, and 0 for n ≤ 0. A function of
// n alone — never of the worker count — which is what fixes the merge
// tree before any scheduling happens.
func NumShards(n int) int {
	if n <= 0 {
		return 0
	}
	k := (n + shardGrain - 1) / shardGrain
	if k > MaxShards {
		return MaxShards
	}
	return k
}

// Shards partitions [0, n) into NumShards(n) contiguous near-equal
// spans covering every index exactly once.
func Shards(n int) []Span {
	k := NumShards(n)
	spans := make([]Span, k)
	for s := 0; s < k; s++ {
		spans[s] = Span{Lo: s * n / k, Hi: (s + 1) * n / k}
	}
	return spans
}

// run executes body(shard, lo, hi) for every shard of [0, n) on up to
// workers goroutines. Shard pickup order is racy; everything else is
// the caller's responsibility (bodies must write disjoint state).
func run(workers, n int, body func(shard, lo, hi int)) {
	k := NumShards(n)
	if k == 0 {
		return
	}
	w := Workers(workers)
	if w > k {
		w = k
	}
	if w == 1 {
		for s := 0; s < k; s++ {
			body(s, s*n/k, (s+1)*n/k)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				s := int(next.Add(1)) - 1
				if s >= k {
					return
				}
				body(s, s*n/k, (s+1)*n/k)
			}
		}()
	}
	wg.Wait()
}

// For runs body over every shard of [0, n) on up to workers goroutines
// (workers as in Workers). Bodies run concurrently and must write
// disjoint state — e.g. dst[lo:hi] — in which case the result is
// bit-identical to the sequential loop for any worker count.
func For(workers, n int, body func(shard, lo, hi int)) {
	run(workers, n, body)
}

// Reduce fans body out over the shards of [0, n), giving each shard a
// fresh accumulator from newAcc, then folds the per-shard accumulators
// into the shard-0 accumulator in shard order with merge and returns
// it. Because the shard structure and merge order are fixed by n, the
// result is bit-identical for any worker count. n must be ≥ 1.
func Reduce[T any](workers, n int, newAcc func(shard int) T, body func(acc T, shard, lo, hi int) T, merge func(into, from T) T) T {
	k := NumShards(n)
	accs := make([]T, k)
	run(workers, n, func(shard, lo, hi int) {
		accs[shard] = body(newAcc(shard), shard, lo, hi)
	})
	out := accs[0]
	for s := 1; s < k; s++ {
		out = merge(out, accs[s])
	}
	return out
}

// ReduceVec is the d-vector specialization of Reduce used by the
// gradient loops: each shard accumulates into its own zeroed length-d
// vector (shard 0 borrows dst), and the partials are summed into dst in
// shard order. dst is zeroed first and returned.
func ReduceVec(workers, n int, dst []float64, body func(acc []float64, shard, lo, hi int)) []float64 {
	for j := range dst {
		dst[j] = 0
	}
	if n <= 0 {
		return dst
	}
	k := NumShards(n)
	accs := make([][]float64, k)
	accs[0] = dst
	run(workers, n, func(shard, lo, hi int) {
		acc := dst
		if shard > 0 {
			acc = make([]float64, len(dst))
			accs[shard] = acc
		}
		body(acc, shard, lo, hi)
	})
	for s := 1; s < k; s++ {
		from := accs[s]
		for j := range dst {
			dst[j] += from[j]
		}
	}
	return dst
}

// ReduceFloat is the scalar specialization of Reduce: per-shard partial
// sums combined in shard order. Returns 0 for n ≤ 0.
func ReduceFloat(workers, n int, body func(shard, lo, hi int) float64) float64 {
	if n <= 0 {
		return 0
	}
	k := NumShards(n)
	partial := make([]float64, k)
	run(workers, n, func(shard, lo, hi int) {
		partial[shard] = body(shard, lo, hi)
	})
	var sum float64
	for _, p := range partial {
		sum += p
	}
	return sum
}

// ShardBufs is a grow-only pool of per-shard float slices — the
// backing store of every reusable reduction workspace (vecmath, robust,
// core). Get sizes the pool once and then recycles it, so steady-state
// reductions allocate nothing. Contents are stale across calls; callers
// zero what they need, mirroring ReduceVec's fresh allocations.
type ShardBufs struct {
	bufs [][]float64
}

// Get returns k slices of length d. Slices keep their identity across
// calls (only growing reallocates), so cached closures may index the
// returned pool through their workspace.
func (p *ShardBufs) Get(k, d int) [][]float64 {
	for len(p.bufs) < k {
		p.bufs = append(p.bufs, nil)
	}
	for s := 0; s < k; s++ {
		if cap(p.bufs[s]) < d {
			p.bufs[s] = make([]float64, d)
		}
		p.bufs[s] = p.bufs[s][:d]
	}
	return p.bufs[:k]
}

// VecReducer owns the accumulator layout of a workspace vector
// reduction — the reusable counterpart of ReduceVec's allocation
// pattern, shared by every workspace (vecmath, robust, loss, core) so
// the determinism-critical conventions live in exactly one place:
//
//   - Setup zeroes dst and returns k accumulators with accs[0] = dst
//     and accs[1:] pooled (stale contents — the caller's shard body
//     must zero its accumulator when shard > 0, matching ReduceVec's
//     fresh allocations);
//   - Merge folds accs[1:] into dst strictly in shard order.
//
// The caller supplies its own cached body closure (bodies differ per
// kernel) and reads the accumulators through Accs, so the closure can
// be built once and reused.
type VecReducer struct {
	accs [][]float64
	pool ShardBufs
}

// Setup prepares k accumulators of length len(dst) for one reduction,
// zeroing dst (the shard-0 accumulator) first.
func (r *VecReducer) Setup(k int, dst []float64) [][]float64 {
	for j := range dst {
		dst[j] = 0
	}
	if cap(r.accs) < k {
		r.accs = make([][]float64, k)
	}
	r.accs = r.accs[:k]
	r.accs[0] = dst
	if k > 1 {
		pooled := r.pool.Get(k-1, len(dst))
		for s := 1; s < k; s++ {
			r.accs[s] = pooled[s-1]
		}
	}
	return r.accs
}

// Accs returns the accumulators of the reduction in flight (indexed by
// shard); cached body closures read them through this method.
func (r *VecReducer) Accs() [][]float64 { return r.accs }

// Merge folds the per-shard partials into dst in shard order — the
// ReduceVec merge, verbatim.
func (r *VecReducer) Merge(dst []float64) {
	for s := 1; s < len(r.accs); s++ {
		from := r.accs[s]
		for j := range dst {
			dst[j] += from[j]
		}
	}
}

// SplitRNGsInto derives one independent child stream per shard of
// [0, n) by splitting r sequentially in shard order. The draw sequence
// each shard sees is therefore a function of (parent state, n) only —
// never of the worker count or scheduling — which is what keeps
// randomized sharded scans (Peeling's noisy argmax) deterministic under
// parallelism.
//
// The children in dst are re-seeded in place (allocating only when dst
// is too short or holds nils; nil dst allocates them all), so a
// workspace that keeps the returned slice pays no allocations after
// warm-up. Recycled children replay exactly the streams fresh ones
// would.
func SplitRNGsInto(dst []*randx.RNG, r *randx.RNG, n int) []*randx.RNG {
	k := NumShards(n)
	if cap(dst) < k {
		grown := make([]*randx.RNG, k)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:k]
	for s := range dst {
		dst[s] = r.SplitInto(dst[s])
	}
	return dst
}
