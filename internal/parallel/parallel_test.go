package parallel

import (
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"htdp/internal/randx"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	for p, want := range map[int]int{1: 1, 7: 7, -3: 1} {
		if got := Workers(p); got != want {
			t.Errorf("Workers(%d) = %d, want %d", p, got, want)
		}
	}
}

// Span is a contiguous index block [Lo, Hi).
type Span struct{ Lo, Hi int }

// Shards partitions [0, n) into NumShards(n) contiguous near-equal
// spans covering every index exactly once: the shard structure every
// kernel must observe, spelled out.
func Shards(n int) []Span {
	k := NumShards(n)
	spans := make([]Span, k)
	for s := 0; s < k; s++ {
		spans[s] = Span{Lo: s * n / k, Hi: (s + 1) * n / k}
	}
	return spans
}

func TestShardsCoverDisjointly(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 63, 64, 65, 1000, 1001, 5000} {
		spans := Shards(n)
		if len(spans) != NumShards(n) {
			t.Fatalf("n=%d: %d spans, want %d", n, len(spans), NumShards(n))
		}
		next := 0
		for s, sp := range spans {
			if sp.Lo != next || sp.Hi < sp.Lo {
				t.Fatalf("n=%d shard %d = %+v, want Lo=%d", n, s, sp, next)
			}
			next = sp.Hi
		}
		if n > 0 && next != n {
			t.Fatalf("n=%d spans end at %d", n, next)
		}
	}
}

func TestNumShardsGrainAndCap(t *testing.T) {
	for n, want := range map[int]int{
		-1: 0, 0: 0, 1: 1, 64: 1, 65: 2, 128: 2, 129: 3,
		64 * MaxShards: MaxShards, 1 << 20: MaxShards,
	} {
		if got := NumShards(n); got != want {
			t.Errorf("NumShards(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestShardStructureIgnoresWorkerCount(t *testing.T) {
	// The shard boundaries any worker count observes must be identical.
	const n = 777
	want := Shards(n)
	for _, w := range []int{1, 2, 3, 16, 100} {
		got := make([]Span, NumShards(n))
		For(w, n, func(shard, lo, hi int) { got[shard] = Span{lo, hi} })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d saw shards %v, want %v", w, got, want)
		}
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	const n = 10_000
	hits := make([]int32, n)
	For(8, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestReduceVecDeterministicAcrossWorkers(t *testing.T) {
	const n, d = 1237, 19
	rows := make([][]float64, n)
	r := randx.New(1)
	for i := range rows {
		rows[i] = r.NormalVec(make([]float64, d), 100)
	}
	sum := func(workers int) []float64 {
		return ReduceVec(workers, n, make([]float64, d), func(acc []float64, _, lo, hi int) {
			for i := lo; i < hi; i++ {
				for j, v := range rows[i] {
					acc[j] += v
				}
			}
		})
	}
	want := sum(1)
	for _, w := range []int{2, 3, runtime.GOMAXPROCS(0), 64} {
		got := sum(w)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("workers=%d: coord %d = %v, want bit-identical %v", w, j, got[j], want[j])
			}
		}
	}
}

func TestReduceMergesInShardOrder(t *testing.T) {
	// Concatenating per-shard slices in merge order must reproduce
	// [0, n) in order — the determinism contract, observable because
	// concatenation is non-commutative.
	const n = 500
	got := Reduce(16, n,
		func(int) []int { return nil },
		func(acc []int, _, lo, hi int) []int {
			for i := lo; i < hi; i++ {
				acc = append(acc, i)
			}
			return acc
		},
		func(into, from []int) []int { return append(into, from...) },
	)
	for i, v := range got {
		if v != i {
			t.Fatalf("merge order broken at %d: got %d", i, v)
		}
	}
}

func TestReduceFloat(t *testing.T) {
	const n = 999
	want := float64(n) * float64(n-1) / 2
	for _, w := range []int{1, 4} {
		got := ReduceFloat(w, n, func(_, lo, hi int) float64 {
			var s float64
			for i := lo; i < hi; i++ {
				s += float64(i)
			}
			return s
		})
		if got != want {
			t.Fatalf("workers=%d: sum = %v, want %v", w, got, want)
		}
	}
	if got := ReduceFloat(4, 0, func(_, _, _ int) float64 { return math.NaN() }); got != 0 {
		t.Fatalf("empty ReduceFloat = %v", got)
	}
}

func TestSplitRNGsDeterministic(t *testing.T) {
	draws := func() [][]float64 {
		rngs := SplitRNGsInto(nil, randx.New(42), 200)
		out := make([][]float64, len(rngs))
		for s, rng := range rngs {
			for k := 0; k < 5; k++ {
				out[s] = append(out[s], rng.Float64())
			}
		}
		return out
	}
	if !reflect.DeepEqual(draws(), draws()) {
		t.Fatal("SplitRNGsInto streams not reproducible")
	}
	rngs := SplitRNGsInto(nil, randx.New(42), 200)
	if len(rngs) != NumShards(200) {
		t.Fatalf("got %d streams, want %d", len(rngs), NumShards(200))
	}
	// Adjacent streams must differ.
	if rngs[0].Float64() == rngs[1].Float64() {
		t.Fatal("adjacent shard streams coincide")
	}
}

// TestStressSmallNManyWorkers shakes out shard-boundary and merge races:
// tiny ranges, worker counts far above the shard count, and accumulators
// that would corrupt under any double-visit or lost merge. Run with
// go test -race.
func TestStressSmallNManyWorkers(t *testing.T) {
	for rep := 0; rep < 50; rep++ {
		for _, n := range []int{1, 2, 3, 65, 100, 1000, 64*MaxShards + 1} {
			want := float64(n) * float64(n-1) / 2
			got := ReduceFloat(4*runtime.GOMAXPROCS(0)+7, n, func(_, lo, hi int) float64 {
				var s float64
				for i := lo; i < hi; i++ {
					s += float64(i)
				}
				return s
			})
			if got != want {
				t.Fatalf("n=%d rep=%d: %v, want %v", n, rep, got, want)
			}
			var count atomic.Int64
			For(64, n, func(_, lo, hi int) { count.Add(int64(hi - lo)) })
			if count.Load() != int64(n) {
				t.Fatalf("n=%d rep=%d: visited %d indices", n, rep, count.Load())
			}
		}
	}
}
