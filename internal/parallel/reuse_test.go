package parallel

import (
	"testing"

	"htdp/internal/randx"
)

// TestSplitRNGsIntoMatchesSplitRNGs: recycled children must replay the
// exact streams fresh splits (a nil destination) produce, round after
// round.
func TestSplitRNGsIntoMatchesSplitRNGs(t *testing.T) {
	pa, pb := randx.New(3), randx.New(3)
	var pool []*randx.RNG
	for round := 0; round < 5; round++ {
		n := 100 + 300*round // shard count changes between rounds
		want := SplitRNGsInto(nil, pa, n)
		pool = SplitRNGsInto(pool, pb, n)
		if len(pool) != len(want) {
			t.Fatalf("round %d: %d children, want %d", round, len(pool), len(want))
		}
		for s := range want {
			for i := 0; i < 20; i++ {
				if a, b := want[s].Float64(), pool[s].Float64(); a != b {
					t.Fatalf("round %d shard %d draw %d: %v != %v", round, s, i, a, b)
				}
			}
		}
	}
}

// TestSplitRNGsIntoZeroAllocs: once the pool is sized, recycling
// allocates nothing.
func TestSplitRNGsIntoZeroAllocs(t *testing.T) {
	r := randx.New(4)
	pool := SplitRNGsInto(nil, r, 2000)
	if allocs := testing.AllocsPerRun(10, func() {
		pool = SplitRNGsInto(pool, r, 2000)
	}); allocs != 0 {
		t.Fatalf("SplitRNGsInto allocates %v per call with a warm pool", allocs)
	}
}

// TestShardBufsIdentity: pooled slices keep their identity across Get
// calls so cached closures can index them safely.
func TestShardBufsIdentity(t *testing.T) {
	var p ShardBufs
	a := p.Get(4, 100)
	b := p.Get(4, 100)
	for s := range a {
		if &a[s][0] != &b[s][0] {
			t.Fatalf("shard %d: backing array changed across Get calls", s)
		}
	}
	c := p.Get(2, 50) // shrinking reslices, never reallocates
	if &c[0][0] != &a[0][0] {
		t.Fatal("shrinking Get reallocated")
	}
	d := p.Get(6, 300) // growing may reallocate, and must size every slice
	if len(d) != 6 {
		t.Fatalf("got %d shards, want 6", len(d))
	}
	for s := range d {
		if len(d[s]) != 300 {
			t.Fatalf("shard %d has length %d, want 300", s, len(d[s]))
		}
	}
}
