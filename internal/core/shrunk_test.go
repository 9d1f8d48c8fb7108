package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"htdp/internal/data"
	"htdp/internal/parallel"
	"htdp/internal/randx"
)

// The shrunken-row view's contract (shrunkRows): every row and label it
// hands out equals the row of Dataset.Shrink bit for bit, on every
// pass, resident or not, whichever rows are dirty; and it copies only
// dirty rows: at most one chunk of them over a streamed source, and
// never more than Dataset.Shrink's n×d clone.

// TestShrunkRowsMatchShrink drives views over the Mem, Gen and CSV
// backends in one and in three chunks, for three passes, at K below
// every entry (every row a copy), at a K some rows exceed, and above
// every entry (no copy): non-resident views over all three, and a
// resident view over the MemSource, whose chunks stay in memory.
func TestShrunkRowsMatchShrink(t *testing.T) {
	const n, d = 90, 4
	srcs := carrySources(t, n, d)
	full, err := data.Materialize(srcs["mem"])
	if err != nil {
		t.Fatal(err)
	}
	grid := shrinkGrid(full)
	grid[1] = 2 // LogNormal(0, 1) features: about a quarter of the entries exceed 2
	for _, k := range grid {
		for name, src := range srcs {
			for _, C := range []int{1, 3} {
				checkView(t, fmt.Sprintf("%s K=%g C=%d", name, k, C), src, full, k, C, false)
				if name == "mem" {
					checkView(t, fmt.Sprintf("resident K=%g C=%d", k, C), src, full, k, C, true)
				}
			}
		}
	}
}

// checkView loads every chunk of src through one view for three passes
// and compares each row and label with ref.Shrink(k). A non-resident
// view's copies must fit in its one chunk of rows, and after done it
// must hold no row of the chunk.
func checkView(t *testing.T, ctx string, src data.Source, ref *data.Dataset, k float64, C int, resident bool) {
	t.Helper()
	want := ref.Shrink(k)
	n, d := src.N(), src.D()
	v := newShrunkRows(k, d, n, C, resident)
	for pass := 0; pass < 3; pass++ {
		if err := data.EachChunk(src, C, func(c int, ck *data.Dataset) error {
			rows, y := v.load(c, ck)
			lo, hi := data.ChunkBounds(c, C, n)
			if len(rows) != hi-lo || len(y) != hi-lo {
				t.Fatalf("%s pass %d chunk %d: %d rows and %d labels, want %d", ctx, pass, c, len(rows), len(y), hi-lo)
			}
			for i := range rows {
				mustEqualBits(t, rows[i], want.X.Row(lo+i), fmt.Sprintf("%s pass %d row %d", ctx, pass, lo+i))
			}
			mustEqualBits(t, y, want.Y[lo:hi], fmt.Sprintf("%s pass %d chunk %d labels", ctx, pass, c))
			v.done()
			if !resident {
				for i, r := range v.rows {
					if r != nil {
						t.Fatalf("%s pass %d chunk %d: row %d still held after done", ctx, pass, c, i)
					}
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if maxRows := data.MaxChunkRows(n, C); !resident && cap(v.slab) > maxRows*d {
		t.Fatalf("%s: the view holds %d copied floats, past one chunk of %d rows", ctx, cap(v.slab), maxRows)
	}
}

// fig6Trial is fig6's largest trial at -scale 0.015: 13 500 rows of 400
// Student-t(10) features and the figure's Gaussian label noise.
func fig6Trial() *data.Dataset {
	return data.Linear(randx.New(6), data.LinearOpt{
		N: 13500, D: 400,
		Feature: randx.StudentT{Nu: 10},
		Noise:   randx.Normal{Mu: 0, Sigma: math.Sqrt(0.1)},
	})
}

// allocatedBytes returns the bytes run allocates.
func allocatedBytes(run func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestShrunkRowsTrialAllocs: over a sweep trial's bare MemSource, a
// Lasso run at fig6's default options allocates under 5% of the set's
// n·d·8 bytes, which Dataset.Shrink would clone whole, and an IHT run
// (sequential engine, T = ⌊ln n⌋) allocates one chunk of shrunken rows
// plus its per-row bookkeeping (row header, ỹ and residual), MatTVec's
// per-shard sums and 256 KiB for its O(d) vectors.
func TestShrunkRowsTrialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("a fig6-sized trial; CI runs it without the race detector")
	}
	ds := fig6Trial()
	n, d := ds.N(), ds.D()
	setBytes := uint64(n * d * 8)
	var err error
	lasso := allocatedBytes(func() {
		_, err = LassoSource(data.NewMemSource(ds), LassoOptions{Eps: 1, Delta: math.Pow(float64(n), -1.1), Rng: randx.New(1)})
	})
	if err != nil {
		t.Fatal(err)
	}
	if lasso >= setBytes/20 {
		t.Errorf("Lasso allocated %d bytes, %.1f%% of the set's %d; want under 5%%", lasso, 100*float64(lasso)/float64(setBytes), setBytes)
	}
	opt := SparseLinRegOptions{Eps: 1, Delta: math.Pow(float64(n), -1.1), SStar: 10, Parallelism: 1, Rng: randx.New(2)}
	iht := allocatedBytes(func() { _, err = SparseLinRegSource(data.NewMemSource(ds), opt) })
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.fill(n, d); err != nil {
		t.Fatal(err)
	}
	maxRows := uint64(data.MaxChunkRows(n, opt.T))
	partials := uint64(parallel.NumShards(int(maxRows)) * 8 * d) // MatTVec's per-shard sums
	if bound := maxRows*uint64(8*d+40) + partials + 256<<10; iht > bound {
		t.Errorf("IHT allocated %d bytes, past one chunk of %d rows and its bookkeeping (%d)", iht, maxRows, bound)
	}
	t.Logf("n·d·8 = %d bytes; Lasso allocated %d (%.2f%%), IHT %d (%.2f%%, T = %d)",
		setBytes, lasso, 100*float64(lasso)/float64(setBytes), iht, 100*float64(iht)/float64(setBytes), opt.T)
}

// TestShrunkRowsHoldOneChunk: over a three-chunk GenSource, Lasso
// (three stream chunks a pass) and IHT (T = 3) hold no more than one
// chunk of shrunken rows, and no generated chunk past its visit: the
// live heap after each iteration exceeds the one before the run by at
// most one chunk of rows, the per-row bookkeeping, Lasso's carried
// residual and O(d). K = 1e-300 is below every entry, so every row is
// dirty; at K = 4 about 3 rows in 4 are.
func TestShrunkRowsHoldOneChunk(t *testing.T) {
	if raceEnabled {
		t.Skip("three stream chunks; CI runs it without the race detector")
	}
	const n, d = 2*data.StreamRows + 3, 16
	src := data.LinearSource(8, data.LinearOpt{N: n, D: d, Feature: randx.LogNormal{Mu: 0, Sigma: 1}, Noise: randx.Normal{Mu: 0, Sigma: 1}})
	maxRows := uint64(data.MaxChunkRows(n, 3))
	bound := maxRows*uint64(8*d+40) + uint64(8*n) + 64<<10
	live := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	check := func(name string) Trace {
		base := live()
		return func(it int, _ []float64) {
			if held := live() - base; held > int64(bound) {
				t.Errorf("%s iteration %d holds %d bytes, past one chunk of %d rows and its bookkeeping (%d)", name, it, held, maxRows, bound)
			}
		}
	}
	for _, k := range []float64{1e-300, 4} {
		if _, err := LassoSource(src, LassoOptions{Eps: 1, Delta: 1e-5, T: 3, K: k, Parallelism: 1, Rng: randx.New(3), Trace: check(fmt.Sprintf("Lasso K=%g", k))}); err != nil {
			t.Fatal(err)
		}
		if _, err := SparseLinRegSource(src, SparseLinRegOptions{Eps: 1, Delta: 1e-5, SStar: 2, T: 3, K: k, Parallelism: 1, Rng: randx.New(4), Trace: check(fmt.Sprintf("IHT K=%g", k))}); err != nil {
			t.Fatal(err)
		}
	}
}
