package data

import (
	"testing"

	"htdp/internal/randx"
)

// TestMemSourceChunkZeroAllocs: the in-memory backend's chunk views are
// served from a reusable header, so the algorithms' per-iteration chunk
// loads allocate nothing.
func TestMemSourceChunkZeroAllocs(t *testing.T) {
	src := NewMemSource(Linear(randx.New(1), testLinearOpt(120, 5)))
	if _, err := src.Chunk(0, 4); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := src.Chunk(1, 4); err != nil {
			t.Fatal(err)
		}
		if _, err := src.Chunk(2, 4); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("MemSource.Chunk allocates %v per pair of calls", allocs)
	}
}

// TestMemSourceFullChunkStable: Chunk(0, 1) — the Materialize path —
// returns the wrapped dataset itself, which later Chunk calls must not
// disturb.
func TestMemSourceFullChunkStable(t *testing.T) {
	ds := Linear(randx.New(2), testLinearOpt(50, 3))
	src := NewMemSource(ds)
	full, err := src.Chunk(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if full != ds {
		t.Fatal("Chunk(0,1) should return the wrapped dataset")
	}
	if _, err := src.Chunk(1, 5); err != nil {
		t.Fatal(err)
	}
	if full.N() != 50 || &full.X.Data[0] != &ds.X.Data[0] {
		t.Fatal("full-range chunk disturbed by a later view")
	}
}

// TestCSVSourceChunkBufferReuse: the CSV backend recycles its one-slot
// parse buffer — successive chunks of equal size share backing storage
// and still parse correctly.
func TestCSVSourceChunkBufferReuse(t *testing.T) {
	ds := Linear(randx.New(3), testLinearOpt(120, 4))
	src, err := OpenCSV(writeTempCSV(t, ds), "r", -1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	a, err := src.Chunk(0, 4) // rows [0, 30)
	if err != nil {
		t.Fatal(err)
	}
	backing := &a.X.Data[0]
	b, err := src.Chunk(1, 4) // rows [30, 60), same size
	if err != nil {
		t.Fatal(err)
	}
	if &b.X.Data[0] != backing {
		t.Fatal("CSV chunk buffer was reallocated instead of recycled")
	}
	if a == b {
		t.Fatal("distinct chunks must keep distinct headers")
	}
	lo, hi := ChunkBounds(1, 4, 120)
	sameDataset(t, b, ds.Subset(lo, hi), "recycled chunk")
}

// TestGenSourceChunkAllocsFlat: a generated chunk re-seeds one RNG per
// call instead of constructing one per row, so its allocation count —
// the chunk's storage plus that RNG — is the same at 8 rows as at 256.
func TestGenSourceChunkAllocsFlat(t *testing.T) {
	g := LinearSource(4, testLinearOpt(256, 6))
	allocs := func(T int) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := g.Chunk(0, T); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, full := allocs(32), allocs(1)
	if small != full {
		t.Fatalf("Chunk allocates %v at 8 rows but %v at 256 rows", small, full)
	}
}

// TestGenSourceRowAtZeroAllocs: after its first call a handle's RowAt
// re-seeds the handle's own RNG into the caller's buffer, so a
// generated row allocates nothing; a clone starts with an RNG of its
// own rather than sharing the original's.
func TestGenSourceRowAtZeroAllocs(t *testing.T) {
	g := LinearSource(5, testLinearOpt(300, 7))
	buf := make([]float64, 7)
	if _, _, err := g.RowAt(0, buf); err != nil {
		t.Fatal(err)
	}
	i := 0
	if allocs := testing.AllocsPerRun(100, func() {
		i = (i + 37) % 300
		if _, _, err := g.RowAt(i, buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("RowAt allocates %v per row after warm-up", allocs)
	}
	if c := g.Clone(); c.rng != nil {
		t.Fatal("Clone shares the original's RowAt RNG")
	}
}
