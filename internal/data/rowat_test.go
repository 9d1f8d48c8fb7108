package data

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"htdp/internal/randx"
)

// The RowAt equivalence suite: random row access is the same data as
// chunked access, bit for bit, on every backend, in every access order,
// across Reopen/Clone, and under concurrent pool handles. DPSGD's
// determinism across backends reduces to exactly this property.

// chunkRows materializes every row of src through its Chunk path (T
// chunks), copying out of the recycled chunk buffers.
func chunkRows(t *testing.T, src Source, T int) (x [][]float64, y []float64) {
	t.Helper()
	n := src.N()
	x = make([][]float64, n)
	y = make([]float64, n)
	for c := 0; c < T; c++ {
		ck, err := src.Chunk(c, T)
		if err != nil {
			t.Fatal(err)
		}
		lo, _ := ChunkBounds(c, T, n)
		for i := 0; i < ck.N(); i++ {
			x[lo+i] = append([]float64(nil), ck.X.Row(i)...)
			y[lo+i] = ck.Y[i]
		}
	}
	return x, y
}

// rowAtBackends builds every Source implementation over the same rows:
// the three backends, a live context wrapper, and
// the decoded CSV and generator handles of a SourcePool.
func rowAtBackends(t *testing.T, n, d int) map[string]Source {
	t.Helper()
	gen := LinearSource(31, testLinearOpt(n, d))
	ds := gen.Materialize()
	path := writeTempCSV(t, ds)
	csv, err := OpenCSV(path, "rowat", -1, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { csv.Close() })
	pool := NewSourcePool()
	t.Cleanup(func() { pool.Close() })
	if _, err := pool.RegisterCSV("csv", path, -1, false); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.RegisterGen("gen", gen.Clone()); err != nil {
		t.Fatal(err)
	}
	backends := map[string]Source{
		"mem": NewMemSource(ds),
		"gen": gen,
		"csv": csv,
		"ctx": WithContext(context.Background(), NewMemSource(ds)),
	}
	for _, name := range []string{"csv", "gen"} {
		h, err := pool.Acquire(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := h.(*MemSource); !ok {
			t.Fatalf("pooled %s handle is %T, want a decoded *MemSource", name, h)
		}
		t.Cleanup(func() { h.Close() })
		backends["pool-"+name] = h
	}
	return backends
}

func checkRowsEqual(t *testing.T, ctx string, gotX []float64, gotY float64, wantX []float64, wantY float64) {
	t.Helper()
	if len(gotX) != len(wantX) {
		t.Fatalf("%s: row width %d, want %d", ctx, len(gotX), len(wantX))
	}
	for j := range wantX {
		if gotX[j] != wantX[j] {
			t.Fatalf("%s: x[%d] = %v, want bit-identical %v", ctx, j, gotX[j], wantX[j])
		}
	}
	if gotY != wantY {
		t.Fatalf("%s: y = %v, want bit-identical %v", ctx, gotY, wantY)
	}
}

func TestRowAtMatchesChunks(t *testing.T) {
	const n, d = 700, 6
	for name, src := range rowAtBackends(t, n, d) {
		t.Run(name, func(t *testing.T) {
			wantX, wantY := chunkRows(t, src, 7)
			buf := make([]float64, d)
			// Sequential, shuffled, then repeated (every index twice in a
			// second shuffled order) — covers cold, seeking, and cached
			// access on every backend.
			shuffled := randx.New(5).Perm(n)
			repeated := randx.New(6).Perm(n)
			for _, pattern := range [][]int{seqIndices(n), shuffled, repeated, repeated} {
				for _, i := range pattern {
					x, y, err := src.RowAt(i, buf)
					if err != nil {
						t.Fatalf("RowAt(%d): %v", i, err)
					}
					checkRowsEqual(t, name, x, y, wantX[i], wantY[i])
				}
			}
			// Interleaving Chunk and RowAt must not corrupt either view.
			if _, err := src.Chunk(2, 7); err != nil {
				t.Fatal(err)
			}
			for _, i := range []int{0, n / 2, n - 1} {
				x, y, err := src.RowAt(i, buf)
				if err != nil {
					t.Fatal(err)
				}
				checkRowsEqual(t, name+" after chunk", x, y, wantX[i], wantY[i])
			}
		})
	}
}

func seqIndices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func TestRowAtBounds(t *testing.T) {
	for name, src := range rowAtBackends(t, 40, 3) {
		for _, i := range []int{-1, 40, 1 << 30} {
			if _, _, err := src.RowAt(i, nil); err == nil {
				t.Errorf("%s: RowAt(%d) accepted", name, i)
			}
		}
		// A bounds error must not poison subsequent valid reads.
		if _, _, err := src.RowAt(7, nil); err != nil {
			t.Errorf("%s: RowAt(7) after bounds error: %v", name, err)
		}
	}
}

// TestRowAtAfterReopenClone pins that derived handles serve the same
// bytes: a CSV Reopen (shared offset index, fresh fd and caches) and a
// gen Clone (same seed) agree with the original row for row.
func TestRowAtAfterReopenClone(t *testing.T) {
	const n, d = 300, 4
	gen := LinearSource(33, testLinearOpt(n, d))
	ds := gen.Materialize()
	csv, err := OpenCSV(writeTempCSV(t, ds), "ro", -1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer csv.Close()
	re, err := csv.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	clone := gen.Clone()
	buf1 := make([]float64, d)
	buf2 := make([]float64, d)
	for _, i := range randx.New(7).Perm(n) {
		for name, pair := range map[string][2]Source{
			"csv-reopen": {csv, re},
			"gen-clone":  {gen, clone},
		} {
			x1, y1, err := pair[0].RowAt(i, buf1)
			if err != nil {
				t.Fatal(err)
			}
			x2, y2, err := pair[1].RowAt(i, buf2)
			if err != nil {
				t.Fatal(err)
			}
			checkRowsEqual(t, name, x2, y2, append([]float64(nil), x1...), y1)
		}
	}
}

// TestRowAtPoolConcurrent races shuffled RowAt passes over concurrently
// acquired pool handles of every kind — decoded and streaming — against
// the chunk-materialized reference. Handles share immutable state only
// (the decoded rows, the CSV offset index, the gen seed), so -race
// failures here mean the sharing leaked.
func TestRowAtPoolConcurrent(t *testing.T) {
	const n, d = 600, 5
	gen := LinearSource(35, testLinearOpt(n, d))
	ds := gen.Materialize()
	path := writeTempCSV(t, ds)
	resident, streaming := NewSourcePool(), streamingPool()
	for _, pool := range []*SourcePool{resident, streaming} {
		if _, err := pool.RegisterCSV("csv", path, -1, false); err != nil {
			t.Fatal(err)
		}
		if _, err := pool.RegisterGen("gen", gen); err != nil {
			t.Fatal(err)
		}
		if _, err := pool.RegisterMem("mem", ds); err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
	}
	wantX, wantY := chunkRows(t, NewMemSource(ds), 6)
	handles := []struct {
		pool *SourcePool
		name string
	}{
		{resident, "mem"}, {resident, "gen"}, {resident, "csv"},
		{streaming, "gen"}, {streaming, "csv"},
	}

	var wg sync.WaitGroup
	for w := 0; w < 2*len(handles); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hc := handles[w%len(handles)]
			name := hc.name
			h, err := hc.pool.Acquire(name)
			if err != nil {
				t.Error(err)
				return
			}
			defer h.Close()
			buf := make([]float64, d)
			for _, i := range randx.New(int64(100 + w)).Perm(n) {
				x, y, err := h.RowAt(i, buf)
				if err != nil {
					t.Errorf("%s: RowAt(%d): %v", name, i, err)
					return
				}
				for j := range x {
					if x[j] != wantX[i][j] {
						t.Errorf("%s: row %d col %d = %v, want %v", name, i, j, x[j], wantX[i][j])
						return
					}
				}
				if y != wantY[i] {
					t.Errorf("%s: row %d label %v, want %v", name, i, y, wantY[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCSVRowAtEviction drives the CSV block cache past capacity — a
// shuffled pass over more blocks than rowCacheBlocks — and verifies
// every row, including re-reads of evicted blocks.
func TestCSVRowAtEviction(t *testing.T) {
	n := rowBlockRows*(rowCacheBlocks+3) + 17 // 11+ blocks over an 8-slot cache
	ds := Linear(randx.New(37), testLinearOpt(n, 3))
	src, err := OpenCSV(writeTempCSV(t, ds), "evict", -1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	perm := randx.New(8).Perm(n)
	for _, i := range perm {
		x, y, err := src.RowAt(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkRowsEqual(t, "evict", x, y, ds.X.Row(i), ds.Y[i])
	}
	if len(src.rowBlocks) > rowCacheBlocks {
		t.Fatalf("cache holds %d blocks, cap %d", len(src.rowBlocks), rowCacheBlocks)
	}
	// Second pass in a different order: every evicted block reloads.
	for _, i := range randx.New(9).Perm(n) {
		x, y, err := src.RowAt(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkRowsEqual(t, "evict-reload", x, y, ds.X.Row(i), ds.Y[i])
	}
}

// TestCSVRowAtParseError pins the failure mode: a non-numeric field is
// a row-numbered error (never a panic), the bad block is not cached,
// and healthy blocks stay readable afterwards.
func TestCSVRowAtParseError(t *testing.T) {
	ds := Linear(randx.New(39), testLinearOpt(2*rowBlockRows, 3))
	path := writeTempCSV(t, ds)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	badRow := rowBlockRows + 5 // second block
	fields := strings.Split(lines[badRow], ",")
	fields[1] = "not-a-number"
	lines[badRow] = strings.Join(fields, ",")
	bad := filepath.Join(t.TempDir(), "bad.csv")
	if err := os.WriteFile(bad, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := OpenCSV(bad, "bad", -1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if _, _, err := src.RowAt(badRow, nil); err == nil {
		t.Fatal("corrupt row parsed")
	} else if !strings.Contains(err.Error(), "row "+strconv.Itoa(badRow)) {
		t.Fatalf("error %q does not name row %d", err, badRow)
	}
	if src.rowBlocks[badRow/rowBlockRows] != nil {
		t.Fatal("partially parsed block was cached")
	}
	// Block 0 is untouched by the corruption.
	x, y, err := src.RowAt(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkRowsEqual(t, "good block", x, y, ds.X.Row(3), ds.Y[3])
}

// TestCtxSourceRowAtCancel pins the context wrapper's row-granularity
// cancellation seam.
func TestCtxSourceRowAtCancel(t *testing.T) {
	ds := Linear(randx.New(41), testLinearOpt(20, 3))
	ctx, cancel := context.WithCancelCause(context.Background())
	src := WithContext(ctx, NewMemSource(ds))
	if _, _, err := src.RowAt(5, nil); err != nil {
		t.Fatalf("live context: %v", err)
	}
	cause := errors.New("job deleted")
	cancel(cause)
	_, _, err := src.RowAt(5, nil)
	if !errors.Is(err, cause) {
		t.Fatalf("cancelled RowAt error %v, want cause %v", err, cause)
	}
}

// TestGenSourceRowAtBuf pins the buffer contract: a large-enough buf
// backs the returned row (no allocation); a short one is replaced.
func TestGenSourceRowAtBuf(t *testing.T) {
	gen := LinearSource(43, testLinearOpt(50, 4))
	buf := make([]float64, 8)
	x, _, err := gen.RowAt(11, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &x[0] != &buf[0] {
		t.Error("RowAt ignored a sufficient buf")
	}
	x2, _, err := gen.RowAt(11, make([]float64, 1))
	if err != nil {
		t.Fatal(err)
	}
	checkRowsEqual(t, "short buf", x2, 0, x, 0)
}
