package data

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"htdp/internal/randx"
)

func testLinearOpt(n, d int) LinearOpt {
	return LinearOpt{
		N: n, D: d,
		Feature: randx.LogNormal{Mu: 0, Sigma: 1},
		Noise:   randx.StudentT{Nu: 3},
	}
}

// writeTempCSV round-trips ds through WriteCSV into a temp file and
// returns its path.
func writeTempCSV(t *testing.T, ds *Dataset) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ds.csv")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func sameDataset(t *testing.T, got, want *Dataset, ctx string) {
	t.Helper()
	if got.N() != want.N() || got.D() != want.D() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", ctx, got.N(), got.D(), want.N(), want.D())
	}
	for i := range want.X.Data {
		if got.X.Data[i] != want.X.Data[i] {
			t.Fatalf("%s: X[%d] = %v, want bit-identical %v", ctx, i, got.X.Data[i], want.X.Data[i])
		}
	}
	for i := range want.Y {
		if got.Y[i] != want.Y[i] {
			t.Fatalf("%s: Y[%d] = %v, want bit-identical %v", ctx, i, got.Y[i], want.Y[i])
		}
	}
}

// TestMemSourceMatchesSplit pins the chunk protocol to Dataset.Split:
// Chunk(t, T) must be the same rows, zero-copy.
func TestMemSourceMatchesSplit(t *testing.T) {
	ds := Linear(randx.New(1), testLinearOpt(503, 7))
	src := NewMemSource(ds)
	defer src.Close()
	if src.N() != 503 || src.D() != 7 {
		t.Fatalf("shape %dx%d", src.N(), src.D())
	}
	for _, T := range []int{1, 2, 5, 13, 503} {
		parts := ds.Split(T)
		for i, part := range parts {
			ck, err := src.Chunk(i, T)
			if err != nil {
				t.Fatal(err)
			}
			sameDataset(t, ck, part, "chunk")
			if &ck.X.Data[0] != &part.X.Data[0] {
				t.Fatal("MemSource chunk is not a zero-copy view")
			}
		}
	}
}

func TestSourceChunkValidation(t *testing.T) {
	src := NewMemSource(Linear(randx.New(2), testLinearOpt(10, 3)))
	for _, c := range []struct{ t, T int }{{0, 0}, {0, 11}, {-1, 2}, {2, 2}, {5, 3}} {
		if _, err := src.Chunk(c.t, c.T); err == nil {
			t.Errorf("Chunk(%d, %d): expected error", c.t, c.T)
		}
	}
}

// TestGenSourceChunkInvariance is the generator's core property: every
// chunking of the stream reproduces the same rows bit for bit, so
// Materialize (the eager path) equals the concatenation of chunks for
// every T.
func TestGenSourceChunkInvariance(t *testing.T) {
	gen := LinearSource(7, testLinearOpt(257, 5))
	defer gen.Close()
	full := gen.Materialize()
	if full.N() != 257 || full.D() != 5 {
		t.Fatalf("shape %dx%d", full.N(), full.D())
	}
	if gen.WStar() == nil || len(gen.WStar()) != 5 {
		t.Fatal("missing planted parameter")
	}
	for _, T := range []int{1, 3, 8, 257} {
		for tt := 0; tt < T; tt++ {
			ck, err := gen.Chunk(tt, T)
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := ChunkBounds(tt, T, 257)
			sameDataset(t, ck, full.Subset(lo, hi), "gen chunk")
		}
	}
	// Same seed → same stream; different seed → different stream.
	again := LinearSource(7, testLinearOpt(257, 5)).Materialize()
	sameDataset(t, again, full, "regenerated")
	other := LinearSource(8, testLinearOpt(257, 5)).Materialize()
	diff := false
	for i := range full.X.Data {
		if other.X.Data[i] != full.X.Data[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical data")
	}
}

func TestLogisticSourceLabels(t *testing.T) {
	gen := LogisticSource(3, LogisticOpt{N: 100, D: 4, Feature: randx.Normal{Mu: 0, Sigma: 1}})
	full := gen.Materialize()
	for i, y := range full.Y {
		if y != 1 && y != -1 {
			t.Fatalf("label %d = %v", i, y)
		}
	}
}

// TestCSVSourceMatchesReadCSV: streaming chunks of a WriteCSV round
// trip must be bit-identical to ReadCSV + Subset.
func TestCSVSourceMatchesReadCSV(t *testing.T) {
	ds := Linear(randx.New(4), testLinearOpt(301, 6))
	path := writeTempCSV(t, ds)
	src, err := OpenCSV(path, "round", -1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if src.N() != 301 || src.D() != 6 {
		t.Fatalf("shape %dx%d", src.N(), src.D())
	}
	for _, T := range []int{1, 2, 7, 301} {
		for tt := 0; tt < T; tt++ {
			ck, err := src.Chunk(tt, T)
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := ChunkBounds(tt, T, 301)
			sameDataset(t, ck, ds.Subset(lo, hi), "csv chunk")
		}
	}
	// Out-of-order access after a full pass still works (seek back).
	ck, err := src.Chunk(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	sameDataset(t, ck, ds.Subset(0, 301/7), "re-read")
}

func TestCSVSourceCache(t *testing.T) {
	ds := Linear(randx.New(5), testLinearOpt(50, 3))
	src, err := OpenCSV(writeTempCSV(t, ds), "c", -1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	a, err := src.Chunk(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := src.Chunk(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("repeated Chunk(t, T) did not hit the one-slot cache")
	}
	c, err := src.Chunk(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("cache returned a stale chunk")
	}
}

func TestCSVSourceHeaderAndLabelCol(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.csv")
	content := "y,a,b\n1,2,3\n4,5,6\n7,8,9\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := OpenCSV(path, "h", 0, true)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if src.N() != 3 || src.D() != 2 {
		t.Fatalf("shape %dx%d", src.N(), src.D())
	}
	ck, err := src.Chunk(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Y[1] != 4 || ck.X.At(1, 0) != 5 || ck.X.At(1, 1) != 6 {
		t.Fatalf("row 1 = %v / %v", ck.X.Row(1), ck.Y[1])
	}
}

func TestCSVSourceErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := OpenCSV(filepath.Join(dir, "missing.csv"), "m", -1, false); err == nil {
		t.Error("missing file: expected error")
	}
	if _, err := OpenCSV(write("empty.csv", ""), "e", -1, false); err == nil {
		t.Error("empty file: expected error")
	}
	if _, err := OpenCSV(write("narrow.csv", "1\n2\n"), "n", -1, false); err == nil {
		t.Error("one column: expected error")
	}
	if _, err := OpenCSV(write("ragged.csv", "1,2\n3,4,5\n"), "r", -1, false); err == nil {
		t.Error("ragged rows: expected error")
	}
	if _, err := OpenCSV(write("lc.csv", "1,2\n3,4\n"), "l", 5, false); err == nil {
		t.Error("label column out of range: expected error")
	}
	// Non-numeric fields surface at Chunk time with the row number.
	src, err := OpenCSV(write("bad.csv", "1,2\n3,oops\n"), "b", -1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if _, err := src.Chunk(0, 1); err == nil {
		t.Error("non-numeric field: expected error")
	}
}

// TestCSVSourceReopen: Reopen shares the offset index (no rescan) but
// serves chunks independently and bit-identically.
func TestCSVSourceReopen(t *testing.T) {
	ds := Linear(randx.New(12), testLinearOpt(90, 4))
	base, err := OpenCSV(writeTempCSV(t, ds), "base", -1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	re, err := base.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.N() != base.N() || re.D() != base.D() {
		t.Fatalf("reopened shape %dx%d", re.N(), re.D())
	}
	a, err := base.Chunk(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := re.Chunk(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	sameDataset(t, b, a, "reopened chunk")
	// Closing the reopened source must not break the base.
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := base.Chunk(2, 3); err != nil {
		t.Fatalf("base broken after reopened Close: %v", err)
	}
}

func TestEachChunk(t *testing.T) {
	src := NewMemSource(Linear(randx.New(13), testLinearOpt(50, 3)))
	var rows int
	if err := EachChunk(src, 4, func(_ int, ck *Dataset) error {
		rows += ck.N()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if rows != 50 {
		t.Fatalf("walked %d rows, want 50", rows)
	}
	sentinel := fmt.Errorf("stop")
	if err := EachChunk(src, 4, func(int, *Dataset) error { return sentinel }); err != sentinel {
		t.Fatalf("body error = %v, want sentinel", err)
	}
	if err := EachChunk(src, 999, func(int, *Dataset) error { return nil }); err == nil {
		t.Fatal("invalid chunk count: expected error")
	}
}

func TestStreamChunksBounds(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 1}, {100, 1}, {StreamRows, 1}, {StreamRows + 1, 2}, {10 * StreamRows, 10},
	}
	for _, c := range cases {
		if got := StreamChunks(c.n); got != c.want {
			t.Errorf("StreamChunks(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// Every chunk is within MaxChunkRows and the chunks tile [0, n).
	for _, n := range []int{1, 17, StreamRows + 3, 3*StreamRows - 1} {
		C := StreamChunks(n)
		if C < 1 || C > n {
			t.Fatalf("StreamChunks(%d) = %d outside [1, n]", n, C)
		}
		prev := 0
		for c := 0; c < C; c++ {
			lo, hi := ChunkBounds(c, C, n)
			if lo != prev || hi < lo {
				t.Fatalf("chunks do not tile: n=%d c=%d [%d,%d) prev=%d", n, c, lo, hi, prev)
			}
			if hi-lo > MaxChunkRows(n, C) {
				t.Fatalf("chunk %d of %d has %d rows > MaxChunkRows %d", c, C, hi-lo, MaxChunkRows(n, C))
			}
			prev = hi
		}
		if prev != n {
			t.Fatalf("chunks stop at %d, want %d", prev, n)
		}
	}
}

func TestWStarOfAndMaterialize(t *testing.T) {
	gen := LinearSource(9, testLinearOpt(40, 3))
	if w := WStarOf(gen); len(w) != 3 {
		t.Fatalf("WStarOf(gen) = %v", w)
	}
	ds := Linear(randx.New(9), testLinearOpt(40, 3))
	csvSrc, err := OpenCSV(writeTempCSV(t, ds), "w", -1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer csvSrc.Close()
	if w := WStarOf(csvSrc); w != nil {
		t.Fatalf("WStarOf(csv) = %v, want nil", w)
	}
	m, err := Materialize(csvSrc)
	if err != nil {
		t.Fatal(err)
	}
	sameDataset(t, m, ds, "materialized csv")
}
