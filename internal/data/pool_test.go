package data

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"htdp/internal/randx"
)

func poolGen(n, d int) *GenSource {
	return LinearSource(11, LinearOpt{
		N: n, D: d,
		Feature: randx.LogNormal{Mu: 0, Sigma: 0.8},
		Noise:   randx.Normal{Mu: 0, Sigma: 0.3},
	})
}

func poolCSVPath(t *testing.T, ds *Dataset) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pool.csv")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// chunksEqual reads chunk t of T from a source and compares it bit for
// bit against the reference dataset's rows. It reports via Errorf so it
// is safe to call from spawned goroutines.
func chunksEqual(t *testing.T, src Source, ref *Dataset, ci, T int) {
	t.Helper()
	ck, err := src.Chunk(ci, T)
	if err != nil {
		t.Errorf("chunk %d/%d: %v", ci, T, err)
		return
	}
	lo, hi := ChunkBounds(ci, T, ref.N())
	for i := lo; i < hi; i++ {
		if ck.Y[i-lo] != ref.Y[i] {
			t.Errorf("chunk %d/%d row %d: y=%v want %v", ci, T, i, ck.Y[i-lo], ref.Y[i])
			return
		}
		for j := 0; j < ref.D(); j++ {
			if ck.X.At(i-lo, j) != ref.X.At(i, j) {
				t.Errorf("chunk %d/%d entry (%d,%d) differs", ci, T, i, j)
				return
			}
		}
	}
}

// streamingPool returns an empty pool with no decode budget, so every
// CSV and generator entry streams — what an over-budget entry does.
func streamingPool() *SourcePool {
	p := NewSourcePool()
	p.budget = 0
	return p
}

// registerAll registers gen as "g", ref as "m" and the CSV at path as
// "c", and closes the pool when the test ends.
func registerAll(t *testing.T, p *SourcePool, gen *GenSource, ref *Dataset, path string) {
	t.Helper()
	t.Cleanup(func() { p.Close() })
	if _, err := p.RegisterGen("g", gen); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterMem("m", ref); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterCSV("c", path, -1, false); err != nil {
		t.Fatal(err)
	}
}

// TestSourcePoolBackends: every kind of pooled handle — decoded CSV
// and generator views, the streaming handles of a pool with no budget,
// and an upload's view — serves the same chunks for every chunk count
// and the same rows in shuffled order as a direct OpenCSV/GenSource
// handle, bit for bit.
func TestSourcePoolBackends(t *testing.T) {
	const n, d = 700, 6
	gen := poolGen(n, d)
	ref := gen.Materialize()
	path := poolCSVPath(t, ref)
	resident, streaming := NewSourcePool(), streamingPool()
	registerAll(t, resident, gen, ref, path)
	registerAll(t, streaming, gen, ref, path)

	entries := resident.List()
	if len(entries) != 3 {
		t.Fatalf("List = %d entries, want 3", len(entries))
	}
	for i, want := range []string{"c", "g", "m"} {
		if entries[i].Name != want {
			t.Fatalf("List[%d] = %q, want %q (sorted)", i, entries[i].Name, want)
		}
		if entries[i].N != n || entries[i].D != d {
			t.Fatalf("List[%d] shape = (%d,%d), want (%d,%d)", i, entries[i].N, entries[i].D, n, d)
		}
	}
	if e, err := resident.Lookup("c"); err != nil || e.Kind != "csv" || e.Path != path {
		t.Fatalf("Lookup(c) = %+v, %v", e, err)
	}

	direct := map[string]func() (Source, error){
		"c": func() (Source, error) { return OpenCSV(path, "direct", -1, false) },
		"g": func() (Source, error) { return gen.Clone(), nil },
		"m": func() (Source, error) { return NewMemSource(ref), nil },
	}
	for _, tc := range []struct {
		pool     *SourcePool
		name     string
		wantType string
	}{
		{resident, "c", "*data.MemSource"},
		{resident, "g", "*data.MemSource"},
		{resident, "m", "*data.MemSource"},
		{streaming, "c", "*data.CSVSource"},
		{streaming, "g", "*data.GenSource"},
		{streaming, "m", "*data.MemSource"},
	} {
		src, err := tc.pool.Acquire(tc.name)
		if err != nil {
			t.Fatalf("Acquire(%s): %v", tc.name, err)
		}
		if got := fmt.Sprintf("%T", src); got != tc.wantType {
			t.Fatalf("Acquire(%s) = %s, want %s", tc.name, got, tc.wantType)
		}
		want, err := direct[tc.name]()
		if err != nil {
			t.Fatal(err)
		}
		all, err := Materialize(want)
		if err != nil {
			t.Fatal(err)
		}
		for _, T := range []int{1, 3, StreamChunks(n), n} {
			for ci := 0; ci < T; ci++ {
				chunksEqual(t, src, all, ci, T)
			}
		}
		for _, i := range randx.New(3).Perm(n) {
			x, y, err := src.RowAt(i, nil)
			if err != nil {
				t.Fatalf("%s RowAt(%d): %v", tc.wantType, i, err)
			}
			checkRowsEqual(t, tc.name+" "+tc.wantType, x, y, all.X.Row(i), all.Y[i])
		}
		if err := src.Close(); err != nil {
			t.Fatalf("close %s handle: %v", tc.name, err)
		}
		want.Close()
	}
	if got, want := resident.ResidentBytes(), int64(2*n*(d+1)*8); got != want {
		t.Fatalf("resident pool holds %d bytes, want %d (the csv and gen rows)", got, want)
	}
	if got := streaming.ResidentBytes(); got != 0 {
		t.Fatalf("zero-budget pool holds %d bytes", got)
	}
}

func TestSourcePoolErrors(t *testing.T) {
	p := NewSourcePool()
	defer p.Close()
	if _, err := p.RegisterGen("g", poolGen(50, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterGen("g", poolGen(50, 3)); err == nil {
		t.Fatal("duplicate registration: expected error")
	}
	if _, err := p.Acquire("nope"); err == nil {
		t.Fatal("unknown dataset: expected error")
	}
	if _, err := p.Lookup("nope"); err == nil {
		t.Fatal("unknown lookup: expected error")
	}
	if _, err := p.RegisterCSV("bad", filepath.Join(t.TempDir(), "missing.csv"), -1, false); err == nil {
		t.Fatal("missing CSV: expected error")
	}
	if err := p.Remove("g"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Acquire("g"); err == nil {
		t.Fatal("removed dataset: expected error")
	}
	if err := p.Remove("g"); err == nil {
		t.Fatal("double remove: expected error")
	}
}

// TestSourcePoolConcurrentHandles is the pooled-handle race test: many
// goroutines acquire handles over every backend of the same rows, from
// a pool that decodes and one that streams, and read all chunks
// concurrently; every chunk must match the reference bit for bit. Run
// under -race this also proves handles share no mutable state.
func TestSourcePoolConcurrentHandles(t *testing.T) {
	gen := poolGen(300, 5)
	ref := gen.Materialize()
	path := poolCSVPath(t, ref)
	resident, streaming := NewSourcePool(), streamingPool()
	registerAll(t, resident, gen, ref, path)
	registerAll(t, streaming, gen, ref, path)

	const perBackend = 4
	var wg sync.WaitGroup
	for _, p := range []*SourcePool{resident, streaming} {
		for _, name := range []string{"g", "m", "c"} {
			for k := 0; k < perBackend; k++ {
				wg.Add(1)
				go func(p *SourcePool, name string) {
					defer wg.Done()
					src, err := p.Acquire(name)
					if err != nil {
						t.Errorf("Acquire(%s): %v", name, err)
						return
					}
					defer src.Close()
					for ci := 0; ci < 5; ci++ {
						chunksEqual(t, src, ref, ci, 5)
					}
				}(p, name)
			}
		}
	}
	wg.Wait()
}

// TestSourcePoolDecodesOnce: eight concurrent first Acquires of one CSV
// entry share a single decode — every handle's rows alias one backing
// array, and the pool holds exactly one copy's bytes.
func TestSourcePoolDecodesOnce(t *testing.T) {
	const n, d, workers = 300, 5, 8
	ref := poolGen(n, d).Materialize()
	p := NewSourcePool()
	defer p.Close()
	if _, err := p.RegisterCSV("c", poolCSVPath(t, ref), -1, false); err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	rows := make([]*float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			src, err := p.Acquire("c")
			if err != nil {
				t.Error(err)
				return
			}
			defer src.Close()
			x, _, err := src.RowAt(0, nil)
			if err != nil {
				t.Error(err)
				return
			}
			rows[w] = &x[0]
		}(w)
	}
	close(start)
	wg.Wait()
	for w := 1; w < workers; w++ {
		if rows[w] != rows[0] {
			t.Fatalf("handle %d's row 0 does not alias handle 0's: the entry was decoded more than once", w)
		}
	}
	if got, want := p.ResidentBytes(), int64(n*(d+1)*8); got != want {
		t.Fatalf("ResidentBytes = %d, want n·(d+1)·8 = %d", got, want)
	}
}

// TestSourcePoolOverBudgetStreams: an entry whose rows do not fit the
// remaining budget streams for the life of the pool. The budget is
// pool-wide, first come first served: an entry that fits alone still
// streams once an earlier decode holds the room.
func TestSourcePoolOverBudgetStreams(t *testing.T) {
	const n, d = 100, 4
	gen := poolGen(n, d)
	ref := gen.Materialize()
	path := poolCSVPath(t, ref)
	size := int64(n * (d + 1) * 8)

	tight := NewSourcePool()
	tight.budget = size - 1
	registerAll(t, tight, gen, ref, path)
	for i := 0; i < 2; i++ {
		src, err := tight.Acquire("c")
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := src.(*CSVSource); !ok {
			t.Fatalf("acquire %d of an over-budget entry = %T, want *CSVSource", i, src)
		}
		chunksEqual(t, src, ref, 1, 2)
		src.Close()
	}
	if got := tight.ResidentBytes(); got != 0 {
		t.Fatalf("over-budget pool holds %d bytes", got)
	}

	shared := NewSourcePool()
	shared.budget = size
	registerAll(t, shared, gen, ref, path)
	for _, tc := range []struct{ name, wantType string }{
		{"g", "*data.MemSource"}, // decodes first and takes the whole budget
		{"c", "*data.CSVSource"},
		{"g", "*data.MemSource"},
		{"c", "*data.CSVSource"},
	} {
		src, err := shared.Acquire(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%T", src); got != tc.wantType {
			t.Fatalf("Acquire(%s) = %s, want %s", tc.name, got, tc.wantType)
		}
		src.Close()
	}
	if got := shared.ResidentBytes(); got != size {
		t.Fatalf("ResidentBytes = %d, want %d", got, size)
	}
}

// TestSourcePoolReleasesBudget: Remove and Close return a decoded
// entry's bytes while handles already acquired keep their rows, and a
// Remove racing the first Acquire never leaks the budget — whichever
// wins, the pool ends at zero.
func TestSourcePoolReleasesBudget(t *testing.T) {
	const n, d = 120, 3
	gen := poolGen(n, d)
	ref := gen.Materialize()
	path := poolCSVPath(t, ref)
	size := int64(n * (d + 1) * 8)

	p := NewSourcePool()
	registerAll(t, p, gen, ref, path)
	var held []Source
	for _, name := range []string{"c", "g", "m"} {
		src, err := p.Acquire(name)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, src)
	}
	if got := p.ResidentBytes(); got != 2*size {
		t.Fatalf("ResidentBytes = %d, want %d (uploads are not counted)", got, 2*size)
	}
	if err := p.Remove("c"); err != nil {
		t.Fatal(err)
	}
	if got := p.ResidentBytes(); got != size {
		t.Fatalf("after Remove: ResidentBytes = %d, want %d", got, size)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := p.ResidentBytes(); got != 0 {
		t.Fatalf("after Close: ResidentBytes = %d, want 0", got)
	}
	for _, src := range held {
		chunksEqual(t, src, ref, 2, 3)
		src.Close()
	}

	for i := 0; i < 50; i++ {
		p := NewSourcePool()
		if _, err := p.RegisterCSV("c", path, -1, false); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if src, err := p.Acquire("c"); err == nil {
				chunksEqual(t, src, ref, 0, 1)
				src.Close()
			}
		}()
		go func() {
			defer wg.Done()
			if err := p.Remove("c"); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		if got := p.ResidentBytes(); got != 0 {
			t.Fatalf("round %d: Remove racing the first Acquire left %d bytes", i, got)
		}
		p.Close()
	}

	// Remove while the first Acquire's decode is in flight: the budget
	// is reserved before the decode begins, so Remove starts as soon as
	// it shows and must wait the decode out before returning the bytes.
	big := poolCSVPath(t, poolGen(4000, 8).Materialize())
	for i := 0; i < 5; i++ {
		p := NewSourcePool()
		if _, err := p.RegisterCSV("c", big, -1, false); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			if src, err := p.Acquire("c"); err == nil {
				src.Close()
			}
		}()
		for deadline := time.Now().Add(10 * time.Second); p.ResidentBytes() == 0; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatal("the first Acquire never reserved its budget")
			}
		}
		if err := p.Remove("c"); err != nil {
			t.Fatal(err)
		}
		<-done
		if got := p.ResidentBytes(); got != 0 {
			t.Fatalf("round %d: Remove during the decode left %d bytes", i, got)
		}
		p.Close()
	}
}

// TestSourcePoolBadCSVStreams: an entry whose decode fails on a
// non-numeric field keeps streaming handles, and their Chunk errors are
// the streaming backend's own row-numbered ones, word for word.
func TestSourcePoolBadCSVStreams(t *testing.T) {
	const badRow = 41
	ref := poolGen(60, 3).Materialize()
	path := poolCSVPath(t, ref)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	fields := strings.Split(lines[badRow], ",")
	fields[2] = "not-a-number"
	lines[badRow] = strings.Join(fields, ",")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	direct, err := OpenCSV(path, "bad", -1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	_, want := direct.Chunk(1, 2)
	if want == nil || !strings.Contains(want.Error(), fmt.Sprintf("row %d", badRow)) {
		t.Fatalf("direct handle error %v does not name row %d", want, badRow)
	}

	p := NewSourcePool()
	defer p.Close()
	if _, err := p.RegisterCSV("bad", path, -1, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		src, err := p.Acquire("bad")
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := src.(*CSVSource); !ok {
			t.Fatalf("acquire %d after a failed decode = %T, want *CSVSource", i, src)
		}
		if _, err := src.Chunk(1, 2); err == nil || err.Error() != want.Error() {
			t.Fatalf("pooled chunk error %v, want %q", err, want)
		}
		chunksEqual(t, src, ref, 0, 2) // the healthy half still reads
		src.Close()
	}
	if got := p.ResidentBytes(); got != 0 {
		t.Fatalf("failed decode left %d bytes reserved", got)
	}
}

// TestSourcePoolVanishedCSV: a decoded entry never reads its file
// again, so deleting the file changes nothing; a file deleted before
// its entry's first decode fails Acquire with the reopen error
// streaming always gave, and the entry streams from then on.
func TestSourcePoolVanishedCSV(t *testing.T) {
	ref := poolGen(80, 3).Materialize()
	decoded, early := poolCSVPath(t, ref), poolCSVPath(t, ref)
	p := NewSourcePool()
	defer p.Close()
	for name, path := range map[string]string{"decoded": decoded, "early": early} {
		if _, err := p.RegisterCSV(name, path, -1, false); err != nil {
			t.Fatal(err)
		}
	}
	src, err := p.Acquire("decoded")
	if err != nil {
		t.Fatal(err)
	}
	src.Close()
	raw, err := os.ReadFile(early)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{decoded, early} {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}

	src, err = p.Acquire("decoded")
	if err != nil {
		t.Fatalf("decoded entry after its file vanished: %v", err)
	}
	chunksEqual(t, src, ref, 0, 1)
	src.Close()

	if _, err := p.Acquire("early"); err == nil || !strings.Contains(err.Error(), "reopening CSV") {
		t.Fatalf("vanished file before decode: Acquire error %v, want the reopen failure", err)
	}
	if err := os.WriteFile(early, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	src, err = p.Acquire("early")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := src.(*CSVSource); !ok {
		t.Fatalf("restored file after a failed decode = %T, want *CSVSource (streams for good)", src)
	}
	chunksEqual(t, src, ref, 0, 1)
	src.Close()
	if got, want := p.ResidentBytes(), int64(80*4*8); got != want {
		t.Fatalf("ResidentBytes = %d, want %d (only the decoded entry)", got, want)
	}
}
