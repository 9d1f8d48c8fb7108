package data

import (
	"fmt"
	"sort"
	"sync"
)

// MaxResidentBytes bounds the decoded rows a SourcePool holds in memory
// to share one decode across many readers: 256 MiB of float64s,
// n·(d+1)·8 bytes for n rows of d features and a label, across all of
// its CSV and generator entries. The pool is the one place a dataset is
// decoded and held. Rows beyond the budget are streamed from their
// backend on every read instead — slower, never different.
const MaxResidentBytes = 256 << 20

// SourcePool is a concurrency-safe registry of named datasets that
// hands out per-request Source handles — the pooled resource layer the
// serving plane (internal/serve) runs on. It lifts the "Sources are
// single-goroutine" restriction to exactly where it belongs: the pool
// itself may be shared by any number of goroutines, and every Acquire
// returns a fresh handle whose mutable state (file descriptor, parse
// buffers, view headers) is private to the caller, while the expensive
// immutable state is shared by all handles:
//
//   - a CSV or generator entry is decoded once, on its first Acquire,
//     through one of its own streaming handles; every Acquire then
//     returns a MemSource view over those shared rows, and a decoded
//     CSV entry never reads its file again. Decoded rows count against
//     one pool-wide budget of MaxResidentBytes, first come first
//     served; an entry that does not fit, or whose decode fails,
//     streams for the life of the pool;
//   - a streaming CSV entry keeps one master CSVSource whose row-offset
//     index is built once at registration; Acquire calls Reopen, which
//     shares the index and opens a private file handle;
//   - a streaming generator entry clones the GenSource by seed: chunks
//     are a pure function of (seed, row), so every clone replays
//     identical bytes;
//   - an in-memory entry (an upload) serves MemSource views over one
//     immutable matrix; handles carry only their own view headers. It
//     is resident already and does not count against the budget.
//
// The first Acquire of an entry pays for its decode, a full parse or
// regeneration; concurrent first Acquires wait for that one decode.
// Acquire takes no context, so the decode cannot be cancelled: it runs
// once per entry per process, a few seconds at the budget's cap.
//
// Because handles over one entry replay bit-identical chunk contents —
// a decoded entry's views equal its streaming handles' chunks by the
// Source contract — concurrent requests against a pooled dataset
// return bit-identical results, whether or not the entry is decoded
// yet: the property that makes the serving layer's response cache
// trivially correct (see DESIGN.md, "Serving").
type SourcePool struct {
	mu       sync.RWMutex
	entries  map[string]*poolEntry
	budget   int64 // bytes of decoded rows the pool may hold: MaxResidentBytes
	resident int64 // bytes of decoded rows held now, at most budget
}

// PoolEntry describes one registered dataset, as listed by
// SourcePool.List and the serving layer's GET /v1/datasets.
type PoolEntry struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "csv", "gen", or "mem"
	N    int    `json:"n"`
	D    int    `json:"d"`
	Path string `json:"path,omitempty"` // csv entries only
}

type poolEntry struct {
	info    PoolEntry
	acquire func() (Source, error) // a streaming handle; nil for uploads
	release func() error           // closes shared state on Remove/Close, may be nil

	once  sync.Once // settles the decode: run by the first Acquire, or by Remove/Close
	rows  *Dataset  // the resident rows, nil while the entry streams
	bytes int64     // budget held by rows
}

// NewSourcePool returns an empty pool.
func NewSourcePool() *SourcePool {
	return &SourcePool{entries: make(map[string]*poolEntry), budget: MaxResidentBytes}
}

func (p *SourcePool) add(e *poolEntry) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.entries[e.info.Name]; ok {
		return fmt.Errorf("data: pool entry %q already registered", e.info.Name)
	}
	p.entries[e.info.Name] = e
	return nil
}

// RegisterCSV indexes the CSV file once (see OpenCSV) and registers it.
// The first Acquire decodes the file when its rows fit the pool's
// budget; otherwise every Acquire shares the index and opens its own
// file handle via Reopen. The master handle is closed when the entry is
// removed or the pool is closed.
func (p *SourcePool) RegisterCSV(name, path string, labelCol int, hasHeader bool) (PoolEntry, error) {
	master, err := OpenCSV(path, name, labelCol, hasHeader)
	if err != nil {
		return PoolEntry{}, err
	}
	e := &poolEntry{
		info:    PoolEntry{Name: name, Kind: "csv", N: master.N(), D: master.D(), Path: path},
		acquire: func() (Source, error) { return master.Reopen() },
		release: master.Close,
	}
	if err := p.add(e); err != nil {
		master.Close()
		return PoolEntry{}, err
	}
	return e.info, nil
}

// RegisterGen registers a generator-backed dataset. The first Acquire
// generates its rows once when they fit the pool's budget; otherwise
// every Acquire returns an independent clone replaying the same
// (seed, opt) stream.
func (p *SourcePool) RegisterGen(name string, g *GenSource) (PoolEntry, error) {
	if g == nil {
		panic("data: RegisterGen nil source")
	}
	e := &poolEntry{
		info:    PoolEntry{Name: name, Kind: "gen", N: g.N(), D: g.D()},
		acquire: func() (Source, error) { return g.Clone(), nil },
	}
	if err := p.add(e); err != nil {
		return PoolEntry{}, err
	}
	return e.info, nil
}

// RegisterMem registers an in-memory dataset; every Acquire returns a
// fresh MemSource view over the one shared matrix. The dataset must not
// be mutated after registration — handles alias its storage.
func (p *SourcePool) RegisterMem(name string, ds *Dataset) (PoolEntry, error) {
	if ds == nil {
		panic("data: RegisterMem nil dataset")
	}
	e := &poolEntry{info: PoolEntry{Name: name, Kind: "mem", N: ds.N(), D: ds.D()}, rows: ds}
	e.once.Do(func() {}) // resident already: nothing to decode or count
	if err := p.add(e); err != nil {
		return PoolEntry{}, err
	}
	return e.info, nil
}

// Acquire returns a fresh single-goroutine Source handle over the named
// dataset. The caller owns the handle and must Close it; closing a
// handle never touches the entry's shared state. The first Acquire of a
// CSV or generator entry decodes it (see SourcePool) before returning.
func (p *SourcePool) Acquire(name string) (Source, error) {
	p.mu.RLock()
	e, ok := p.entries[name]
	p.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("data: pool has no dataset %q", name)
	}
	e.once.Do(func() { p.decodeEntry(e) })
	if e.rows != nil {
		return NewMemSource(e.rows), nil
	}
	return e.acquire()
}

// decodeEntry materializes e's rows through one of its own streaming
// handles when they fit the remaining budget, keeping the handle's
// chunk as the shared rows — one copy, no clone. A failed decode
// returns the budget and leaves the entry streaming, so the failure
// resurfaces unchanged from the streaming handles (a vanished file at
// Acquire, a non-numeric field at the Chunk that covers it).
func (p *SourcePool) decodeEntry(e *poolEntry) {
	need := int64(e.info.N) * int64(e.info.D+1) * 8
	if !p.adjust(need) {
		return
	}
	src, err := e.acquire()
	if err == nil {
		var ds *Dataset
		ds, err = Materialize(src)
		src.Close() // read-only: the rows are decoded either way
		if err == nil {
			e.rows, e.bytes = ds, need
			return
		}
	}
	p.adjust(-need)
}

// adjust moves the resident byte count by delta, refusing (false) a
// reservation that would exceed the budget.
func (p *SourcePool) adjust(delta int64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if delta > 0 && p.resident+delta > p.budget {
		return false
	}
	p.resident += delta
	return true
}

// ResidentBytes returns the bytes of decoded CSV and generator rows the
// pool holds, at most MaxResidentBytes. Uploads are not counted.
func (p *SourcePool) ResidentBytes() int64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.resident
}

// Lookup returns the entry metadata for name without opening a handle.
func (p *SourcePool) Lookup(name string) (PoolEntry, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	e, ok := p.entries[name]
	if !ok {
		return PoolEntry{}, fmt.Errorf("data: pool has no dataset %q", name)
	}
	return e.info, nil
}

// List returns the registered entries sorted by name.
func (p *SourcePool) List() []PoolEntry {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]PoolEntry, 0, len(p.entries))
	for _, e := range p.entries {
		out = append(out, e.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Remove unregisters the named dataset, returns the budget its decoded
// rows held, and closes its shared state. Handles already acquired stay
// usable (a CSV handle owns its own file descriptor, a view keeps its
// rows alive) — Remove only stops new acquisitions.
func (p *SourcePool) Remove(name string) error {
	p.mu.Lock()
	e, ok := p.entries[name]
	delete(p.entries, name)
	p.mu.Unlock()
	if !ok {
		return fmt.Errorf("data: pool has no dataset %q", name)
	}
	return p.drop(e)
}

// Close unregisters every entry, returning all budget and closing all
// shared state. The first error is returned; all entries are released
// regardless.
func (p *SourcePool) Close() error {
	p.mu.Lock()
	entries := p.entries
	p.entries = make(map[string]*poolEntry)
	p.mu.Unlock()
	var first error
	for _, e := range entries {
		if err := p.drop(e); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// drop settles an unregistered entry's decode — waiting out one in
// flight, or forbidding one not yet begun — so its budget is returned
// exactly once, then closes its shared state.
func (p *SourcePool) drop(e *poolEntry) error {
	e.once.Do(func() {})
	p.adjust(-e.bytes)
	if e.release != nil {
		return e.release()
	}
	return nil
}
