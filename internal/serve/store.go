package serve

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// store is the two-tier deterministic result store: canonical request
// hash → exact marshaled response bytes, byte-size-bounded on both
// tiers. The hot tier is an in-memory LRU; the optional durable tier is
// a directory of content-addressed files (one per cache key, named by
// the key itself), so results survive restarts bit-identically.
//
// Correctness needs no invalidation story because every stored value is
// a pure function of its key: runs and sweeps are deterministic in
// (dataset bytes, canonical request), so replaying stored bytes — from
// memory or from a file written by a previous process — is
// bit-identical to re-executing. That is the whole reason a disk tier
// is trivially exact here (DESIGN.md, "Durability"): a persisted result
// is valid forever.
//
// Tier mechanics:
//
//   - put writes memory first, then the disk tier via an atomic
//     write-then-rename (a crash can leave a *.tmp file, never a
//     truncated entry; leftovers are swept at startup);
//   - get promotes a disk hit into the memory tier;
//   - eviction is LRU by bytes on both tiers independently — memory
//     eviction is free when a disk tier exists (the entry remains on
//     disk), disk eviction unlinks the file;
//   - a restart scans the directory, rebuilding the disk index with
//     file mtime as the recency order.
type store struct {
	mu sync.Mutex

	memMax   int64
	memBytes int64
	ll       *list.List // front = most recently used
	index    map[string]*list.Element

	dir       string // "" = memory-only
	diskMax   int64
	diskBytes int64
	dll       *list.List
	dindex    map[string]*list.Element

	hits, diskHits, misses int64
	diskErrs               int64
}

type memItem struct {
	key string
	val []byte
}

type diskItem struct {
	key  string
	size int64
}

// storeStats is one consistent snapshot of the store's counters, for
// /metrics.
type storeStats struct {
	Hits, DiskHits, Misses, DiskErrs int64
	MemEntries                       int
	MemBytes                         int64
	DiskEntries                      int
	DiskBytes                        int64
}

// newStore builds the two-tier store. dir == "" disables the disk
// tier; otherwise the directory is created if needed and scanned:
// leftover *.tmp files from a crashed write are deleted, every
// well-formed entry (a 64-hex-digit filename) is indexed with its file
// mtime as the recency order, and anything beyond diskMax is evicted
// oldest-first before the store is used.
func newStore(memMax int64, dir string, diskMax int64) (*store, error) {
	if memMax < 1 {
		memMax = 1
	}
	s := &store{
		memMax: memMax,
		ll:     list.New(),
		index:  make(map[string]*list.Element),
		dir:    dir,
		dll:    list.New(),
		dindex: make(map[string]*list.Element),
	}
	if dir == "" {
		return s, nil
	}
	if diskMax < 1 {
		diskMax = 1
	}
	s.diskMax = diskMax
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: creating cache dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: scanning cache dir: %w", err)
	}
	type scanned struct {
		key   string
		size  int64
		mtime int64
	}
	var found []scanned
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// A crash between create and rename leaves a temp file; it
			// was never visible as an entry, so it is safe to drop.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if !validStoreKey(name) || e.IsDir() {
			continue // not ours; leave it alone
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		found = append(found, scanned{key: name, size: info.Size(), mtime: info.ModTime().UnixNano()})
	}
	// Oldest first, so pushing each to the front leaves the newest file
	// most-recently-used. Ties break by key so the scan is deterministic.
	sort.Slice(found, func(i, j int) bool {
		if found[i].mtime != found[j].mtime {
			return found[i].mtime < found[j].mtime
		}
		return found[i].key < found[j].key
	})
	for _, f := range found {
		s.dindex[f.key] = s.dll.PushFront(&diskItem{key: f.key, size: f.size})
		s.diskBytes += f.size
	}
	s.evictDiskLocked()
	return s, nil
}

// validStoreKey reports whether a filename is a well-formed cache key:
// exactly the lowercase hex SHA-256 cacheKey produces. Anything else in
// the directory is not ours and is never indexed or evicted.
func validStoreKey(name string) bool {
	if len(name) != 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// get returns the stored bytes and the tier they came from ("hit" =
// memory, "disk" = durable tier, promoted into memory on the way out).
// Callers must not mutate the returned slice.
func (s *store) get(key string) (val []byte, tier string, ok bool) {
	return s.lookup(key, true)
}

// recheck is get without miss accounting: the compute path's later
// looks at the store (after submit answered errStored, or a waited-on
// job was cancelled) should not double-count the one logical miss.
func (s *store) recheck(key string) (val []byte, tier string, ok bool) {
	return s.lookup(key, false)
}

// lookup is the shared read path. Disk reads happen OUTSIDE the store
// lock — a hit on the memory tier must never wait behind another
// request's file I/O — so a disk entry can be evicted between the index
// check and the read; that read simply fails and degrades to a miss
// (the determinism contract means a recompute restores the identical
// bytes).
func (s *store) lookup(key string, countMiss bool) (val []byte, tier string, ok bool) {
	s.mu.Lock()
	if el, ok := s.index[key]; ok {
		s.hits++
		s.ll.MoveToFront(el)
		v := el.Value.(*memItem).val
		s.mu.Unlock()
		return v, "hit", true
	}
	_, onDisk := s.dindex[key]
	if !onDisk {
		if countMiss {
			s.misses++
		}
		s.mu.Unlock()
		return nil, "", false
	}
	s.mu.Unlock()

	b, err := os.ReadFile(filepath.Join(s.dir, key))

	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		// Vanished or unreadable (possibly evicted while we read):
		// drop the entry if it is still indexed and report a miss.
		s.diskErrs++
		if el, ok := s.dindex[key]; ok {
			s.dropDiskLocked(el)
		}
		if countMiss {
			s.misses++
		}
		return nil, "", false
	}
	s.diskHits++
	if el, ok := s.dindex[key]; ok {
		s.dll.MoveToFront(el)
	}
	s.putMemLocked(key, b)
	return b, "disk", true
}

// contains reports whether the key is present in either tier, by index
// alone — no file I/O, so it is safe to call under locks that must not
// stall on disk (the scheduler's, in submit). A positive answer can go
// stale (the entry may be evicted before a subsequent read), so callers
// must treat it as a hint and re-read via lookup.
func (s *store) contains(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[key]; ok {
		return true
	}
	_, ok := s.dindex[key]
	return ok
}

// put stores the bytes in both tiers. Storing an existing key is a
// no-op per tier: the determinism contract guarantees the bytes would
// be identical anyway (two in-flight computations of one request
// produce the same value). The disk write — the expensive part:
// write + fsync + rename — runs outside the store lock so it never
// stalls concurrent memory-tier hits; concurrent writers of one key
// are safe (identical bytes, atomic rename, single accounting).
func (s *store) put(key string, val []byte) {
	size := int64(len(val))
	s.mu.Lock()
	s.putMemLocked(key, val)
	_, exists := s.dindex[key]
	needDisk := s.dir != "" && !exists && size <= s.diskMax
	s.mu.Unlock()
	if !needDisk {
		return
	}

	err := writeFileAtomic(s.dir, key, val)

	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.diskErrs++
		return
	}
	if _, ok := s.dindex[key]; ok {
		return // a concurrent put of the same key won the accounting
	}
	s.dindex[key] = s.dll.PushFront(&diskItem{key: key, size: size})
	s.diskBytes += size
	s.evictDiskLocked()
}

func (s *store) putMemLocked(key string, val []byte) {
	if _, ok := s.index[key]; ok {
		return
	}
	size := int64(len(val))
	if size > s.memMax {
		return // would evict the entire tier and still not fit
	}
	s.index[key] = s.ll.PushFront(&memItem{key: key, val: val})
	s.memBytes += size
	for s.memBytes > s.memMax {
		oldest := s.ll.Back()
		item := oldest.Value.(*memItem)
		s.ll.Remove(oldest)
		delete(s.index, item.key)
		s.memBytes -= int64(len(item.val))
	}
}

// writeFileAtomic persists one entry crash-safely: write a temp file in
// the same directory, fsync, then rename onto the final name. A reader
// never observes a partial entry; a crash leaves only a *.tmp that the
// next startup scan sweeps.
func writeFileAtomic(dir, name string, val []byte) error {
	f, err := os.CreateTemp(dir, name[:16]+"-*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(val); err == nil {
		err = f.Sync()
	} else {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if cerr := f.Close(); cerr != nil {
		os.Remove(tmp)
		return cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// evictDiskLocked unlinks least-recently-used entries until the tier
// fits its byte bound.
func (s *store) evictDiskLocked() {
	for s.diskBytes > s.diskMax {
		oldest := s.dll.Back()
		if oldest == nil {
			return
		}
		s.dropDiskLocked(oldest)
	}
}

func (s *store) dropDiskLocked(el *list.Element) {
	item := el.Value.(*diskItem)
	os.Remove(filepath.Join(s.dir, item.key))
	s.dll.Remove(el)
	delete(s.dindex, item.key)
	s.diskBytes -= item.size
}

// flush makes the disk tier fully durable for an orderly stop: every
// entry's contents are already fsynced at write time, so the only thing
// left to persist is the directory itself (the renames that made the
// entries visible). One directory fsync covers them all. No-op for a
// memory-only store; fsync failures count as disk errors, like any
// other disk-tier fault.
func (s *store) flush() {
	if s.dir == "" {
		return
	}
	d, err := os.Open(s.dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		s.mu.Lock()
		s.diskErrs++
		s.mu.Unlock()
	}
}

// stats returns one consistent snapshot of the counters and tier sizes.
func (s *store) stats() storeStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return storeStats{
		Hits: s.hits, DiskHits: s.diskHits, Misses: s.misses, DiskErrs: s.diskErrs,
		MemEntries: s.ll.Len(), MemBytes: s.memBytes,
		DiskEntries: s.dll.Len(), DiskBytes: s.diskBytes,
	}
}
