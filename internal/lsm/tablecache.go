package lsm

import "sync"

// tableCache keeps open tableReaders, bounded by max_open_files: an lru in
// which each open table charges 1. The cache holds one reference to each
// reader it keeps and get hands the caller another, so a reader that leaves
// the cache (evicted, or its file deleted) while a Get or an iterator reads
// it closes only when that reader lets go.
type tableCache struct {
	mu    sync.Mutex
	env   Env
	dir   string
	cache *blockCache
	stats *Statistics
	perf  *PerfContext    // foreground per-op attribution for opened readers
	ios   *IOStatsContext // the readers' file I/O attribution
	lru   lru[uint64, *tableReader]
}

// newTableCache builds a cache holding at most cap open tables (cap <= 0
// means effectively unlimited, RocksDB's max_open_files = -1).
func newTableCache(env Env, dir string, cache *blockCache, stats *Statistics, cap int) *tableCache {
	if cap <= 0 {
		cap = 1 << 30
	}
	tc := &tableCache{env: env, dir: dir, cache: cache, stats: stats}
	tc.lru.init(int64(cap), func(_ uint64, r *tableReader) { r.unref() })
	return tc
}

// get returns an open reader for a table file, opening it on miss. The
// caller holds a reference to it and must unref it when done reading.
func (tc *tableCache) get(num uint64) (*tableReader, error) {
	tc.mu.Lock()
	if r, ok := tc.lru.get(num); ok {
		r.refs.Add(1)
		tc.mu.Unlock()
		tc.stats.Add(TickerTableCacheHit, 1)
		return r, nil
	}
	tc.mu.Unlock()
	tc.stats.Add(TickerTableCacheMiss, 1)

	// Open outside the lock; a racing open of the same table is harmless
	// (one wins the map, the loser is closed).
	f, err := openFileReader(tc.env, tableFileName(tc.dir, num), IOForeground, nil, tc.ios)
	if err != nil {
		return nil, err
	}
	r, err := openTable(tc.env, f, num, tc.cache, tc.stats, tc.perf)
	if err != nil {
		return nil, err
	}
	tc.mu.Lock()
	if existing, ok := tc.lru.get(num); ok {
		existing.refs.Add(1)
		tc.mu.Unlock()
		r.close()
		return existing, nil
	}
	r.refs.Store(2) // the cache's and the caller's
	tc.lru.add(num, r, 1)
	tc.mu.Unlock()
	return r, nil
}

// release drops the reference get handed out with r.
func (tc *tableCache) release(r *tableReader) { r.unref() }

// evict forgets a table (called when its file is deleted), dropping the
// cache's reference to its reader.
func (tc *tableCache) evict(num uint64) {
	tc.mu.Lock()
	r, ok := tc.lru.remove(num)
	tc.mu.Unlock()
	if ok {
		r.unref()
	}
}

// close drops the cache's reference to every reader it keeps.
func (tc *tableCache) close() {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for num := range tc.lru.m {
		r, _ := tc.lru.remove(num)
		r.unref()
	}
}
