package lsm

import "sync"

// tableCache keeps open tableReaders, bounded by max_open_files: an lru in
// which each open table charges 1. Eviction closes the reader.
type tableCache struct {
	mu    sync.Mutex
	env   Env
	dir   string
	cache *blockCache
	stats *Statistics
	perf  *PerfContext    // foreground per-op attribution for opened readers
	ios   *IOStatsContext // env-level read attribution
	lru   lru[uint64, *tableReader]
}

// newTableCache builds a cache holding at most cap open tables (cap <= 0
// means effectively unlimited, RocksDB's max_open_files = -1).
func newTableCache(env Env, dir string, cache *blockCache, stats *Statistics, cap int) *tableCache {
	if cap <= 0 {
		cap = 1 << 30
	}
	tc := &tableCache{env: env, dir: dir, cache: cache, stats: stats}
	tc.lru.init(int64(cap), func(_ uint64, r *tableReader) { r.close() })
	return tc
}

// get returns an open reader for a table file, opening it on miss.
func (tc *tableCache) get(num uint64) (*tableReader, error) {
	tc.mu.Lock()
	if r, ok := tc.lru.get(num); ok {
		tc.mu.Unlock()
		tc.stats.Add(TickerTableCacheHit, 1)
		return r, nil
	}
	tc.mu.Unlock()
	tc.stats.Add(TickerTableCacheMiss, 1)

	// Open outside the lock; a racing open of the same table is harmless
	// (one wins the map, the loser is closed).
	r, err := openTable(tc.env, tableFileName(tc.dir, num), num, tc.cache, tc.stats, IOForeground, tc.perf, tc.ios)
	if err != nil {
		return nil, err
	}
	tc.mu.Lock()
	if existing, ok := tc.lru.get(num); ok {
		tc.mu.Unlock()
		r.close()
		return existing, nil
	}
	tc.lru.add(num, r, 1)
	tc.mu.Unlock()
	return r, nil
}

// evict closes and forgets a table (called when its file is deleted).
func (tc *tableCache) evict(num uint64) {
	tc.mu.Lock()
	r, ok := tc.lru.remove(num)
	tc.mu.Unlock()
	if ok {
		r.close()
	}
}

// close releases every open reader.
func (tc *tableCache) close() {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for num := range tc.lru.m {
		r, _ := tc.lru.remove(num)
		r.close()
	}
}
