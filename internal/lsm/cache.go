package lsm

import (
	"sync"
	"sync/atomic"
)

// cacheKey identifies a block in the block cache: the owning table's cache id
// plus the block's file offset.
type cacheKey struct {
	id     uint64
	offset uint64
}

// cacheShard is one shard of the block cache: an lru of decoded blocks, each
// charged its length plus 64 bytes of overhead.
type cacheShard struct {
	mu    sync.Mutex
	lru   lru[cacheKey, []byte]
	stats *Statistics
	// byID indexes this shard's block offsets by owning table, so eraseID
	// (run on every table deletion) walks only the blocks the table owns
	// instead of scanning the whole shard — O(blocks owned), not O(entries).
	byID map[uint64]map[uint64]struct{}
}

func (s *cacheShard) init(capacity int64) {
	s.byID = make(map[uint64]map[uint64]struct{})
	s.lru.init(capacity, func(k cacheKey, _ []byte) {
		s.indexRemove(k)
		s.stats.Add(TickerBlockCacheEvict, 1)
	})
}

// indexAdd registers a block under its table id.
func (s *cacheShard) indexAdd(k cacheKey) {
	set := s.byID[k.id]
	if set == nil {
		set = make(map[uint64]struct{})
		s.byID[k.id] = set
	}
	set[k.offset] = struct{}{}
}

// indexRemove drops a block from the per-table index.
func (s *cacheShard) indexRemove(k cacheKey) {
	set := s.byID[k.id]
	delete(set, k.offset)
	if len(set) == 0 {
		delete(s.byID, k.id)
	}
}

func (s *cacheShard) lookup(k cacheKey) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.get(k)
}

func (s *cacheShard) insert(k cacheKey, v []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.indexAdd(k)
	s.lru.add(k, v, int64(len(v))+64)
	s.stats.Add(TickerBlockCacheAdd, 1)
}

func (s *cacheShard) eraseID(id uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for off := range s.byID[id] {
		s.lru.remove(cacheKey{id, off})
	}
	delete(s.byID, id)
}

const cacheShards = 16

// blockCache is a sharded, byte-budgeted LRU cache of decoded blocks — the
// engine's block_cache_size option. It is safe for concurrent use.
type blockCache struct {
	shards [cacheShards]cacheShard
	nextID atomic.Uint64

	hits, misses atomic.Int64
}

// newBlockCache builds a cache with the given total capacity in bytes.
func newBlockCache(capacity int64) *blockCache {
	c := &blockCache{}
	per := capacity / cacheShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i].init(per)
	}
	return c
}

// setStats routes insert/evict tickers to stats (nil disables them).
func (c *blockCache) setStats(stats *Statistics) {
	for i := range c.shards {
		c.shards[i].stats = stats
	}
}

// NewID allocates a table-unique namespace within the cache.
func (c *blockCache) NewID() uint64 { return c.nextID.Add(1) }

func (c *blockCache) shard(k cacheKey) *cacheShard {
	h := k.id*0x9e3779b97f4a7c15 ^ k.offset*0xbf58476d1ce4e5b9
	return &c.shards[h%cacheShards]
}

// Lookup fetches a cached block.
func (c *blockCache) Lookup(id, offset uint64) ([]byte, bool) {
	v, ok := c.shard(cacheKey{id, offset}).lookup(cacheKey{id, offset})
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// Insert caches a block, evicting LRU entries over capacity.
func (c *blockCache) Insert(id, offset uint64, value []byte) {
	c.shard(cacheKey{id, offset}).insert(cacheKey{id, offset}, value)
}

// EraseID drops every block belonging to a table (called on table deletion).
func (c *blockCache) EraseID(id uint64) {
	for i := range c.shards {
		c.shards[i].eraseID(id)
	}
}

// SetCapacity resizes the cache to a new total byte budget, evicting LRU
// entries in every shard that exceeds its share. Growing never evicts;
// shrinking evicts synchronously so the new budget holds on return. This is
// the live side of the block_cache option (SetOptions path).
func (c *blockCache) SetCapacity(capacity int64) {
	per := capacity / cacheShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.lru.resize(per)
		s.mu.Unlock()
	}
}

// Capacity returns the cache's total byte budget across shards.
func (c *blockCache) Capacity() int64 {
	var n int64
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += c.shards[i].lru.budget
		c.shards[i].mu.Unlock()
	}
	return n
}

// Used returns the cached byte total across shards.
func (c *blockCache) Used() int64 {
	var n int64
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += c.shards[i].lru.used
		c.shards[i].mu.Unlock()
	}
	return n
}

// HitRate returns hits, misses since construction.
func (c *blockCache) HitRate() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}
