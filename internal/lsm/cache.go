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

// cacheHandle is one cached block and the lease on it. The cache owns the
// buffer and lends it: it holds one reference while the block is cached,
// and Lookup and Insert add one for their caller, who must release it once
// done reading b. When the last reference goes, the handle becomes a spare
// of its shard, and a later miss decodes into b, so a full cache reads
// without allocating. A caller that forgets to release only costs that
// reuse; releasing twice hands a live block to a miss.
type cacheHandle struct {
	e    lruEntry[cacheKey, *cacheHandle] // the shard's list entry; e.value is the handle
	b    []byte
	refs atomic.Int32
	s    *cacheShard
	// prev and next chain one table's cached blocks while the block is
	// cached (cacheShard.byID), and next links the shard's spares while it
	// is a spare.
	prev, next *cacheHandle
}

// release drops the caller's reference; nil (a block read without a cache)
// is a no-op.
func (h *cacheHandle) release() {
	if h == nil || h.refs.Add(-1) != 0 {
		return
	}
	h.s.mu.Lock()
	h.s.addSpareLocked(h)
	h.s.mu.Unlock()
}

// spareFloor is the number of spares a shard keeps whatever its budget says:
// enough that a full cache, which has no room for spares, still keeps the
// victim of one insert for the next miss.
const spareFloor = 4

// cacheShard is one shard of the block cache: an lru of cached blocks, each
// charged its length plus 64 bytes of overhead, and the spare buffers of
// blocks that left it. Spares are charged the same way and kept while their
// charges fit in what the budget leaves unused, or while there are fewer
// than spareFloor of them, so live plus spare charges stay within the budget
// plus spareFloor blocks.
type cacheShard struct {
	mu    sync.Mutex
	lru   lru[cacheKey, *cacheHandle]
	stats *Statistics
	// byID heads the chain of each table's cached blocks in this shard, so
	// eraseID (run on every table deletion) walks only the blocks the table
	// owns instead of scanning the whole shard.
	byID map[uint64]*cacheHandle

	spares     *cacheHandle // linked through next, most recently freed first
	nspares    int
	spareBytes int64
}

func (s *cacheShard) init(capacity int64) {
	s.byID = make(map[uint64]*cacheHandle)
	s.lru.init(capacity, func(_ cacheKey, h *cacheHandle) {
		s.unchainLocked(h)
		s.unrefLocked(h)
		s.stats.Add(TickerBlockCacheEvict, 1)
	})
}

// chainLocked adds a block to its table's chain.
func (s *cacheShard) chainLocked(h *cacheHandle) {
	id := h.e.key.id
	h.prev, h.next = nil, s.byID[id]
	if h.next != nil {
		h.next.prev = h
	}
	s.byID[id] = h
}

// unchainLocked drops a block from its table's chain.
func (s *cacheShard) unchainLocked(h *cacheHandle) {
	switch {
	case h.prev != nil:
		h.prev.next = h.next
	case h.next != nil:
		s.byID[h.e.key.id] = h.next
	default:
		delete(s.byID, h.e.key.id)
	}
	if h.next != nil {
		h.next.prev = h.prev
	}
	h.prev, h.next = nil, nil
}

// unrefLocked drops the cache's reference to a block that just left the
// list.
func (s *cacheShard) unrefLocked(h *cacheHandle) {
	if h.refs.Add(-1) == 0 {
		s.addSpareLocked(h)
	}
}

// addSpareLocked keeps an unreferenced handle for a later miss, within the
// spare bound.
func (s *cacheShard) addSpareLocked(h *cacheHandle) {
	if poisonBuffers {
		poison(h.b[:cap(h.b)])
	}
	h.next = s.spares
	s.spares = h
	s.nspares++
	s.spareBytes += h.e.charge
	s.trimSparesLocked()
}

// poison fills b with 0xDB (see poisonBuffers).
func poison(b []byte) {
	for i := range b {
		b[i] = 0xDB
	}
}

// trimSparesLocked drops the newest spares until the spare bound holds.
func (s *cacheShard) trimSparesLocked() {
	for s.nspares > spareFloor && s.spareBytes > s.lru.budget-s.lru.used {
		h := s.spares
		s.spares, h.next = h.next, nil
		s.nspares--
		s.spareBytes -= h.e.charge
	}
}

// takeSpare hands out a spare whose buffer holds n bytes, or nil.
func (s *cacheShard) takeSpare(n int) *cacheHandle {
	s.mu.Lock()
	defer s.mu.Unlock()
	for p := &s.spares; *p != nil; p = &(*p).next {
		if h := *p; cap(h.b) >= n {
			*p, h.next = h.next, nil
			s.nspares--
			s.spareBytes -= h.e.charge
			return h
		}
	}
	return nil
}

// putSpare gives back a spare taken for a read that failed.
func (s *cacheShard) putSpare(h *cacheHandle) {
	if h == nil {
		return
	}
	s.mu.Lock()
	s.addSpareLocked(h)
	s.mu.Unlock()
}

func (s *cacheShard) lookup(k cacheKey) *cacheHandle {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.lru.get(k)
	if !ok {
		return nil
	}
	h.refs.Add(1)
	return h
}

// insert caches h under k with the cache's reference and its caller's; a
// block already cached under k is replaced, which drops the cache's
// reference to it.
func (s *cacheShard) insert(k cacheKey, h *cacheHandle) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.lru.remove(k); ok {
		s.unchainLocked(old)
		s.unrefLocked(old)
	}
	h.refs.Store(2)
	h.e = lruEntry[cacheKey, *cacheHandle]{key: k, value: h, charge: int64(len(h.b)) + 64}
	s.chainLocked(h)
	s.lru.link(&h.e)
	s.stats.Add(TickerBlockCacheAdd, 1)
	s.trimSparesLocked()
}

func (s *cacheShard) eraseID(id uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for h := s.byID[id]; h != nil; {
		next := h.next
		h.prev, h.next = nil, nil
		s.lru.remove(h.e.key)
		s.unrefLocked(h)
		h = next
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

func (c *blockCache) shard(id, offset uint64) *cacheShard {
	h := id*0x9e3779b97f4a7c15 ^ offset*0xbf58476d1ce4e5b9
	return &c.shards[h%cacheShards]
}

// Lookup fetches a cached block, or nil. The caller must release the handle.
func (c *blockCache) Lookup(id, offset uint64) *cacheHandle {
	h := c.shard(id, offset).lookup(cacheKey{id, offset})
	if h != nil {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return h
}

// Insert caches b, evicting LRU entries over capacity, and returns its
// handle for the caller to release. h is a spare of the block's shard that
// b was decoded into, or nil when the miss found none.
func (c *blockCache) Insert(id, offset uint64, h *cacheHandle, b []byte) *cacheHandle {
	s := c.shard(id, offset)
	if h == nil {
		h = &cacheHandle{s: s}
	}
	h.b = b
	s.insert(cacheKey{id, offset}, h)
	return h
}

// EraseID drops every block belonging to a table (called on table deletion).
func (c *blockCache) EraseID(id uint64) {
	for i := range c.shards {
		c.shards[i].eraseID(id)
	}
}

// SetCapacity resizes the cache to a new total byte budget, evicting LRU
// entries and dropping spares in every shard that exceeds its share. Growing
// never evicts; shrinking evicts synchronously so the new budget holds on
// return. This is the live side of the block_cache option (SetOptions path).
func (c *blockCache) SetCapacity(capacity int64) {
	per := capacity / cacheShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.lru.resize(per)
		s.trimSparesLocked()
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
