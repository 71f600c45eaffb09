package lsm

// lru is the engine's one recency list: a map from key to entry, an
// intrusive doubly linked list ordered most recent first, and a charge
// budget. The block cache (block_cache_size), the table cache
// (max_open_files) and SimEnv's page-cache model are each built on it.
//
// Eviction rule: after an add, entries leave from the tail until the charged
// total fits the budget, but the entry just added is never evicted (an entry
// larger than the whole budget would otherwise thrash forever; it goes on the
// next add). A resize evicts down to the new budget with no entry protected,
// so it may empty the cache. onEvict, when set, sees every entry add or
// resize evicts; remove does not call it.
//
// lru has no lock: each owner serializes access under the lock it already
// holds.
type lru[K comparable, V any] struct {
	m       map[K]*lruEntry[K, V]
	root    lruEntry[K, V] // sentinel: root.next is the most recent entry, root.prev the oldest
	used    int64
	budget  int64
	onEvict func(K, V)
}

type lruEntry[K comparable, V any] struct {
	key        K
	value      V
	charge     int64
	prev, next *lruEntry[K, V]
}

// init readies a zero lru in place; its owner embeds it by value and must
// not copy it afterwards (the list points at root).
func (c *lru[K, V]) init(budget int64, onEvict func(K, V)) {
	c.m = make(map[K]*lruEntry[K, V])
	c.root.prev, c.root.next = &c.root, &c.root
	c.budget = budget
	c.onEvict = onEvict
}

func (c *lru[K, V]) unlink(e *lruEntry[K, V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (c *lru[K, V]) pushFront(e *lruEntry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	c.root.next.prev = e
	c.root.next = e
}

// get returns the value cached under k and makes it the most recent entry.
func (c *lru[K, V]) get(k K) (V, bool) {
	e, ok := c.m[k]
	if !ok {
		var zero V
		return zero, false
	}
	if e != c.root.next {
		c.unlink(e)
		c.pushFront(e)
	}
	return e.value, true
}

// add caches v under k with the given charge (replacing any entry k already
// has, which keeps its map slot but takes the new value, charge and the
// front of the list), then evicts to the budget by the eviction rule.
func (c *lru[K, V]) add(k K, v V, charge int64) {
	e, ok := c.m[k]
	if ok {
		c.used += charge - e.charge
		e.value, e.charge = v, charge
		c.unlink(e)
	} else {
		e = &lruEntry[K, V]{key: k, value: v, charge: charge}
		c.m[k] = e
		c.used += charge
	}
	c.pushFront(e)
	c.evict(e)
}

// remove drops k without calling onEvict and returns what it held.
func (c *lru[K, V]) remove(k K) (V, bool) {
	e, ok := c.m[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.drop(e)
	return e.value, true
}

// resize sets a new budget and evicts down to it; nothing is protected, so
// a budget below the smallest entry empties the cache.
func (c *lru[K, V]) resize(budget int64) {
	c.budget = budget
	c.evict(nil)
}

// evict removes tail entries, oldest first, while the charged total exceeds
// the budget, stopping at keep.
func (c *lru[K, V]) evict(keep *lruEntry[K, V]) {
	for c.used > c.budget && c.root.prev != &c.root && c.root.prev != keep {
		victim := c.root.prev
		c.drop(victim)
		if c.onEvict != nil {
			c.onEvict(victim.key, victim.value)
		}
	}
}

func (c *lru[K, V]) drop(e *lruEntry[K, V]) {
	c.unlink(e)
	delete(c.m, e.key)
	c.used -= e.charge
}
