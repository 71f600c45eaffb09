package lsm

import (
	"math/rand"
	"sync"
	"sync/atomic"
)

const (
	skiplistMaxHeight = 12
	skiplistBranching = 4
)

// skipNode is one tower of the skiplist. key is an internal key; val is the
// stored value (nil for tombstones, distinguished by key kind). Forward
// pointers are atomic so concurrent inserts (write-group followers) and
// readers need no lock. The node, its tower and its key+value bytes are
// carved from the list's arena.
type skipNode struct {
	key  internalKey
	val  []byte
	next []atomic.Pointer[skipNode]
}

// skiplist is an ordered map from internal keys to values, insert-only and
// lock-free in the style of RocksDB's InlineSkipList: writers splice nodes in
// with per-level CAS (retrying from a recomputed predecessor on contention),
// readers follow atomic forward pointers. Nodes are never removed or resized
// after publication, so there is no ABA hazard and iterators may hold node
// pointers indefinitely.
type skiplist struct {
	head   *skipNode
	height atomic.Int32

	mu    sync.Mutex // guards rnd and arena
	rnd   *rand.Rand
	arena arena

	n     atomic.Int64
	bytes atomic.Int64
}

// newSkiplist returns an empty list seeded deterministically.
func newSkiplist(seed int64) *skiplist {
	s := &skiplist{
		head: &skipNode{next: make([]atomic.Pointer[skipNode], skiplistMaxHeight)},
		rnd:  rand.New(rand.NewSource(seed)),
	}
	s.height.Store(1)
	return s
}

// newNode draws a tower height and carves, under one lock, a node with that
// tower and room for a keyLen-byte key and a valLen-byte value from the
// arena. The caller fills n.key and n.val (nil when valLen is 0), then links
// the node with insert. The rng is shared across concurrent inserters; in
// simulation the write path is serialized, so the draw sequence (and
// therefore the list shape) stays deterministic.
func (s *skiplist) newNode(keyLen, valLen int) *skipNode {
	s.mu.Lock()
	h := 1
	for h < skiplistMaxHeight && s.rnd.Intn(skiplistBranching) == 0 {
		h++
	}
	n := s.arena.node(h)
	e := s.arena.bytes(keyLen + valLen)
	s.mu.Unlock()
	n.key = e[:keyLen:keyLen]
	if valLen > 0 {
		n.val = e[keyLen:]
	}
	return n
}

// findSpliceForLevel walks level from start and returns the insertion point
// for key: the last node with key < k and its successor.
func (s *skiplist) findSpliceForLevel(k internalKey, start *skipNode, level int) (prev, next *skipNode) {
	prev = start
	for {
		next = prev.next[level].Load()
		if next == nil || compareInternal(next.key, k) >= 0 {
			return prev, next
		}
		prev = next
	}
}

// insert links a node from newNode. Keys are unique by construction (each
// write gets a fresh sequence number), so duplicates are a programming error.
// Safe for concurrent use with other inserts and with readers.
func (s *skiplist) insert(n *skipNode) {
	key, h := n.key, len(n.next)
	for {
		listHeight := s.height.Load()
		if int(listHeight) >= h || s.height.CompareAndSwap(listHeight, int32(h)) {
			break
		}
	}

	// Compute the splice top-down from the list's full height (descending
	// through the upper levels is what keeps the walk logarithmic), then
	// link the node's levels bottom-up with CAS; a failed CAS means a
	// concurrent insert landed in our window, so recompute the splice at
	// that level from the last known predecessor.
	lh := int(s.height.Load())
	var prev, next [skiplistMaxHeight + 1]*skipNode
	prev[lh] = s.head
	for i := lh - 1; i >= 0; i-- {
		prev[i], next[i] = s.findSpliceForLevel(key, prev[i+1], i)
		if next[i] != nil && compareInternal(next[i].key, key) == 0 {
			panic("lsm: duplicate internal key inserted into skiplist")
		}
	}
	for i := 0; i < h; i++ {
		for {
			n.next[i].Store(next[i])
			if prev[i].next[i].CompareAndSwap(next[i], n) {
				break
			}
			prev[i], next[i] = s.findSpliceForLevel(key, prev[i], i)
			if next[i] != nil && compareInternal(next[i].key, key) == 0 {
				panic("lsm: duplicate internal key inserted into skiplist")
			}
		}
	}
	s.n.Add(1)
	s.bytes.Add(int64(len(key)) + int64(len(n.val)) + 48) // node overhead estimate
}

// findGreaterOrEqual returns the first node with key >= k.
func (s *skiplist) findGreaterOrEqual(k internalKey) *skipNode {
	x := s.head
	level := int(s.height.Load()) - 1
	for {
		next := x.next[level].Load()
		if next != nil && compareInternal(next.key, k) < 0 {
			x = next
			continue
		}
		if level == 0 {
			return next
		}
		level--
	}
}

// seek returns the first node with key >= k.
func (s *skiplist) seek(k internalKey) *skipNode { return s.findGreaterOrEqual(k) }

// first returns the smallest node, or nil when empty.
func (s *skiplist) first() *skipNode { return s.head.next[0].Load() }

// count returns the number of entries.
func (s *skiplist) count() int { return int(s.n.Load()) }

// approximateBytes returns the approximate memory footprint.
func (s *skiplist) approximateBytes() int64 { return s.bytes.Load() }

// skipIter iterates the list in internal-key order. The list is append-only,
// so holding node pointers across other operations is safe.
type skipIter struct {
	list *skiplist
	node *skipNode
}

// Valid reports whether the iterator is positioned on an entry.
func (it *skipIter) Valid() bool { return it.node != nil }

// SeekToFirst positions at the smallest entry.
func (it *skipIter) SeekToFirst() { it.node = it.list.first() }

// Seek positions at the first entry with key >= k.
func (it *skipIter) Seek(k internalKey) { it.node = it.list.seek(k) }

// Next advances the iterator.
func (it *skipIter) Next() { it.node = it.node.next[0].Load() }

// Key returns the current internal key.
func (it *skipIter) Key() internalKey { return it.node.key }

// Value returns the current value.
func (it *skipIter) Value() []byte { return it.node.val }
