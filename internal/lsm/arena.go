package lsm

import "sync/atomic"

const (
	// arenaChunkSize is the byte chunk a memtable carves entries from.
	arenaChunkSize = 64 << 10
	// arenaLargeEntry is the largest entry carved from a chunk; a bigger one
	// gets its own allocation so it cannot strand most of a chunk (LevelDB's
	// rule: more than a quarter of a block is allocated separately).
	arenaLargeEntry = arenaChunkSize / 4
	// arenaNodeSlab and arenaTowerSlab are how many skipNodes and tower
	// slots one slab allocation holds.
	arenaNodeSlab  = 512
	arenaTowerSlab = 1024
)

// arena is a memtable's bump allocator in the style of RocksDB's Arena: the
// entries' key+value bytes, their skipNodes and their towers are carved from
// chunks and slabs, so a Put costs one allocation per few hundred entries
// instead of three. An arena outlives its memtable: once no reader can see
// the memtable any more, recycle hands its chunks and slabs to the family's
// next memtable (DESIGN §13), which takes them as it grows instead of
// allocating. An arena is not safe for concurrent use; the skiplist carves
// under its own lock.
type arena struct {
	buf   []byte
	nodes []skipNode
	tower []atomic.Pointer[skipNode]

	chunks     slabList[byte]
	nodeSlabs  slabList[skipNode]
	towerSlabs slabList[atomic.Pointer[skipNode]]
}

// slabList is an arena's chunks or slabs of one kind: list[:used] have been
// carved from, and list[used:] came from a recycled arena and wait their
// turn.
type slabList[T any] struct {
	list [][]T
	used int
}

// next returns the next slab to carve from: a recycled one, or a new one of
// size elements.
func (l *slabList[T]) next(size int) []T {
	if l.used == len(l.list) {
		l.list = append(l.list, make([]T, size))
	}
	s := l.list[l.used]
	l.used++
	return s
}

// handOn returns the slabs carved from, as a list for another arena.
// Recycled slabs this arena never needed go to the GC, so a recycled arena
// is never larger than the last memtable that used it.
func (l *slabList[T]) handOn() slabList[T] {
	clear(l.list[l.used:])
	return slabList[T]{list: l.list[:l.used]}
}

// bytes returns a slice of length and capacity n. A recycled chunk is not
// cleared: the caller overwrites all n bytes.
func (a *arena) bytes(n int) []byte {
	if n > arenaLargeEntry {
		return make([]byte, n)
	}
	if len(a.buf) < n {
		a.buf = a.chunks.next(arenaChunkSize) // the old chunk's tail is wasted
	}
	b := a.buf[:n:n]
	a.buf = a.buf[n:]
	return b
}

// node returns a zeroed skipNode with a tower of height h.
func (a *arena) node(h int) *skipNode {
	if len(a.nodes) == 0 {
		a.nodes = a.nodeSlabs.next(arenaNodeSlab)
	}
	n := &a.nodes[0]
	a.nodes = a.nodes[1:]
	if len(a.tower) < h {
		a.tower = a.towerSlabs.next(arenaTowerSlab)
	}
	n.next = a.tower[:h:h]
	a.tower = a.tower[h:]
	return n
}

// empty reports whether the arena holds no chunk or slab.
func (a *arena) empty() bool {
	return len(a.chunks.list)+len(a.nodeSlabs.list)+len(a.towerSlabs.list) == 0
}

// idle reports whether the arena holds recycled memory it has carved no
// node from: a spare.
func (a *arena) idle() bool { return !a.empty() && a.nodeSlabs.used == 0 }

// recycle empties the arena and returns its chunks and slabs as a fresh
// arena for the next memtable. Node and tower slabs come back zeroed, so
// they pin nothing; under -tags poison the chunks come back filled with
// 0xDB, so a reader that outlived the memtable reads garbage at once. The
// caller guarantees that no reader or writer can reach the memtable.
func (a *arena) recycle() arena {
	r := arena{chunks: a.chunks.handOn(), nodeSlabs: a.nodeSlabs.handOn(), towerSlabs: a.towerSlabs.handOn()}
	for _, s := range r.nodeSlabs.list {
		clear(s)
	}
	for _, s := range r.towerSlabs.list {
		clear(s)
	}
	if poisonBuffers {
		for _, c := range r.chunks.list {
			poison(c)
		}
	}
	*a = arena{}
	return r
}
