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
// instead of three. Memory is released only with the memtable. An arena is
// not safe for concurrent use; the skiplist carves under its own lock.
type arena struct {
	buf   []byte
	nodes []skipNode
	tower []atomic.Pointer[skipNode]
}

// bytes returns a zeroed slice of length and capacity n.
func (a *arena) bytes(n int) []byte {
	if n > arenaLargeEntry {
		return make([]byte, n)
	}
	if len(a.buf) < n {
		a.buf = make([]byte, arenaChunkSize) // the old chunk's tail is wasted
	}
	b := a.buf[:n:n]
	a.buf = a.buf[n:]
	return b
}

// node returns a zeroed skipNode with a tower of height h.
func (a *arena) node(h int) *skipNode {
	if len(a.nodes) == 0 {
		a.nodes = make([]skipNode, arenaNodeSlab)
	}
	n := &a.nodes[0]
	a.nodes = a.nodes[1:]
	if len(a.tower) < h {
		a.tower = make([]atomic.Pointer[skipNode], arenaTowerSlab)
	}
	n.next = a.tower[:h:h]
	a.tower = a.tower[h:]
	return n
}
