package lsm

import (
	"bytes"
	"sync"
	"sync/atomic"
)

// memtable is the in-memory write buffer: a skiplist of internal keys plus
// accounting used by the flush triggers (write_buffer_size et al). add may be
// called concurrently by write-group members; sequence bounds are atomics and
// the skiplist insert path is lock-free.
type memtable struct {
	list     *skiplist
	firstSeq atomic.Uint64 // smallest sequence number added (0 if empty)
	lastSeq  atomic.Uint64 // largest sequence number added
	logNum   uint64        // WAL file backing this memtable

	// writers counts in-flight write groups still inserting into this
	// memtable. A pipelined leader may switch to a fresh memtable while a
	// prior group's inserts land here; flush waits for them to drain.
	// Add happens under db.mu while the memtable is still db.mem, so no new
	// writers can arrive once it is frozen and the wait is race-free.
	writers sync.WaitGroup
}

func newMemtable(seed int64, logNum uint64) *memtable {
	return &memtable{list: newSkiplist(seed), logNum: logNum}
}

// add inserts an entry, copying key and value into the skiplist's arena.
func (m *memtable) add(seq uint64, kind ValueKind, key, value []byte) {
	n := m.list.newNode(len(key)+8, len(value))
	makeInternalKey(n.key[:0], key, seq, kind)
	copy(n.val, value)
	m.list.insert(n)
	for {
		cur := m.firstSeq.Load()
		if (cur != 0 && seq >= cur) || m.firstSeq.CompareAndSwap(cur, seq) {
			break
		}
	}
	for {
		cur := m.lastSeq.Load()
		if seq <= cur || m.lastSeq.CompareAndSwap(cur, seq) {
			break
		}
	}
}

// get looks up the user key of lookup at lookup's snapshot sequence (the
// caller builds the lookup key once per read and probes every memtable and
// table with it). It returns:
//   - value, true, false: found a live value
//   - nil, true, true: found a tombstone (key deleted)
//   - nil, false, false: key not in this memtable
func (m *memtable) get(lookup internalKey) (value []byte, found, deleted bool) {
	n := m.list.seek(lookup)
	if n == nil {
		return nil, false, false
	}
	ik := n.key
	if !bytes.Equal(ik.userKey(), lookup.userKey()) {
		return nil, false, false
	}
	if ik.kind() == KindDelete {
		return nil, true, true
	}
	return n.val, true, false
}

// approximateBytes reports memory usage for flush triggering.
func (m *memtable) approximateBytes() int64 { return m.list.approximateBytes() }

// empty reports whether nothing has been inserted.
func (m *memtable) empty() bool { return m.list.count() == 0 }

// count returns the number of entries.
func (m *memtable) count() int { return m.list.count() }

// iterator returns an iterator over internal keys in sorted order.
func (m *memtable) iterator() *skipIter { return m.list.iterator() }
