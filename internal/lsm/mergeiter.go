package lsm

import (
	"bytes"
	"container/heap"
)

// internalIterator is the engine-internal iteration contract shared by
// memtable, table and merging iterators.
type internalIterator interface {
	Valid() bool
	SeekToFirst()
	Seek(key internalKey)
	Next()
	Key() internalKey
	Value() []byte
	Err() error
}

// Err implements internalIterator for skipIter (skiplists cannot fail).
func (it *skipIter) Err() error { return nil }

// levelIter concatenates the tables of one sorted, non-overlapping level.
type levelIter struct {
	files   []*FileMeta
	open    func(num uint64) (*tableReader, error)
	release func(*tableReader) // nil when the opener closes its readers
	hint    AccessHint
	idx     int
	r       *tableReader // the reader cur iterates
	cur     *tableIter
	err     error
}

// newLevelIter iterates a level's files in key order; open resolves file
// numbers to readers (table cache or direct), and release, when set, lets go
// of each reader once the iterator leaves its table or closes.
func newLevelIter(files []*FileMeta, hint AccessHint, open func(num uint64) (*tableReader, error), release func(*tableReader)) *levelIter {
	return &levelIter{files: files, open: open, release: release, hint: hint, idx: -1}
}

func (it *levelIter) openIndex(i int) {
	it.close()
	it.idx = i
	if i < 0 || i >= len(it.files) || it.err != nil {
		return
	}
	r, err := it.open(it.files[i].Number)
	if err != nil {
		it.err = err
		return
	}
	it.r, it.cur = r, r.iterator(it.hint)
}

// close releases the reader of the table the iterator is on, if any.
func (it *levelIter) close() {
	if it.r != nil && it.release != nil {
		it.release(it.r)
	}
	it.r, it.cur = nil, nil
}

// SeekToFirst implements internalIterator.
func (it *levelIter) SeekToFirst() {
	it.openIndex(0)
	if it.cur != nil {
		it.cur.SeekToFirst()
	}
	it.skipForward()
}

// Seek implements internalIterator.
func (it *levelIter) Seek(key internalKey) {
	// Find the first file whose largest >= key.
	lo, hi := 0, len(it.files)
	for lo < hi {
		mid := (lo + hi) / 2
		if compareInternal(it.files[mid].Largest, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	it.openIndex(lo)
	if it.cur != nil {
		it.cur.Seek(key)
	}
	it.skipForward()
}

// Next implements internalIterator.
func (it *levelIter) Next() {
	if it.cur == nil {
		return
	}
	it.cur.Next()
	it.skipForward()
}

// skipForward advances to the next non-empty table when the current one is
// exhausted.
func (it *levelIter) skipForward() {
	for it.err == nil && (it.cur == nil || !it.cur.Valid()) {
		if it.cur != nil && it.cur.Err() != nil {
			it.err = it.cur.Err()
			return
		}
		if it.idx+1 >= len(it.files) {
			it.close()
			return
		}
		it.openIndex(it.idx + 1)
		if it.cur != nil {
			it.cur.SeekToFirst()
		}
	}
}

// Valid implements internalIterator.
func (it *levelIter) Valid() bool { return it.err == nil && it.cur != nil && it.cur.Valid() }

// Key implements internalIterator.
func (it *levelIter) Key() internalKey { return it.cur.Key() }

// Value implements internalIterator.
func (it *levelIter) Value() []byte { return it.cur.Value() }

// Err implements internalIterator.
func (it *levelIter) Err() error { return it.err }

// boundedIter clips an internal iterator to user keys strictly below limit.
// Subcompaction slices use it so each slice's merge stream stops at the
// slice boundary without peeking into the neighbour's range; a nil limit is
// open-ended.
type boundedIter struct {
	inner internalIterator
	limit []byte // exclusive user-key upper bound; nil = unbounded
}

// inBounds reports whether the inner iterator's current key is below limit.
func (it *boundedIter) inBounds() bool {
	return it.limit == nil || bytes.Compare(it.inner.Key().userKey(), it.limit) < 0
}

// Valid implements internalIterator.
func (it *boundedIter) Valid() bool { return it.inner.Valid() && it.inBounds() }

// SeekToFirst implements internalIterator.
func (it *boundedIter) SeekToFirst() { it.inner.SeekToFirst() }

// Seek implements internalIterator.
func (it *boundedIter) Seek(key internalKey) { it.inner.Seek(key) }

// Next implements internalIterator.
func (it *boundedIter) Next() {
	if it.Valid() {
		it.inner.Next()
	}
}

// Key implements internalIterator.
func (it *boundedIter) Key() internalKey { return it.inner.Key() }

// Value implements internalIterator.
func (it *boundedIter) Value() []byte { return it.inner.Value() }

// Err implements internalIterator.
func (it *boundedIter) Err() error { return it.inner.Err() }

// mergeIter merges multiple internal iterators into one ordered stream.
// Ties (identical internal keys) cannot occur because sequence numbers are
// unique; ordering between children with equal user keys is decided by the
// internal-key comparator (newest first).
type mergeIter struct {
	children []internalIterator
	h        mergeHeap
	err      error
}

type mergeHeap []internalIterator

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	return compareInternal(h[i].Key(), h[j].Key()) < 0
}
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(internalIterator)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// newMergeIter merges the children (which need not be positioned yet).
func newMergeIter(children []internalIterator) *mergeIter {
	return &mergeIter{children: children}
}

func (it *mergeIter) rebuild() {
	it.h = it.h[:0]
	for _, c := range it.children {
		if err := c.Err(); err != nil && it.err == nil {
			it.err = err
		}
		if c.Valid() {
			it.h = append(it.h, c)
		}
	}
	heap.Init(&it.h)
}

// SeekToFirst implements internalIterator.
func (it *mergeIter) SeekToFirst() {
	for _, c := range it.children {
		c.SeekToFirst()
	}
	it.rebuild()
}

// Seek implements internalIterator.
func (it *mergeIter) Seek(key internalKey) {
	for _, c := range it.children {
		c.Seek(key)
	}
	it.rebuild()
}

// Next implements internalIterator.
func (it *mergeIter) Next() {
	if len(it.h) == 0 {
		return
	}
	top := it.h[0]
	top.Next()
	if err := top.Err(); err != nil && it.err == nil {
		it.err = err
	}
	if top.Valid() {
		heap.Fix(&it.h, 0)
	} else {
		heap.Pop(&it.h)
	}
}

// Valid implements internalIterator.
func (it *mergeIter) Valid() bool { return it.err == nil && len(it.h) > 0 }

// Key implements internalIterator.
func (it *mergeIter) Key() internalKey { return it.h[0].Key() }

// Value implements internalIterator.
func (it *mergeIter) Value() []byte { return it.h[0].Value() }

// Err implements internalIterator.
func (it *mergeIter) Err() error { return it.err }
