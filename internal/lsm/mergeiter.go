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

// tableOpener resolves a level's file numbers to readers and takes each
// reader back when a level iterator leaves its table or closes.
type tableOpener interface {
	get(num uint64) (*tableReader, error)
	release(r *tableReader)
}

// openFunc is a tableOpener whose readers the opener closes itself, so
// release does nothing (compaction's input readers).
type openFunc func(num uint64) (*tableReader, error)

func (f openFunc) get(num uint64) (*tableReader, error) { return f(num) }
func (openFunc) release(*tableReader)                   {}

// levelIter concatenates the tables of one sorted, non-overlapping level.
// Its tableIter is held by value and re-initialized per table, so the block
// iterators' key buffers keep their capacity across files.
type levelIter struct {
	files []*FileMeta
	src   tableOpener
	hint  AccessHint
	idx   int
	r     *tableReader // the reader ti iterates; nil when on no table
	ti    tableIter
	err   error
}

// newLevelIter iterates a level's files in key order; src resolves file
// numbers to readers (table cache or direct) and takes back each reader once
// the iterator leaves its table or closes.
func newLevelIter(files []*FileMeta, hint AccessHint, src tableOpener) *levelIter {
	it := &levelIter{}
	it.init(files, hint, src)
	return it
}

// init points the iterator at a level's files, unpositioned.
func (it *levelIter) init(files []*FileMeta, hint AccessHint, src tableOpener) {
	it.files, it.src, it.hint = files, src, hint
	it.idx, it.r, it.err = -1, nil, nil
}

func (it *levelIter) openIndex(i int) {
	it.close()
	it.idx = i
	if i < 0 || i >= len(it.files) || it.err != nil {
		return
	}
	r, err := it.src.get(it.files[i].Number)
	if err != nil {
		it.err = err
		return
	}
	it.r = r
	it.ti.init(r, it.hint)
}

// close releases the reader of the table the iterator is on, if any, and
// drops the table iterator's references into it.
func (it *levelIter) close() {
	if it.r != nil {
		it.src.release(it.r)
		it.r = nil
		it.ti.release()
	}
}

// SeekToFirst implements internalIterator.
func (it *levelIter) SeekToFirst() {
	it.openIndex(0)
	if it.r != nil {
		it.ti.SeekToFirst()
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
	if it.r != nil {
		it.ti.Seek(key)
	}
	it.skipForward()
}

// Next implements internalIterator.
func (it *levelIter) Next() {
	if it.r == nil {
		return
	}
	it.ti.Next()
	it.skipForward()
}

// skipForward advances to the next non-empty table when the current one is
// exhausted.
func (it *levelIter) skipForward() {
	for it.err == nil && (it.r == nil || !it.ti.Valid()) {
		if it.r != nil && it.ti.Err() != nil {
			it.err = it.ti.Err()
			return
		}
		if it.idx+1 >= len(it.files) {
			it.close()
			return
		}
		it.openIndex(it.idx + 1)
		if it.r != nil {
			it.ti.SeekToFirst()
		}
	}
}

// Valid implements internalIterator.
func (it *levelIter) Valid() bool { return it.err == nil && it.r != nil && it.ti.Valid() }

// Key implements internalIterator.
func (it *levelIter) Key() internalKey { return it.ti.Key() }

// Value implements internalIterator.
func (it *levelIter) Value() []byte { return it.ti.Value() }

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

// release empties the child and heap slices, keeping their capacity, so a
// pooled mergeIter points at no iterator.
func (it *mergeIter) release() {
	clear(it.children)
	clear(it.h[:cap(it.h)]) // Pop leaves its victims past len
	it.children, it.h, it.err = it.children[:0], it.h[:0], nil
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
