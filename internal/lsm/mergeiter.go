package lsm

import (
	"container/heap"
	"slices"
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

// bgOpener opens a flush or compaction's input tables directly, outside the
// table cache and with the background IO class, booking their reads into ios
// (nil: none) and scanning them through windows from the DB's buffer list;
// release closes the reader, which gives its window back.
type bgOpener struct {
	db  *DB
	ios *IOStatsContext
}

func (o *bgOpener) get(num uint64) (*tableReader, error) {
	db := o.db
	f, err := openFileReader(db.env, tableFileName(db.dir, num), IOBackground, &db.writeBufs, o.ios)
	if err != nil {
		return nil, err
	}
	return openTable(db.env, f, num, nil, db.options().Stats, nil)
}

func (*bgOpener) release(r *tableReader) { r.close() }

// mergeTree is one merge over memtables and sorted runs of tables, held by
// value with every child: scans (embedded in iterAlloc), flush and
// compaction all build it. Children are added, then linked once with
// build; release hands every reader back to its opener and clears every
// pointer the tree holds outside itself, keeping its buffers for reuse.
type mergeTree struct {
	merge  mergeIter
	mems   []skipIter  // in the order added
	levels []levelIter // one per sorted run
}

// addMemtable adds a memtable's skiplist as a child.
func (t *mergeTree) addMemtable(list *skiplist) {
	t.mems = append(t.mems, skipIter{list: list})
}

// addRuns adds the files of one level as sorted runs: L0 files overlap, so
// each is a run of one; a deeper level is one run. Every table opens from
// src on first positioning and goes back to it once its run moves past it.
// A slot past the slice's length keeps the buffers of the tree that used it.
func (t *mergeTree) addRuns(level int, files []*FileMeta, hint AccessHint, src tableOpener) {
	for len(files) > 0 {
		n := len(files)
		if level == 0 {
			n = 1
		}
		t.levels = slices.Grow(t.levels, 1)[:len(t.levels)+1]
		t.levels[len(t.levels)-1].init(files[:n], hint, src)
		files = files[n:]
	}
}

// build points the merge at every child added, memtables first, and
// returns it unpositioned. No child may be added after it: a growing slice
// would move children out from under the merge.
func (t *mergeTree) build() *mergeIter {
	children := t.merge.children[:0]
	for i := range t.mems {
		children = append(children, &t.mems[i])
	}
	for i := range t.levels {
		children = append(children, &t.levels[i])
	}
	t.merge.children = children
	return &t.merge
}

// release closes the level iterators, which hands their readers back, and
// empties the tree.
func (t *mergeTree) release() {
	for i := range t.levels {
		t.levels[i].close()
		t.levels[i].init(nil, 0, nil)
	}
	t.merge.release()
	clear(t.mems)
	t.mems, t.levels = t.mems[:0], t.levels[:0]
}

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
