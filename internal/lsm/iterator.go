package lsm

import (
	"bytes"
	"sync"
	"time"
)

// Iterator walks user keys in ascending order, exposing the newest visible
// version of each and hiding tombstones. Forward-only (Prev is not
// implemented; the paper's workloads never reverse-scan).
//
// Key and Value are valid until the next Seek, SeekToFirst, Next or Close;
// copy them to keep them longer. An Iterator must be closed: Close releases
// the table readers and the version it holds and recycles its iterator tree
// for a later scan. A closed Iterator is never Valid, its moves do nothing,
// Err keeps reporting what Close returned, and closing it again is harmless.
// An Iterator is not safe for concurrent use.
type Iterator struct {
	a   *iterAlloc // the scan's iterator tree; nil once closed
	err error      // the failed capture, or the error Close returned
}

// iterAlloc is one scan's whole iterator tree in a single allocation, reused
// across scans through iterAllocPool in the style of Pebble's iterAlloc: the
// mergeTree (the merge iterator with its child and heap slices, a skipIter
// per memtable, a levelIter — its tableIter and block iterators held by
// value — per L0 file and non-empty level) and the key, value, skip and
// seek-key buffers. The Iterator handle owns it from NewIteratorCF to Close;
// release clears every pointer it holds into blocks, readers, versions and
// memtables, so a pooled iterAlloc pins nothing but its own buffers.
type iterAlloc struct {
	db  *DB
	cf  *columnFamily
	seq uint64

	// v is the referenced version this iterator scans; the reference keeps
	// its tables on disk while a compaction (possibly triggered by a live
	// SetOptions change) retires the version mid-scan. Released by Close.
	v *Version

	// mergeTree holds the memtable, then the frozen memtables newest
	// first, then one run per L0 file and one per non-empty level.
	mergeTree
	imms []*memtable // the capture's frozen memtables, cleared once built

	key     []byte
	value   []byte
	skip    []byte      // reusable skip-key buffer for Next (see findNextVisible)
	seekKey internalKey // Seek's target as an internal key
	valid   bool
}

var iterAllocPool = sync.Pool{New: func() any { return new(iterAlloc) }}

// NewIterator returns a point-in-time iterator over the default family.
func (db *DB) NewIterator(ro *ReadOptions) *Iterator {
	return db.NewIteratorCF(ro, nil)
}

// NewIteratorCF returns a point-in-time iterator over one column family,
// built from the same capture as a Get (captureReadState). If the capture
// fails — the DB is closed or the family dropped — the iterator is never
// valid and Err returns ErrClosed or ErrColumnFamilyNotFound.
func (db *DB) NewIteratorCF(ro *ReadOptions, h *ColumnFamilyHandle) *Iterator {
	if ro == nil {
		ro = defaultReadOptions
	}
	a := iterAllocPool.Get().(*iterAlloc)
	a.db = db
	st, err := db.captureReadState(h, ro, a.imms)
	if err != nil {
		return &Iterator{a: a, err: err}
	}
	a.seq, a.cf, a.v, a.imms = st.seq, st.cf, st.v, st.imms
	a.addMemtable(st.mem.list)
	for i := len(st.imms) - 1; i >= 0; i-- {
		a.addMemtable(st.imms[i].list)
	}
	clear(a.imms)
	// Every table opens on first positioning. Each run holds a table-cache
	// reference to the reader it is on until it moves off that table or the
	// iterator closes. The capture's version reference keeps the tables on
	// disk until Close: they open lazily, so a compaction installing before
	// the first Seek could otherwise delete them out from under the scan.
	for level := 0; level < st.v.NumLevels(); level++ {
		a.addRuns(level, st.v.LevelFiles(level), HintRandom, db.tcache)
	}
	a.build()
	return &Iterator{a: a}
}

// release closes the tree's level iterators, which hands their table
// readers back, drops the version reference, and clears every pointer the
// tree holds outside itself.
func (a *iterAlloc) release() {
	a.mergeTree.release()
	if a.v != nil {
		a.v.refs.Add(-1)
	}
	a.db, a.cf, a.v = nil, nil, nil
	a.key, a.value, a.skip = a.key[:0], a.value[:0], a.skip[:0]
	a.valid = false
}

// findNextVisible advances the underlying merge iterator to the next user
// key whose newest visible version is a live value. skip is scratch owned by
// the caller (a.skip or nil); its contents are overwritten freely.
func (a *iterAlloc) findNextVisible(skip []byte) {
	a.valid = false
	for a.merge.Valid() {
		ik := a.merge.Key()
		uk := ik.userKey()
		switch {
		case ik.seq() > a.seq:
			// Written after our snapshot: invisible.
		case skip != nil && bytes.Equal(uk, skip):
			// Older version (or any version) of a key already emitted or
			// deleted.
		case ik.kind() == KindDelete:
			skip = append(skip[:0], uk...)
		default:
			a.key = append(a.key[:0], uk...)
			a.value = append(a.value[:0], a.merge.Value()...)
			a.valid = true
			// Remember the key so Next skips its older versions.
			return
		}
		a.merge.Next()
	}
}

// bookSeek records one positioning operation in the ticker, per-CF traffic
// and PerfContext seek counters.
func (a *iterAlloc) bookSeek() {
	a.db.stats.Add(TickerSeekCount, 1)
	if a.cf != nil {
		a.cf.scanOps.Add(1)
	}
	a.db.perf.Add(PerfSeekOnMemtableCount, int64(len(a.mems)))
	a.db.perf.Add(PerfSeekChildSeekCount, int64(len(a.merge.children)))
}

// seek positions at the first visible key >= target, or at the first
// visible key when target is nil.
func (a *iterAlloc) seek(target []byte, first bool) {
	defer a.db.recordSince(HistSeekMicros, a.db.rt.stopwatch())
	a.db.env.ChargeCPU(simPrices.iterSeek.d)
	a.bookSeek()
	timed := a.db.perf.TimeEnabled()
	var start time.Time
	if timed {
		start = time.Now()
	}
	if first {
		a.merge.SeekToFirst()
	} else {
		a.seekKey = makeInternalKey(a.seekKey[:0], target, a.seq, KindValue)
		a.merge.Seek(a.seekKey)
	}
	a.findNextVisible(nil)
	if timed {
		a.db.perf.AddTime(PerfSeekInternalSeekTime, time.Since(start))
	}
}

// SeekToFirst positions at the first visible key.
func (it *Iterator) SeekToFirst() {
	if it.a != nil {
		it.a.seek(nil, true)
	}
}

// Seek positions at the first visible key >= target.
func (it *Iterator) Seek(target []byte) {
	if it.a != nil {
		it.a.seek(target, false)
	}
}

// Next advances to the next visible key.
func (it *Iterator) Next() {
	a := it.a
	if a == nil || !a.valid {
		return
	}
	defer a.db.recordSince(HistNextMicros, a.db.rt.stopwatch())
	a.db.env.ChargeCPU(simPrices.iterNext.d)
	a.db.stats.Add(TickerNextCount, 1)
	a.skip = append(a.skip[:0], a.key...)
	a.merge.Next()
	if len(a.skip) == 0 {
		// Preserve nil-skip semantics for an empty current key.
		a.findNextVisible(nil)
	} else {
		a.findNextVisible(a.skip)
	}
}

// Valid reports whether the iterator is positioned on a key.
func (it *Iterator) Valid() bool { return it.a != nil && it.a.valid }

// Key returns the current user key (valid until the next move or Close).
func (it *Iterator) Key() []byte {
	if it.a == nil {
		return nil
	}
	return it.a.key
}

// Value returns the current value (valid until the next move or Close).
func (it *Iterator) Value() []byte {
	if it.a == nil {
		return nil
	}
	return it.a.value
}

// Err returns the first error encountered while iterating.
func (it *Iterator) Err() error {
	if it.err != nil || it.a == nil {
		return it.err
	}
	return it.a.merge.Err()
}

// Close releases the table readers the iterator holds and its version, and
// recycles its iterator tree. It returns Err; closing again returns the same
// and does nothing else.
func (it *Iterator) Close() error {
	a := it.a
	if a == nil {
		return it.err
	}
	it.err = it.Err()
	it.a = nil
	a.release()
	iterAllocPool.Put(a)
	return it.err
}
