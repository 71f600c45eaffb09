package lsm

import (
	"bytes"
	"time"
)

// Iterator walks user keys in ascending order, exposing the newest visible
// version of each and hiding tombstones. Forward-only (Prev is not
// implemented; the paper's workloads never reverse-scan).
type Iterator struct {
	db    *DB
	merge *mergeIter
	seq   uint64
	cf    *columnFamily

	// v is the referenced version this iterator scans; the reference keeps
	// its tables on disk while a compaction (possibly triggered by a live
	// SetOptions change) retires the version mid-scan. Released by Close.
	v *Version

	// Child-iterator counts captured at construction, booked into the
	// PerfContext on every Seek/SeekToFirst.
	memChildren int
	numChildren int

	key   []byte
	value []byte
	skip  []byte // reusable skip-key buffer for Next (see findNextVisible)
	valid bool
	err   error // the failed capture, if any (see NewIteratorCF)
}

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
	st, err := db.captureReadState(h, ro)
	if err != nil {
		return &Iterator{db: db, merge: newMergeIter(nil), err: err}
	}
	v := st.v
	children := make([]internalIterator, 0, 1+len(st.imms)+len(v.LevelFiles(0))+v.NumLevels())
	children = append(children, st.mem.iterator())
	for i := len(st.imms) - 1; i >= 0; i-- {
		children = append(children, st.imms[i].iterator())
	}
	// Every table opens on first positioning; L0 files overlap, so each is
	// a level of one.
	open := db.tcache.get
	l0 := v.LevelFiles(0)
	for i := range l0 {
		children = append(children, newLevelIter(l0[i:i+1], HintRandom, open))
	}
	for level := 1; level < v.NumLevels(); level++ {
		if len(v.LevelFiles(level)) == 0 {
			continue
		}
		children = append(children, newLevelIter(v.LevelFiles(level), HintRandom, open))
	}
	// The capture's version reference keeps the tables on disk until Close:
	// they open lazily, so a compaction installing before the first Seek
	// could otherwise delete them out from under the scan.
	return &Iterator{
		db:          db,
		merge:       newMergeIter(children),
		seq:         st.seq,
		cf:          st.cf,
		v:           v,
		memChildren: 1 + len(st.imms),
		numChildren: len(children),
	}
}

// findNextVisible advances the underlying merge iterator to the next user
// key whose newest visible version is a live value. skip is scratch owned by
// the caller (it.skip or nil); its contents are overwritten freely.
func (it *Iterator) findNextVisible(skip []byte) {
	it.valid = false
	for it.merge.Valid() {
		ik := it.merge.Key()
		uk := ik.userKey()
		switch {
		case ik.seq() > it.seq:
			// Written after our snapshot: invisible.
		case skip != nil && bytes.Equal(uk, skip):
			// Older version (or any version) of a key already emitted or
			// deleted.
		case ik.kind() == KindDelete:
			skip = append(skip[:0], uk...)
		default:
			it.key = append(it.key[:0], uk...)
			it.value = append(it.value[:0], it.merge.Value()...)
			it.valid = true
			// Remember the key so Next skips its older versions.
			return
		}
		it.merge.Next()
	}
}

// bookSeek records one positioning operation in the ticker, per-CF traffic
// and PerfContext seek counters.
func (it *Iterator) bookSeek() {
	it.db.stats.Add(TickerSeekCount, 1)
	if it.cf != nil {
		it.cf.scanOps.Add(1)
	}
	it.db.perf.Add(PerfSeekOnMemtableCount, int64(it.memChildren))
	it.db.perf.Add(PerfSeekChildSeekCount, int64(it.numChildren))
}

// SeekToFirst positions at the first visible key.
func (it *Iterator) SeekToFirst() {
	defer it.db.recordSince(HistSeekMicros, it.db.rt.stopwatch())
	it.db.env.ChargeCPU(simPrices.iterSeek.d)
	it.bookSeek()
	timed := it.db.perf.TimeEnabled()
	var start time.Time
	if timed {
		start = time.Now()
	}
	it.merge.SeekToFirst()
	it.findNextVisible(nil)
	if timed {
		it.db.perf.AddTime(PerfSeekInternalSeekTime, time.Since(start))
	}
}

// Seek positions at the first visible key >= target.
func (it *Iterator) Seek(target []byte) {
	defer it.db.recordSince(HistSeekMicros, it.db.rt.stopwatch())
	it.db.env.ChargeCPU(simPrices.iterSeek.d)
	it.bookSeek()
	timed := it.db.perf.TimeEnabled()
	var start time.Time
	if timed {
		start = time.Now()
	}
	it.merge.Seek(makeInternalKey(nil, target, it.seq, KindValue))
	it.findNextVisible(nil)
	if timed {
		it.db.perf.AddTime(PerfSeekInternalSeekTime, time.Since(start))
	}
}

// Next advances to the next visible key.
func (it *Iterator) Next() {
	if !it.valid {
		return
	}
	defer it.db.recordSince(HistNextMicros, it.db.rt.stopwatch())
	it.db.env.ChargeCPU(simPrices.iterNext.d)
	it.db.stats.Add(TickerNextCount, 1)
	it.skip = append(it.skip[:0], it.key...)
	it.merge.Next()
	if len(it.skip) == 0 {
		// Preserve nil-skip semantics for an empty current key.
		it.findNextVisible(nil)
	} else {
		it.findNextVisible(it.skip)
	}
}

// Valid reports whether the iterator is positioned on a key.
func (it *Iterator) Valid() bool { return it.valid }

// Key returns the current user key (valid until the next move).
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current value (valid until the next move).
func (it *Iterator) Value() []byte { return it.value }

// Err returns the first error encountered while iterating.
func (it *Iterator) Err() error {
	if it.err != nil {
		return it.err
	}
	return it.merge.Err()
}

// Close releases the iterator.
func (it *Iterator) Close() error {
	if it.v != nil {
		it.v.refs.Add(-1)
		it.v = nil
	}
	return it.Err()
}
