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
}

// NewIterator returns a point-in-time iterator over the default family.
func (db *DB) NewIterator(ro *ReadOptions) *Iterator {
	return db.NewIteratorCF(ro, nil)
}

// NewIteratorCF returns a point-in-time iterator over one column family.
// An iterator over a dropped family is empty (valid never becomes true).
func (db *DB) NewIteratorCF(ro *ReadOptions, h *ColumnFamilyHandle) *Iterator {
	if ro == nil {
		ro = defaultReadOptions
	}
	db.mu.Lock()
	db.rt.poll()
	seq := db.publishedSeq.Load()
	if ro.Snapshot != nil {
		seq = ro.Snapshot.seq
	}
	cf, err := db.resolveCFLocked(h)
	if err != nil || cf == nil {
		db.mu.Unlock()
		return &Iterator{db: db, merge: newMergeIter(nil), seq: seq}
	}
	v := db.vs.head(cf.id)
	children := make([]internalIterator, 0, 1+len(cf.imm)+len(v.LevelFiles(0))+v.NumLevels())
	children = append(children, cf.mem.iterator())
	for i := len(cf.imm) - 1; i >= 0; i-- {
		children = append(children, cf.imm[i].iterator())
	}
	open := func(num uint64) (*tableReader, error) { return db.tcache.get(num) }
	for _, f := range v.LevelFiles(0) {
		fm := f
		children = append(children, &lazyTableIter{open: func() (*tableIter, error) {
			r, err := db.tcache.get(fm.Number)
			if err != nil {
				return nil, err
			}
			return r.iterator(HintRandom), nil
		}})
	}
	for level := 1; level < v.NumLevels(); level++ {
		if len(v.LevelFiles(level)) == 0 {
			continue
		}
		children = append(children, newLevelIter(v.LevelFiles(level), HintRandom, open))
	}
	// Reference the captured version: tables open lazily, so without the
	// reference a compaction installing before the first Seek could delete
	// them out from under the scan.
	db.refVersionLocked(v)
	memChildren := 1 + len(cf.imm)
	db.mu.Unlock()
	return &Iterator{
		db:          db,
		merge:       newMergeIter(children),
		seq:         seq,
		cf:          cf,
		v:           v,
		memChildren: memChildren,
		numChildren: len(children),
	}
}

// lazyTableIter defers opening a table until first use.
type lazyTableIter struct {
	open func() (*tableIter, error)
	it   *tableIter
	err  error
}

func (l *lazyTableIter) ensure() bool {
	if l.it == nil && l.err == nil {
		l.it, l.err = l.open()
	}
	return l.err == nil
}

func (l *lazyTableIter) Valid() bool { return l.err == nil && l.it != nil && l.it.Valid() }
func (l *lazyTableIter) SeekToFirst() {
	if l.ensure() {
		l.it.SeekToFirst()
	}
}
func (l *lazyTableIter) Seek(k internalKey) {
	if l.ensure() {
		l.it.Seek(k)
	}
}
func (l *lazyTableIter) Next() {
	if l.it != nil {
		l.it.Next()
	}
}
func (l *lazyTableIter) Key() internalKey { return l.it.Key() }
func (l *lazyTableIter) Value() []byte    { return l.it.Value() }
func (l *lazyTableIter) Err() error {
	if l.err != nil {
		return l.err
	}
	if l.it != nil {
		return l.it.Err()
	}
	return nil
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
func (it *Iterator) Err() error { return it.merge.Err() }

// Close releases the iterator.
func (it *Iterator) Close() error {
	if it.v != nil {
		it.v.refs.Add(-1)
		it.v = nil
	}
	return it.merge.Err()
}
