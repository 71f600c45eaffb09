package lsm

import (
	"time"
)

// runFlush merges one family's immutable memtables (oldest first) into one
// L0 table built with that family's options. Newest versions win; tombstones
// are kept (deeper levels may hold the key). The caller installs the
// returned edit.
func (db *DB) runFlush(cf *columnFamily, mems []*memtable) (*compactionResult, error) {
	res := &compactionResult{edit: &versionEdit{}, ios: db.newBGIOStats(cf.options())}
	defer func(start time.Duration) { res.dur = db.rt.stopwatch() - start }(db.rt.stopwatch())
	iters := make([]internalIterator, 0, len(mems))
	var inputBytes int64
	for _, m := range mems {
		// A pipelined write group may still be inserting into a memtable
		// that a later group's makeRoom already froze; wait for those
		// writers to drain before iterating (no new ones can pin a frozen
		// memtable).
		m.writers.Wait()
		iters = append(iters, m.iterator())
		inputBytes += m.approximateBytes()
	}
	merged := newMergeIter(iters)
	merged.SeekToFirst()
	smallestSnapshot := db.smallestSnapshot()

	num := db.vs.newFileNumber()
	f, err := db.env.NewWritableFile(tableFileName(db.dir, num), db.bgIOClass())
	if err != nil {
		return nil, err
	}
	f = wrapWritableFile(f, res.ios)
	builder := newTableBuilder(f, cf.options())
	var entries int64
	var lastUserKey []byte
	haveLast := false
	lastSeqForKey := maxSequence
	for ; merged.Valid(); merged.Next() {
		ik := merged.Key()
		uk := ik.userKey()
		if haveLast && string(uk) == string(lastUserKey) {
			if lastSeqForKey <= smallestSnapshot {
				lastSeqForKey = ik.seq()
				continue // shadowed and invisible to every snapshot
			}
		} else {
			lastUserKey = append(lastUserKey[:0], uk...)
			haveLast = true
		}
		lastSeqForKey = ik.seq()
		entries++
		if err := builder.add(ik, merged.Value()); err != nil {
			f.Close()
			return nil, err
		}
	}
	if entries == 0 {
		f.Close()
		db.env.Remove(tableFileName(db.dir, num))
		return res, nil
	}
	props, err := builder.finish()
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	meta := &FileMeta{
		Number:   num,
		Size:     props.FileSize,
		Entries:  props.NumEntries,
		Smallest: append(internalKey(nil), builder.smallest()...),
		Largest:  append(internalKey(nil), builder.largest()...),
	}
	if cf.options().ParanoidFileChecks {
		if err := verifyTableFile(db.env, tableFileName(db.dir, num), meta, db.bgIOClass()); err != nil {
			return nil, err
		}
	}
	res.edit.newFiles = append(res.edit.newFiles, newFile{0, meta})
	res.writeBytes = props.FileSize
	perEntry := 300 * time.Nanosecond
	if cf.options().Compression != NoCompression {
		// Deflate work only: codec setup is amortized away by the pooled
		// flate writers (codec.go), no longer paid per block.
		perEntry += 300 * time.Nanosecond
	}
	res.cpu = time.Duration(entries) * perEntry
	return res, nil
}
