package lsm

import (
	"math"
	"time"
)

// runFlush merges one family's immutable memtables (oldest first) into one
// L0 table built with that family's options. Newest versions win; tombstones
// are kept (deeper levels may hold the key). The caller installs the
// returned edit.
func (db *DB) runFlush(cf *columnFamily, mems []*memtable) (*compactionResult, error) {
	cfOpts := cf.options()
	res := &compactionResult{edit: &versionEdit{}, ios: db.newBGIOStats(cfOpts)}
	defer func(start time.Duration) { res.dur = db.rt.stopwatch() - start }(db.rt.stopwatch())
	var tree mergeTree
	defer tree.release()
	for _, m := range mems {
		// A pipelined write group may still be inserting into a memtable
		// that a later group's makeRoom already froze; wait for those
		// writers to drain before iterating (no new ones can pin a frozen
		// memtable).
		m.writers.Wait()
		tree.addMemtable(m.list)
	}
	merged := tree.build()
	merged.SeekToFirst()
	sr := db.writeTables(merged, nil, cfOpts, 0, nil, db.smallestSnapshot(), math.MaxInt64, res.ios)
	if sr.err != nil {
		return nil, sr.err
	}
	res.edit.newFiles = sr.files
	res.writeBytes = sr.writeBytes
	var written int64
	for _, f := range sr.files {
		written += f.meta.Entries
	}
	res.cpu = time.Duration(written) * (simPrices.flushEntry.d + simPrices.encodeEntry(cfOpts.Compression))
	return res, nil
}
