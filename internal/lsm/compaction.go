package lsm

import (
	"bytes"
	"fmt"
	"sort"
	"time"
)

// compaction describes one unit of background merging work within one
// column family.
type compaction struct {
	cf          *columnFamily // owning family
	level       int           // input level
	outputLevel int
	inputs      [2][]*FileMeta // [0]=level inputs, [1]=outputLevel inputs
	// fifoDrop marks FIFO-style deletions (no merge, no outputs).
	fifoDrop bool
	// maxParallel is the subcompaction width granted by the scheduler: how
	// many range slices this job may run concurrently. Subcompactions share
	// the max_background_jobs budget, so the grant is min(max_subcompactions,
	// free compaction slots). 0 or 1 means serial.
	maxParallel int
}

// allInputs returns every input file.
func (c *compaction) allInputs() []*FileMeta {
	out := append([]*FileMeta(nil), c.inputs[0]...)
	return append(out, c.inputs[1]...)
}

// inputBytes sums input file sizes.
func (c *compaction) inputBytes() int64 {
	var n int64
	for _, f := range c.allInputs() {
		n += f.Size
	}
	return n
}

// String renders the compaction for logs.
func (c *compaction) String() string {
	return fmt.Sprintf("L%d(%d files) + L%d(%d files), %d bytes",
		c.level, len(c.inputs[0]), c.outputLevel, len(c.inputs[1]), c.inputBytes())
}

// levelCapacities returns per-level byte targets honoring
// level_compaction_dynamic_level_bytes, indexed by level below
// v.NumLevels(). An array, so the pick simRuntime.poll runs per simulated op
// does not allocate.
func levelCapacities(v *Version, opts *Options) [maxNumLevels]int64 {
	n := v.NumLevels()
	var caps [maxNumLevels]int64
	if !opts.LevelCompactionDynamicLevelBytes {
		for l := 1; l < n; l++ {
			caps[l] = levelCapacity(opts, l)
		}
		return caps
	}
	// Dynamic sizing: the last level holds its actual bytes (at least the
	// base), each level above is 1/multiplier of the one below.
	last := n - 1
	bottom := v.LevelBytes(last)
	if bottom < opts.MaxBytesForLevelBase {
		bottom = opts.MaxBytesForLevelBase
	}
	caps[last] = bottom
	for l := last - 1; l >= 1; l-- {
		c := int64(float64(caps[l+1]) / opts.MaxBytesForLevelMultiplier)
		if c < opts.TargetFileSizeBase {
			c = opts.TargetFileSizeBase
		}
		caps[l] = c
	}
	return caps
}

// pickCompaction selects the next compaction under opts, skipping files in
// busy (already being compacted). Returns nil when nothing is needed.
func pickCompaction(v *Version, opts *Options, busy map[uint64]bool) *compaction {
	switch opts.CompactionStyle {
	case CompactionStyleUniversal:
		return pickUniversal(v, opts, busy)
	case CompactionStyleFIFO:
		return pickFIFO(v, opts, busy)
	default:
		return pickLeveled(v, opts, busy)
	}
}

func anyBusy(files []*FileMeta, busy map[uint64]bool) bool {
	for _, f := range files {
		if busy[f.Number] {
			return true
		}
	}
	return false
}

// pickLeveled implements RocksDB-style leveled compaction selection.
func pickLeveled(v *Version, opts *Options, busy map[uint64]bool) *compaction {
	caps := levelCapacities(v, opts)
	type cand struct {
		level int
		score float64
	}
	var buf [maxNumLevels]cand
	cands := buf[:0]
	if n := v.NumLevelFiles(0); n >= opts.Level0FileNumCompactionTrigger {
		cands = append(cands, cand{0, float64(n) / float64(opts.Level0FileNumCompactionTrigger)})
	}
	for l := 1; l < v.NumLevels()-1; l++ {
		if caps[l] <= 0 {
			continue
		}
		if s := float64(v.LevelBytes(l)) / float64(caps[l]); s >= 1 {
			cands = append(cands, cand{l, s})
		}
	}
	// Highest score first.
	for len(cands) > 0 {
		best := 0
		for i := range cands {
			if cands[i].score > cands[best].score {
				best = i
			}
		}
		c := buildLeveledCompaction(v, opts, cands[best].level, busy)
		if c != nil {
			return c
		}
		cands = append(cands[:best], cands[best+1:]...)
	}
	return nil
}

// buildLeveledCompaction assembles inputs for compacting `level` into
// level+1, or nil if the needed files are busy.
func buildLeveledCompaction(v *Version, opts *Options, level int, busy map[uint64]bool) *compaction {
	c := &compaction{level: level, outputLevel: level + 1}
	if level == 0 {
		// All L0 files overlap in general: take every non-busy one (busy
		// any -> skip: L0->L1 compactions cannot run concurrently).
		if anyBusy(v.LevelFiles(0), busy) {
			return nil
		}
		c.inputs[0] = append([]*FileMeta(nil), v.LevelFiles(0)...)
		if len(c.inputs[0]) == 0 {
			return nil
		}
	} else {
		// Pick the largest non-busy file (a good write-amp heuristic).
		var pick *FileMeta
		for _, f := range v.LevelFiles(level) {
			if busy[f.Number] {
				continue
			}
			if pick == nil || f.Size > pick.Size {
				pick = f
			}
		}
		if pick == nil {
			return nil
		}
		c.inputs[0] = []*FileMeta{pick}
	}
	smallest, largest := keyRange(c.inputs[0])
	c.inputs[1] = v.overlappingFiles(c.outputLevel, smallest.userKey(), largest.userKey())
	if anyBusy(c.inputs[1], busy) {
		return nil
	}
	// Respect max_compaction_bytes by trimming L0 input growth (level>0
	// picks a single file already).
	if c.inputBytes() > opts.MaxCompactionBytes && level == 0 && len(c.inputs[0]) > 1 {
		// Still proceed: L0 must drain; RocksDB similarly lets L0
		// compactions exceed the cap rather than stall forever.
		_ = level
	}
	return c
}

// keyRange returns the smallest and largest internal keys across files.
func keyRange(files []*FileMeta) (smallest, largest internalKey) {
	for _, f := range files {
		if smallest == nil || compareInternal(f.Smallest, smallest) < 0 {
			smallest = f.Smallest
		}
		if largest == nil || compareInternal(f.Largest, largest) > 0 {
			largest = f.Largest
		}
	}
	return smallest, largest
}

// pickUniversal merges sorted runs in L0 when the run count reaches the
// trigger (simplified universal compaction: full merge of eligible runs).
func pickUniversal(v *Version, opts *Options, busy map[uint64]bool) *compaction {
	files := v.LevelFiles(0)
	if len(files) < opts.Level0FileNumCompactionTrigger {
		return nil
	}
	if anyBusy(files, busy) {
		return nil
	}
	c := &compaction{level: 0, outputLevel: 0}
	c.inputs[0] = append([]*FileMeta(nil), files...)
	return c
}

// pickFIFO drops the oldest files once total size exceeds the budget
// (max_bytes_for_level_base stands in for fifo max_table_files_size).
func pickFIFO(v *Version, opts *Options, busy map[uint64]bool) *compaction {
	files := v.LevelFiles(0)
	var total int64
	for _, f := range files {
		total += f.Size
	}
	if total <= opts.MaxBytesForLevelBase {
		return nil
	}
	// L0 is newest-first; victims come from the tail.
	var drop []*FileMeta
	for i := len(files) - 1; i >= 0 && total > opts.MaxBytesForLevelBase; i-- {
		if busy[files[i].Number] {
			break
		}
		drop = append(drop, files[i])
		total -= files[i].Size
	}
	if len(drop) == 0 {
		return nil
	}
	return &compaction{level: 0, outputLevel: 0, inputs: [2][]*FileMeta{drop, nil}, fifoDrop: true}
}

// compactionResult carries the outcome of a flush or compaction job.
type compactionResult struct {
	edit       *versionEdit
	readBytes  int64
	writeBytes int64
	cpu        time.Duration
	// dur is the job's wall-clock execution time, for histograms, the
	// per-level compaction-stats table and event listeners.
	dur time.Duration
	// slices is the number of range-partitioned subcompactions the job ran
	// (1 = unsplit); sliceDurs holds each slice's wall-clock duration for
	// the subcompaction histogram.
	slices    int
	sliceDurs []time.Duration
	// ios attributes the job's file I/O (bytes always when profiling is on;
	// call timing under report_bg_io_stats). Merged into the DB's context
	// and the per-level stats at install.
	ios *IOStatsContext
}

// isBaseLevelForKey reports whether no level below outputLevel may contain
// userKey — the condition for dropping tombstones.
func isBaseLevelForKey(v *Version, outputLevel int, userKey []byte) bool {
	for l := outputLevel + 1; l < v.NumLevels(); l++ {
		for _, f := range v.LevelFiles(l) {
			if overlapsRange(f, userKey, userKey) {
				return false
			}
		}
	}
	return true
}

// subSlice is one range-partitioned slice of a compaction: user keys in
// [start, limit), where a nil bound is open-ended. Slices are user-key
// aligned, so every version of a user key (and its tombstones) lands in
// exactly one slice and the per-slice shadow/tombstone-drop state is
// self-contained.
type subSlice struct {
	start, limit []byte
}

// sliceResult is what writeTables produced for one flush or compaction slice.
type sliceResult struct {
	files      []newFile
	writeBytes int64
	entries    int64
	dur        time.Duration
	err        error
}

// planSubcompactionBoundaries cuts a compaction's key space into up to
// c.maxParallel byte-balanced ranges using the input tables' index blocks
// (no data blocks are read). It returns the interior boundary user keys in
// ascending order: k boundaries define k+1 slices. Nil means run serially —
// either the job is too small (under one output file's worth per slice),
// the grant is 1, or planning failed (best effort: a plan error falls back
// to the always-correct serial path rather than failing the compaction).
// Universal/FIFO jobs that output to L0 are never split: L0 file ordering
// is by recency, not key range.
func (db *DB) planSubcompactionBoundaries(c *compaction, outSize int64) [][]byte {
	if c.maxParallel <= 1 || c.fifoDrop || c.outputLevel == 0 {
		return nil
	}
	total := c.inputBytes()
	if total <= outSize {
		return nil
	}
	want := int(total / outSize)
	if want > c.maxParallel {
		want = c.maxParallel
	}
	if want < 2 {
		return nil
	}
	// Gather split candidates from every input table's index block.
	var anchors []indexAnchor
	for _, f := range c.allInputs() {
		r, err := openTable(db.env, tableFileName(db.dir, f.Number), f.Number, nil, db.options().Stats, db.bgIOClass(), nil, nil)
		if err != nil {
			return nil
		}
		a, err := r.indexAnchors()
		r.close()
		if err != nil {
			return nil
		}
		anchors = append(anchors, a...)
	}
	if len(anchors) < want {
		return nil
	}
	sort.Slice(anchors, func(i, j int) bool {
		return bytes.Compare(anchors[i].userKey, anchors[j].userKey) < 0
	})
	// Merge duplicate keys (the same block-end key can appear in several
	// inputs); their byte weights add up.
	merged := anchors[:1]
	for _, a := range anchors[1:] {
		if bytes.Equal(a.userKey, merged[len(merged)-1].userKey) {
			merged[len(merged)-1].bytes += a.bytes
		} else {
			merged = append(merged, a)
		}
	}
	var anchorTotal int64
	for _, a := range merged {
		anchorTotal += a.bytes
	}
	step := anchorTotal / int64(want)
	if step <= 0 {
		return nil
	}
	// Walk the anchors accumulating bytes; every time the cumulative weight
	// crosses the next even fraction of the total, cut there. The last
	// anchor is the global largest key — a boundary there would leave an
	// empty final slice, so it is excluded.
	var bounds [][]byte
	var acc int64
	next := step
	for _, a := range merged[:len(merged)-1] {
		acc += a.bytes
		if acc >= next {
			bounds = append(bounds, a.userKey)
			next += step
			if len(bounds) == want-1 {
				break
			}
		}
	}
	return bounds
}

// runCompaction executes a compaction against the current version: merges
// inputs, drops shadowed versions and droppable tombstones, and writes
// output tables. When the scheduler granted parallelism (c.maxParallel > 1)
// and the input is large enough, the key space is range-partitioned into
// disjoint slices that run concurrently, each with its own merge iterator,
// table builders and drop state; the per-slice outputs are stitched back in
// key order into one version edit. The caller installs the returned edit.
// Runs without the DB mutex; inputs are immutable files.
func (db *DB) runCompaction(c *compaction, v *Version) (*compactionResult, error) {
	res := &compactionResult{edit: &versionEdit{}}
	defer func(start time.Duration) { res.dur = db.rt.stopwatch() - start }(db.rt.stopwatch())
	for _, f := range c.inputs[0] {
		res.edit.deletedFiles = append(res.edit.deletedFiles, deletedFile{c.level, f.Number})
		res.readBytes += f.Size
	}
	for _, f := range c.inputs[1] {
		res.edit.deletedFiles = append(res.edit.deletedFiles, deletedFile{c.outputLevel, f.Number})
		res.readBytes += f.Size
	}
	if c.fifoDrop {
		res.readBytes = 0
		return res, nil
	}

	cfOpts := c.cf.options()
	res.ios = db.newBGIOStats(cfOpts)
	// Snapshot-drop decisions are taken once, before slicing, so every
	// slice applies an identical retention rule.
	smallestSnapshot := db.smallestSnapshot()
	outSize := targetFileSize(cfOpts, c.outputLevel)

	bounds := db.planSubcompactionBoundaries(c, outSize)
	slices := make([]subSlice, 0, len(bounds)+1)
	var prev []byte
	for _, b := range bounds {
		slices = append(slices, subSlice{start: prev, limit: b})
		prev = b
	}
	slices = append(slices, subSlice{start: prev})
	res.slices = len(slices)

	results := make([]sliceResult, len(slices))
	db.rt.fanOut(len(slices), func(i int) {
		results[i] = db.runCompactionSlice(c, v, cfOpts, slices[i], smallestSnapshot, outSize, res.ios)
	})
	// Stitch: slices cover ascending disjoint key ranges, so appending
	// their outputs in slice order preserves global key order, and summing
	// their accounting reproduces exactly what one serial pass would have
	// booked.
	var entries int64
	for i := range results {
		sr := &results[i]
		if sr.err != nil {
			return nil, sr.err
		}
		res.edit.newFiles = append(res.edit.newFiles, sr.files...)
		res.writeBytes += sr.writeBytes
		entries += sr.entries
		res.sliceDurs = append(res.sliceDurs, sr.dur)
	}
	res.cpu = time.Duration(entries) * (simPrices.compactEntry.d + simPrices.encodeEntry(cfOpts.Compression))
	return res, nil
}

// runCompactionSlice merges one key-range slice of a compaction's inputs
// and writes its output tables with writeTables. Each slice owns its
// readers, iterators, builders and shadow/tombstone state, so concurrent
// slices share nothing but the immutable input files and the atomic
// file-number allocator.
func (db *DB) runCompactionSlice(c *compaction, v *Version, cfOpts *Options, s subSlice, smallestSnapshot uint64, outSize int64, ios *IOStatsContext) (sr sliceResult) {
	defer func(start time.Duration) { sr.dur = db.rt.stopwatch() - start }(db.rt.stopwatch())

	// Build the merged input stream. Inputs are opened directly with
	// background IO class so foreground ops are not charged.
	var iters []internalIterator
	var readers []*tableReader
	defer func() {
		for _, r := range readers {
			r.close()
		}
	}()
	openBG := func(num uint64) (*tableReader, error) {
		r, err := openTable(db.env, tableFileName(db.dir, num), num, nil, db.options().Stats, db.bgIOClass(), nil, ios)
		if err == nil {
			readers = append(readers, r)
		}
		return r, err
	}
	if c.level == 0 {
		for _, f := range c.inputs[0] {
			r, err := openBG(f.Number)
			if err != nil {
				sr.err = err
				return sr
			}
			iters = append(iters, r.iterator(HintSequential))
		}
	} else {
		iters = append(iters, newLevelIter(c.inputs[0], HintSequential, openBG))
	}
	if len(c.inputs[1]) > 0 {
		iters = append(iters, newLevelIter(c.inputs[1], HintSequential, openBG))
	}
	var merged internalIterator = newMergeIter(iters)
	if s.limit != nil {
		merged = &boundedIter{inner: merged, limit: s.limit}
	}
	if s.start == nil {
		merged.SeekToFirst()
	} else {
		// maxSequence sorts before every real entry of the start key, so
		// the slice begins at the first (newest) version of the first user
		// key at or above start.
		merged.Seek(makeInternalKey(nil, s.start, maxSequence, KindValue))
	}
	return db.writeTables(merged, cfOpts, c.outputLevel, v, smallestSnapshot, outSize, ios)
}

// writeTables drains merged (already positioned) into tables at outputLevel:
// the one per-entry loop flush and compaction share. An older version of a
// user key is dropped once the next-newer version is at or below
// smallestSnapshot (LevelDB's rule); with v set — a compaction — a tombstone
// no snapshot can see and no level below outputLevel may hold a key for is
// dropped too. A table is cut once its estimated size reaches outSize, then
// synced, closed and, under paranoid_file_checks, read back. A table left
// unfinished by a failure is closed. sr.entries counts the entries read.
func (db *DB) writeTables(merged internalIterator, cfOpts *Options, outputLevel int, v *Version, smallestSnapshot uint64, outSize int64, ios *IOStatsContext) (sr sliceResult) {
	var builder *tableBuilder
	var outFile WritableFile
	var outNum uint64
	defer func() {
		if outFile != nil {
			outFile.Close()
		}
	}()
	var lastUserKey []byte
	haveLast := false
	lastSeqForKey := maxSequence

	finishOutput := func() error {
		if builder == nil {
			return nil
		}
		props, err := builder.finish()
		if err != nil {
			return err
		}
		if err := outFile.Sync(); err != nil {
			return err
		}
		f := outFile
		outFile = nil // closed here, failed or not
		if err := f.Close(); err != nil {
			return err
		}
		meta := &FileMeta{
			Number:   outNum,
			Size:     props.FileSize,
			Entries:  props.NumEntries,
			Smallest: append(internalKey(nil), builder.smallest()...),
			Largest:  append(internalKey(nil), builder.largest()...),
		}
		if cfOpts.ParanoidFileChecks {
			if err := verifyTableFile(db.env, tableFileName(db.dir, outNum), meta, db.bgIOClass()); err != nil {
				return err
			}
		}
		sr.files = append(sr.files, newFile{outputLevel, meta})
		sr.writeBytes += props.FileSize
		builder = nil
		return nil
	}

	for ; merged.Valid(); merged.Next() {
		ik := merged.Key()
		uk := ik.userKey()
		sr.entries++
		// An older version is droppable only when the next-newer version of
		// the same key is already at or below the smallest live snapshot.
		if haveLast && bytes.Equal(uk, lastUserKey) {
			if lastSeqForKey <= smallestSnapshot {
				continue // shadowed and invisible to every snapshot
			}
			// Visible to some snapshot: keep this older version too.
		} else {
			lastUserKey = append(lastUserKey[:0], uk...)
			haveLast = true
			lastSeqForKey = maxSequence
		}
		drop := v != nil && ik.kind() == KindDelete && ik.seq() <= smallestSnapshot &&
			lastSeqForKey == maxSequence && isBaseLevelForKey(v, outputLevel, uk)
		lastSeqForKey = ik.seq()
		if drop {
			continue
		}
		if builder == nil {
			outNum = db.vs.newFileNumber() // atomic: safe with or without db.mu
			f, err := db.env.NewWritableFile(tableFileName(db.dir, outNum), db.bgIOClass())
			if err != nil {
				sr.err = err
				return sr
			}
			outFile = wrapWritableFile(f, ios)
			builder = newTableBuilder(outFile, cfOpts)
		}
		if err := builder.add(ik, merged.Value()); err != nil {
			sr.err = err
			return sr
		}
		if builder.estimatedSize() >= outSize {
			if sr.err = finishOutput(); sr.err != nil {
				return sr
			}
		}
	}
	if sr.err = merged.Err(); sr.err != nil {
		return sr
	}
	sr.err = finishOutput()
	return sr
}
