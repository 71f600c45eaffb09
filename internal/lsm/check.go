package lsm

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
)

// Offline integrity checking and repair, in the spirit of `ldb verify` /
// RocksDB's RepairDB. Both operate on a closed database directory: CheckDB
// never writes; RepairDB rebuilds the manifest from whatever survives.

// CheckIssue is one problem found by CheckDB.
type CheckIssue struct {
	File string
	Err  error
}

func (i CheckIssue) String() string { return fmt.Sprintf("%s: %v", i.File, i.Err) }

// CheckReport summarizes a CheckDB pass.
type CheckReport struct {
	ManifestName    string
	Tables          int // tables referenced by the manifest
	TablesOK        int
	WALs            int
	WALRecords      int
	WALDroppedBytes int64 // torn/corrupt tail bytes (tolerated by default recovery)
	Orphans         []string
	Issues          []CheckIssue
}

// OK reports whether the database passed every check.
func (r *CheckReport) OK() bool { return len(r.Issues) == 0 }

// CheckDB verifies a closed database directory: CURRENT and the manifest it
// names must parse, every referenced SSTable must pass a full read-back
// (block checksums, key ordering, metadata agreement), the version
// invariants must hold, and live WAL files must replay. Torn WAL tails are
// reported in WALDroppedBytes but are not issues (the default recovery mode
// tolerates them); mid-file WAL corruption is an issue. The database must
// not be open in another process.
func CheckDB(dir string, opts *Options) (*CheckReport, error) {
	return CheckDBColumnFamily(dir, opts, "")
}

// CheckDBColumnFamily is CheckDB restricted to one column family: version
// invariants and table read-back run only for cfName's version (orphan
// detection and WAL structure checks are inherently whole-database and
// always run). An empty cfName checks every family; a name the manifest does
// not know is an error.
func CheckDBColumnFamily(dir string, opts *Options, cfName string) (*CheckReport, error) {
	if opts == nil {
		opts = DefaultOptions()
	}
	env := opts.Env
	if env == nil {
		env = NewOSEnv()
	}
	rep := &CheckReport{}
	vs := newVersionSet(env, dir, opts)

	// CURRENT -> manifest name.
	cur, err := readCurrentFile(env, dir)
	if err != nil {
		return rep, fmt.Errorf("lsm: check %s: %w", dir, err)
	}
	rep.ManifestName = cur

	// Replay the manifest (all column families).
	if err := vs.replay(cur); err != nil {
		rep.Issues = append(rep.Issues, CheckIssue{cur, err})
		return rep, nil
	}
	// Resolve the requested scope: all families, or just one.
	scope := vs.cfIDsInOrder()
	if cfName != "" && cfName != DefaultColumnFamilyName {
		scope = nil
		for _, id := range vs.cfIDsInOrder() {
			if vs.cfs[id].name == cfName {
				scope = []uint32{id}
				break
			}
		}
		if scope == nil {
			return rep, fmt.Errorf("lsm: check %s: %w: %q", dir, ErrColumnFamilyNotFound, cfName)
		}
	} else if cfName == DefaultColumnFamilyName {
		scope = []uint32{0}
	}
	for _, id := range scope {
		if err := vs.cfs[id].current.checkInvariants(); err != nil {
			rep.Issues = append(rep.Issues, CheckIssue{cur,
				fmt.Errorf("column family %q: %w", vs.cfs[id].name, err)})
		}
	}

	// Full read-back of every table each in-scope family references. Orphan
	// detection below still uses the whole-database live set: a table owned
	// by an out-of-scope family is not an orphan.
	live := vs.liveFileNumbers()
	for _, id := range scope {
		for _, files := range vs.cfs[id].current.levels {
			for _, f := range files {
				rep.Tables++
				name := tableFileName(dir, f.Number)
				if err := verifyTableFile(env, name, f, IOBackground); err != nil {
					rep.Issues = append(rep.Issues, CheckIssue{filepath.Base(name), err})
				} else {
					rep.TablesOK++
				}
			}
		}
	}

	// WAL replay (record structure + checksums) and orphan tables.
	names, err := env.List(dir)
	if err != nil {
		return rep, err
	}
	var logs []uint64
	for _, name := range names {
		switch kind, num := parseFileName(name); kind {
		case fileKindLog:
			if num >= vs.minLogNumber() {
				logs = append(logs, num)
			}
		case fileKindTable:
			if !live[num] {
				rep.Orphans = append(rep.Orphans, name)
			}
		}
	}
	sort.Slice(logs, func(i, j int) bool { return logs[i] < logs[j] })
	for _, num := range logs {
		rep.WALs++
		name := logFileName(dir, num)
		info, err := walReplayMode(env, name, WALRecoverTolerateCorruptedTailRecords, false, nil,
			func(payload []byte) error {
				return decodeBatch(payload, func(uint64, uint32, ValueKind, []byte, []byte) error { return nil })
			})
		rep.WALRecords += info.records
		rep.WALDroppedBytes += info.droppedBytes
		if err != nil {
			rep.Issues = append(rep.Issues, CheckIssue{filepath.Base(name), err})
		} else if info.midFile {
			rep.Issues = append(rep.Issues, CheckIssue{filepath.Base(name),
				fmt.Errorf("%w: mid-file WAL corruption (%d corrupt records, valid records follow)",
					ErrCorruption, info.corruptRecords)})
		}
	}
	sort.Strings(rep.Orphans)
	return rep, nil
}

// readCurrentFile returns the manifest file name CURRENT points at.
func readCurrentFile(env Env, dir string) (string, error) {
	f, err := env.NewRandomAccessFile(currentFileName(dir), IOBackground)
	if err != nil {
		return "", err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return "", err
	}
	buf := make([]byte, size)
	if err := f.ReadAt(buf, 0, HintSequential); err != nil {
		return "", err
	}
	name := strings.TrimSpace(string(buf))
	if kind, _ := parseFileName(name); kind != fileKindManifest {
		return "", fmt.Errorf("%w: CURRENT names %q, not a manifest", ErrCorruption, name)
	}
	return name, nil
}

// RepairTable records what happened to one table file during repair.
type RepairTable struct {
	OldName string
	NewName string // empty when the table was quarantined
	Entries int64
	MaxSeq  uint64
	Err     error // non-nil when quarantined
}

// RepairReport summarizes a RepairDB pass.
type RepairReport struct {
	Tables      []RepairTable // every *.sst examined
	Salvaged    int           // tables that passed verification
	Quarantined int           // tables renamed to *.sst.bad
	WALs        int
	WALRecords  int // records salvageable on the next open
	LastSeq     uint64
	NewManifest string
}

// RepairDB rebuilds a database whose manifest or CURRENT file is lost or
// corrupt. Every *.sst in dir is read back in full: tables that verify are
// installed in a fresh manifest at level 0, renumbered in ascending
// max-sequence order (the engine orders L0 newest-number-first); tables
// that fail are renamed to <name>.bad and dropped. Surviving WAL files are
// left in place — the next Open replays their readable prefix. The database
// must not be open in another process.
func RepairDB(dir string, opts *Options) (*RepairReport, error) {
	return RepairDBColumnFamily(dir, opts, "")
}

// RepairDBColumnFamily is RepairDB with an explicit salvage destination:
// cfName "" (or "default") installs every surviving table into the default
// family; any other name re-creates that column family in the fresh manifest
// and attaches the tables there. With the manifest lost, per-table family
// ownership is unrecoverable — the operator names the family the data
// belonged to (e.g. after a single-family DB was migrated into a named
// family), matching RocksDB's repair limitation.
func RepairDBColumnFamily(dir string, opts *Options, cfName string) (*RepairReport, error) {
	if opts == nil {
		opts = DefaultOptions()
	}
	env := opts.Env
	if env == nil {
		env = NewOSEnv()
	}
	rep := &RepairReport{}
	names, err := env.List(dir)
	if err != nil {
		return rep, err
	}
	var tableNums, logNums []uint64
	maxNum := uint64(1)
	for _, name := range names {
		kind, num := parseFileName(name)
		if num > maxNum {
			maxNum = num
		}
		switch kind {
		case fileKindTable:
			tableNums = append(tableNums, num)
		case fileKindLog:
			logNums = append(logNums, num)
		}
	}
	sort.Slice(tableNums, func(i, j int) bool { return tableNums[i] < tableNums[j] })

	// Scan every table; quarantine the unreadable.
	type survivor struct {
		meta   *FileMeta
		maxSeq uint64
	}
	var survivors []survivor
	for _, num := range tableNums {
		name := tableFileName(dir, num)
		meta, maxSeq, err := scanTable(env, name, num)
		rt := RepairTable{OldName: filepath.Base(name)}
		if err != nil {
			rt.Err = err
			if rerr := env.Rename(name, name+".bad"); rerr != nil {
				return rep, fmt.Errorf("lsm: repair: quarantine %s: %w", name, rerr)
			}
			rep.Quarantined++
			rep.Tables = append(rep.Tables, rt)
			continue
		}
		rt.Entries = meta.Entries
		rt.MaxSeq = maxSeq
		survivors = append(survivors, survivor{meta, maxSeq})
		rep.Tables = append(rep.Tables, rt)
		if maxSeq > rep.LastSeq {
			rep.LastSeq = maxSeq
		}
	}

	// Renumber survivors in ascending max-seq order so L0's
	// newest-number-first ordering reflects recency.
	sort.SliceStable(survivors, func(i, j int) bool { return survivors[i].maxSeq < survivors[j].maxSeq })
	next := maxNum + 1
	for _, s := range survivors {
		oldName := tableFileName(dir, s.meta.Number)
		newNum := next
		next++
		newName := tableFileName(dir, newNum)
		if err := env.Rename(oldName, newName); err != nil {
			return rep, fmt.Errorf("lsm: repair: rename %s: %w", oldName, err)
		}
		// rep.Tables preserves scan order; match by old name since the
		// survivors were re-sorted by max sequence.
		for i := range rep.Tables {
			if rep.Tables[i].OldName == filepath.Base(oldName) {
				rep.Tables[i].NewName = filepath.Base(newName)
				break
			}
		}
		s.meta.Number = newNum
		rep.Salvaged++
	}

	// Count what the WALs can contribute (the next Open does the replay).
	minLog := uint64(0)
	if len(logNums) > 0 {
		sort.Slice(logNums, func(i, j int) bool { return logNums[i] < logNums[j] })
		minLog = logNums[0]
		for _, num := range logNums {
			rep.WALs++
			info, _ := walReplayMode(env, logFileName(dir, num),
				WALRecoverTolerateCorruptedTailRecords, false, nil,
				func(payload []byte) error { return nil })
			rep.WALRecords += info.records
		}
	}

	// Fresh version set: snapshot manifest + CURRENT swap. Column-family
	// ownership lives only in the manifest, so with the manifest lost every
	// salvaged table lands in one family — the default, or the cfName the
	// operator designated (see RepairDBColumnFamily).
	vs := newVersionSet(env, dir, opts)
	vs.lastSeq = rep.LastSeq
	vs.cfs[0].logNumber = minLog
	vs.nextFileNum.Store(next)
	vs.manifestNum = vs.newFileNumber()
	mf, err := env.NewWritableFile(manifestFileName(dir, vs.manifestNum), IOBackground)
	if err != nil {
		return rep, err
	}
	vs.manifest = newWALWriter(mf, opts)
	vs.manifest.stats = nil
	edit := &versionEdit{hasLogNumber: true, logNumber: minLog}
	if cfName != "" && cfName != DefaultColumnFamilyName {
		// Re-create the named family and make it the target of the file and
		// log-number fields; apply() resolves the base version from the
		// edit's own addCF entry, so one edit does both.
		edit.cfID = 1
		edit.addCFs = []addCF{{id: 1, name: cfName, numLevels: opts.NumLevels}}
	}
	for _, s := range survivors {
		edit.newFiles = append(edit.newFiles, newFile{0, s.meta})
	}
	if err := vs.logAndApply(edit); err != nil {
		vs.close()
		return rep, err
	}
	if err := env.SyncDir(dir); err != nil {
		vs.close()
		return rep, err
	}
	if err := vs.setCurrent(); err != nil {
		vs.close()
		return rep, err
	}
	if err := vs.close(); err != nil {
		return rep, err
	}
	rep.NewManifest = filepath.Base(manifestFileName(dir, vs.manifestNum))
	return rep, nil
}

// scanTable fully reads a table, returning fresh metadata (computed from
// the data itself, trusting nothing) and the largest sequence number seen.
func scanTable(env Env, name string, num uint64) (*FileMeta, uint64, error) {
	t, err := openTable(env, name, num, nil, nil, IOBackground, nil, nil)
	if err != nil {
		return nil, 0, err
	}
	defer t.close()
	meta := &FileMeta{Number: num}
	var maxSeq uint64
	var prev internalKey
	it := t.iterator(HintSequential)
	for it.SeekToFirst(); it.Valid(); it.Next() {
		k := it.Key()
		if prev != nil && compareInternal(prev, k) >= 0 {
			return nil, 0, fmt.Errorf("%w: keys out of order in %s", ErrCorruption, name)
		}
		if meta.Entries == 0 {
			meta.Smallest = append(internalKey(nil), k...)
		}
		prev = append(prev[:0], k...)
		if seq := k.seq(); seq > maxSeq {
			maxSeq = seq
		}
		meta.Entries++
	}
	if err := it.Err(); err != nil {
		return nil, 0, err
	}
	if meta.Entries == 0 {
		return nil, 0, fmt.Errorf("%w: table %s is empty", ErrCorruption, name)
	}
	meta.Largest = append(internalKey(nil), prev...)
	size, err := env.FileSize(name)
	if err != nil {
		return nil, 0, err
	}
	meta.Size = size
	return meta, maxSeq, nil
}
