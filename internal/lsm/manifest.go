package lsm

import (
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// File naming, RocksDB style.
func logFileName(dir string, num uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%06d.log", num))
}

func tableFileName(dir string, num uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%06d.sst", num))
}

func manifestFileName(dir string, num uint64) string {
	return filepath.Join(dir, fmt.Sprintf("MANIFEST-%06d", num))
}

func currentFileName(dir string) string { return filepath.Join(dir, "CURRENT") }

func optionsFileName(dir string, num uint64) string {
	return filepath.Join(dir, fmt.Sprintf("OPTIONS-%06d", num))
}

// parseFileName decodes a file name into its kind and number.
type fileKind int

const (
	fileKindLog fileKind = iota
	fileKindTable
	fileKindManifest
	fileKindCurrent
	fileKindOptions
	fileKindUnknown
)

func parseFileName(name string) (fileKind, uint64) {
	switch {
	case name == "CURRENT":
		return fileKindCurrent, 0
	case strings.HasPrefix(name, "MANIFEST-"):
		n, err := strconv.ParseUint(strings.TrimPrefix(name, "MANIFEST-"), 10, 64)
		if err != nil {
			return fileKindUnknown, 0
		}
		return fileKindManifest, n
	case strings.HasPrefix(name, "OPTIONS-"):
		n, err := strconv.ParseUint(strings.TrimPrefix(name, "OPTIONS-"), 10, 64)
		if err != nil {
			return fileKindUnknown, 0
		}
		return fileKindOptions, n
	case strings.HasSuffix(name, ".log"):
		n, err := strconv.ParseUint(strings.TrimSuffix(name, ".log"), 10, 64)
		if err != nil {
			return fileKindUnknown, 0
		}
		return fileKindLog, n
	case strings.HasSuffix(name, ".sst"):
		n, err := strconv.ParseUint(strings.TrimSuffix(name, ".sst"), 10, 64)
		if err != nil {
			return fileKindUnknown, 0
		}
		return fileKindTable, n
	default:
		return fileKindUnknown, 0
	}
}

// versionEdit is a delta applied to a Version, persisted in the MANIFEST.
// Tag-encoded like LevelDB: each field is varint(tag) followed by payload.
// The per-file and log-number fields apply to the column family named by
// cfID; family creation/drop records ride in the same edit stream.
type versionEdit struct {
	cfID         uint32 // column family the file/log fields target (0 = default)
	hasLogNumber bool
	logNumber    uint64
	hasNextFile  bool
	nextFileNum  uint64
	hasLastSeq   bool
	lastSeq      uint64
	hasMaxCF     bool
	maxCF        uint32
	deletedFiles []deletedFile
	newFiles     []newFile
	addCFs       []addCF
	dropCFs      []uint32
}

type deletedFile struct {
	level int
	num   uint64
}

type newFile struct {
	level int
	meta  *FileMeta
}

// addCF records a column-family creation in the manifest.
type addCF struct {
	id        uint32
	name      string
	numLevels int
}

const (
	tagLogNumber = 1
	tagNextFile  = 2
	tagLastSeq   = 3
	tagDeleted   = 4
	tagNewFile   = 5
	// Column-family tags. Old manifests never contain them (and the cfID tag
	// is omitted for the default family), so legacy files decode unchanged as
	// default-family edits.
	tagCFID   = 100
	tagAddCF  = 101
	tagDropCF = 102
	tagMaxCF  = 103
)

func putLenPrefixed(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// encode serializes the edit.
func (e *versionEdit) encode() []byte {
	var b []byte
	if e.cfID != 0 {
		b = binary.AppendUvarint(b, tagCFID)
		b = binary.AppendUvarint(b, uint64(e.cfID))
	}
	if e.hasMaxCF {
		b = binary.AppendUvarint(b, tagMaxCF)
		b = binary.AppendUvarint(b, uint64(e.maxCF))
	}
	for _, a := range e.addCFs {
		b = binary.AppendUvarint(b, tagAddCF)
		b = binary.AppendUvarint(b, uint64(a.id))
		b = putLenPrefixed(b, []byte(a.name))
		b = binary.AppendUvarint(b, uint64(a.numLevels))
	}
	for _, id := range e.dropCFs {
		b = binary.AppendUvarint(b, tagDropCF)
		b = binary.AppendUvarint(b, uint64(id))
	}
	if e.hasLogNumber {
		b = binary.AppendUvarint(b, tagLogNumber)
		b = binary.AppendUvarint(b, e.logNumber)
	}
	if e.hasNextFile {
		b = binary.AppendUvarint(b, tagNextFile)
		b = binary.AppendUvarint(b, e.nextFileNum)
	}
	if e.hasLastSeq {
		b = binary.AppendUvarint(b, tagLastSeq)
		b = binary.AppendUvarint(b, e.lastSeq)
	}
	for _, d := range e.deletedFiles {
		b = binary.AppendUvarint(b, tagDeleted)
		b = binary.AppendUvarint(b, uint64(d.level))
		b = binary.AppendUvarint(b, d.num)
	}
	for _, nf := range e.newFiles {
		b = binary.AppendUvarint(b, tagNewFile)
		b = binary.AppendUvarint(b, uint64(nf.level))
		b = binary.AppendUvarint(b, nf.meta.Number)
		b = binary.AppendUvarint(b, uint64(nf.meta.Size))
		b = binary.AppendUvarint(b, uint64(nf.meta.Entries))
		b = putLenPrefixed(b, nf.meta.Smallest)
		b = putLenPrefixed(b, nf.meta.Largest)
	}
	return b
}

func getUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, io.ErrUnexpectedEOF
	}
	return v, b[n:], nil
}

func getLenPrefixed(b []byte) ([]byte, []byte, error) {
	n, rest, err := getUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if uint64(len(rest)) < n {
		return nil, nil, io.ErrUnexpectedEOF
	}
	return rest[:n], rest[n:], nil
}

// decodeVersionEdit parses an encoded edit.
func decodeVersionEdit(b []byte) (*versionEdit, error) {
	e := &versionEdit{}
	var err error
	for len(b) > 0 {
		var tag uint64
		tag, b, err = getUvarint(b)
		if err != nil {
			return nil, err
		}
		switch tag {
		case tagCFID:
			var id uint64
			id, b, err = getUvarint(b)
			e.cfID = uint32(id)
		case tagMaxCF:
			var id uint64
			id, b, err = getUvarint(b)
			e.maxCF = uint32(id)
			e.hasMaxCF = true
		case tagAddCF:
			var id, levels uint64
			var name []byte
			id, b, err = getUvarint(b)
			if err == nil {
				name, b, err = getLenPrefixed(b)
			}
			if err == nil {
				levels, b, err = getUvarint(b)
			}
			if err == nil {
				e.addCFs = append(e.addCFs, addCF{id: uint32(id), name: string(name), numLevels: int(levels)})
			}
		case tagDropCF:
			var id uint64
			id, b, err = getUvarint(b)
			e.dropCFs = append(e.dropCFs, uint32(id))
		case tagLogNumber:
			e.logNumber, b, err = getUvarint(b)
			e.hasLogNumber = true
		case tagNextFile:
			e.nextFileNum, b, err = getUvarint(b)
			e.hasNextFile = true
		case tagLastSeq:
			e.lastSeq, b, err = getUvarint(b)
			e.hasLastSeq = true
		case tagDeleted:
			var level, num uint64
			level, b, err = getUvarint(b)
			if err == nil {
				num, b, err = getUvarint(b)
			}
			e.deletedFiles = append(e.deletedFiles, deletedFile{int(level), num})
		case tagNewFile:
			var level, num, size, entries uint64
			var smallest, largest []byte
			level, b, err = getUvarint(b)
			if err == nil {
				num, b, err = getUvarint(b)
			}
			if err == nil {
				size, b, err = getUvarint(b)
			}
			if err == nil {
				entries, b, err = getUvarint(b)
			}
			if err == nil {
				smallest, b, err = getLenPrefixed(b)
			}
			if err == nil {
				largest, b, err = getLenPrefixed(b)
			}
			if err == nil {
				e.newFiles = append(e.newFiles, newFile{int(level), &FileMeta{
					Number:   num,
					Size:     int64(size),
					Entries:  int64(entries),
					Smallest: append(internalKey(nil), smallest...),
					Largest:  append(internalKey(nil), largest...),
				}})
			}
		default:
			return nil, fmt.Errorf("lsm: unknown version edit tag %d", tag)
		}
		if err != nil {
			return nil, err
		}
	}
	return e, nil
}

// cfState is one column family's slice of the version set: its current
// Version (level shape) and its WAL floor.
type cfState struct {
	id      uint32
	name    string
	current *Version
	// logNumber is this family's WAL floor: records for this family in WALs
	// below this number have been flushed. The DB may delete a WAL once it is
	// below every live family's floor (minLogNumber).
	logNumber uint64
}

// versionSet tracks every column family's current Version and persists edits
// to the shared MANIFEST. Callers must hold the DB mutex around logAndApply.
type versionSet struct {
	env         Env
	dir         string
	opts        *Options
	cfs         map[uint32]*cfState // always contains id 0 ("default")
	manifest    *walWriter
	manifestNum uint64

	// nextFileNum is atomic: background jobs allocate file numbers while
	// the DB mutex is held elsewhere (or not at all).
	nextFileNum atomic.Uint64
	lastSeq     uint64
	maxCF       uint32 // highest CF id ever allocated; ids are never reused
}

// newVersionSet returns a version set holding an empty default family.
func newVersionSet(env Env, dir string, opts *Options) *versionSet {
	return &versionSet{
		env:  env,
		dir:  dir,
		opts: opts,
		cfs: map[uint32]*cfState{
			0: {id: 0, name: DefaultColumnFamilyName, current: newVersion(opts.NumLevels)},
		},
	}
}

// head returns the current Version of a column family (nil if unknown).
func (vs *versionSet) head(cfID uint32) *Version {
	if st := vs.cfs[cfID]; st != nil {
		return st.current
	}
	return nil
}

// minLogNumber returns the smallest WAL floor across live families: WALs
// below it hold no unflushed data for anyone and are obsolete.
func (vs *versionSet) minLogNumber() uint64 {
	first := true
	var min uint64
	for _, st := range vs.cfs {
		if first || st.logNumber < min {
			min = st.logNumber
			first = false
		}
	}
	return min
}

// cfIDsInOrder returns the live family ids ascending (default first).
func (vs *versionSet) cfIDsInOrder() []uint32 {
	ids := make([]uint32, 0, len(vs.cfs))
	for id := range vs.cfs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// newFileNumber allocates the next file number.
func (vs *versionSet) newFileNumber() uint64 {
	return vs.nextFileNum.Add(1) - 1
}

// apply validates the edit and commits it to the in-memory state: family
// creations and drops install/remove cfState entries, file changes replace
// the target family's head Version, and the counters advance. It returns the
// new head Version, or nil when the edit carries no file changes (or the
// target family was dropped by this same edit).
func (vs *versionSet) apply(e *versionEdit) (*Version, error) {
	// Validation phase: nothing is mutated until every check passes.
	for _, a := range e.addCFs {
		if _, ok := vs.cfs[a.id]; ok {
			return nil, fmt.Errorf("lsm: edit re-creates column family id %d", a.id)
		}
		for _, st := range vs.cfs {
			if st.name == a.name {
				return nil, fmt.Errorf("lsm: edit re-creates column family %q", a.name)
			}
		}
		if a.numLevels < 2 {
			return nil, fmt.Errorf("lsm: column family %q created with %d levels", a.name, a.numLevels)
		}
	}
	for _, id := range e.dropCFs {
		if id == 0 {
			return nil, fmt.Errorf("lsm: edit drops the default column family")
		}
		if _, ok := vs.cfs[id]; !ok {
			return nil, fmt.Errorf("lsm: edit drops unknown column family id %d", id)
		}
	}
	var base *Version
	if st := vs.cfs[e.cfID]; st != nil {
		base = st.current
	} else {
		for _, a := range e.addCFs {
			if a.id == e.cfID {
				base = newVersion(a.numLevels)
			}
		}
	}
	var v *Version
	if len(e.deletedFiles) > 0 || len(e.newFiles) > 0 {
		if base == nil {
			return nil, fmt.Errorf("lsm: edit references unknown column family id %d", e.cfID)
		}
		v = base.clone()
		for _, d := range e.deletedFiles {
			if d.level >= len(v.levels) {
				return nil, fmt.Errorf("lsm: edit deletes file at level %d beyond num_levels", d.level)
			}
			files := v.levels[d.level]
			idx := -1
			for i, f := range files {
				if f.Number == d.num {
					idx = i
					break
				}
			}
			if idx < 0 {
				return nil, fmt.Errorf("lsm: edit deletes missing file %d at level %d (cf %d)", d.num, d.level, e.cfID)
			}
			v.levels[d.level] = append(append([]*FileMeta(nil), files[:idx]...), files[idx+1:]...)
		}
		for _, nf := range e.newFiles {
			if nf.level >= len(v.levels) {
				return nil, fmt.Errorf("lsm: edit adds file at level %d beyond num_levels", nf.level)
			}
			v.levels[nf.level] = append(append([]*FileMeta(nil), v.levels[nf.level]...), nf.meta)
			sortLevel(nf.level, v.levels[nf.level])
		}
	} else if e.hasLogNumber && base == nil {
		return nil, fmt.Errorf("lsm: edit sets log number for unknown column family id %d", e.cfID)
	}

	// Commit phase.
	for _, a := range e.addCFs {
		vs.cfs[a.id] = &cfState{id: a.id, name: a.name, current: newVersion(a.numLevels)}
		if a.id > vs.maxCF {
			vs.maxCF = a.id
		}
	}
	if e.hasMaxCF && e.maxCF > vs.maxCF {
		vs.maxCF = e.maxCF
	}
	for _, id := range e.dropCFs {
		delete(vs.cfs, id)
	}
	if st := vs.cfs[e.cfID]; st != nil {
		if e.hasLogNumber {
			st.logNumber = e.logNumber
		}
		if v != nil {
			st.current = v
		}
	}
	if e.hasNextFile {
		for {
			cur := vs.nextFileNum.Load()
			if e.nextFileNum <= cur || vs.nextFileNum.CompareAndSwap(cur, e.nextFileNum) {
				break
			}
		}
	}
	if e.hasLastSeq && e.lastSeq > vs.lastSeq {
		vs.lastSeq = e.lastSeq
	}
	return v, nil
}

// logAndApply persists the edit and installs the new state.
func (vs *versionSet) logAndApply(e *versionEdit) error {
	e.hasNextFile = true
	e.nextFileNum = vs.nextFileNum.Load()
	e.hasLastSeq = true
	e.lastSeq = vs.lastSeq
	v, err := vs.apply(e)
	if err != nil {
		return err
	}
	if vs.opts.ParanoidChecks && v != nil {
		if err := v.checkInvariants(); err != nil {
			return err
		}
	}
	if err := vs.manifest.addRecord(e.encode()); err != nil {
		return err
	}
	// Sync every edit: obsolete-file deletion runs right after logAndApply,
	// so an unsynced edit could orphan data a crash later cannot recover.
	return vs.manifest.sync()
}

// createNew initializes a fresh version set (new database).
func (vs *versionSet) createNew() error {
	vs.nextFileNum.Store(2)
	vs.manifestNum = vs.newFileNumber()
	f, err := vs.env.NewWritableFile(manifestFileName(vs.dir, vs.manifestNum), IOBackground)
	if err != nil {
		return err
	}
	vs.manifest = newWALWriter(f, vs.opts)
	vs.manifest.stats = nil // manifest appends are not WAL traffic
	if err := vs.writeSnapshot(); err != nil {
		return err
	}
	if err := vs.env.SyncDir(vs.dir); err != nil {
		return err
	}
	return vs.setCurrent()
}

// setCurrent atomically points CURRENT at the live manifest.
func (vs *versionSet) setCurrent() error {
	tmp := filepath.Join(vs.dir, "CURRENT.tmp")
	f, err := vs.env.NewWritableFile(tmp, IOBackground)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("MANIFEST-%06d\n", vs.manifestNum)
	if err := f.Append([]byte(name)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := vs.env.Rename(tmp, currentFileName(vs.dir)); err != nil {
		return err
	}
	// Persist the rename (and the manifest's directory entry) before
	// acknowledging: CURRENT must never name a manifest the directory lost.
	return vs.env.SyncDir(vs.dir)
}

// replay applies every edit of manifest name, a file in vs.dir, in order.
func (vs *versionSet) replay(name string) error {
	return walReplay(vs.env, filepath.Join(vs.dir, name), func(payload []byte) error {
		e, err := decodeVersionEdit(payload)
		if err != nil {
			return err
		}
		_, err = vs.apply(e)
		return err
	})
}

// recover loads the version state named by CURRENT.
func (vs *versionSet) recover() error {
	name, err := readCurrentFile(vs.env, vs.dir)
	if err != nil {
		return err
	}
	_, num := parseFileName(name)
	vs.cfs = map[uint32]*cfState{
		0: {id: 0, name: DefaultColumnFamilyName, current: newVersion(vs.opts.NumLevels)},
	}
	vs.maxCF = 0
	vs.nextFileNum.Store(num + 1)
	if err := vs.replay(name); err != nil {
		return err
	}
	// Continue appending to a fresh manifest (simpler than re-opening the
	// old one for append, and it compacts manifest history).
	vs.manifestNum = vs.newFileNumber()
	mf, err := vs.env.NewWritableFile(manifestFileName(vs.dir, vs.manifestNum), IOBackground)
	if err != nil {
		return err
	}
	vs.manifest = newWALWriter(mf, vs.opts)
	vs.manifest.stats = nil
	if err := vs.writeSnapshot(); err != nil {
		return err
	}
	if err := vs.env.SyncDir(vs.dir); err != nil {
		return err
	}
	return vs.setCurrent()
}

// snapshotEdits encodes the full current state as a sequence of edits: one
// carrying the CF directory (max id + every named family), then one per
// family with its WAL floor and files.
func (vs *versionSet) snapshotEdits() []*versionEdit {
	ids := vs.cfIDsInOrder()
	head := &versionEdit{hasMaxCF: true, maxCF: vs.maxCF}
	for _, id := range ids {
		if id == 0 {
			continue
		}
		st := vs.cfs[id]
		head.addCFs = append(head.addCFs, addCF{id: id, name: st.name, numLevels: st.current.NumLevels()})
	}
	edits := []*versionEdit{head}
	for _, id := range ids {
		st := vs.cfs[id]
		e := &versionEdit{cfID: id, hasLogNumber: true, logNumber: st.logNumber}
		for level, files := range st.current.levels {
			for _, f := range files {
				e.newFiles = append(e.newFiles, newFile{level, f})
			}
		}
		edits = append(edits, e)
	}
	return edits
}

// writeSnapshot appends the snapshot edits describing the *current* state to
// a fresh manifest, without re-applying them (the state already holds them),
// and syncs once at the end.
func (vs *versionSet) writeSnapshot() error {
	for _, e := range vs.snapshotEdits() {
		e.hasNextFile = true
		e.nextFileNum = vs.nextFileNum.Load()
		e.hasLastSeq = true
		e.lastSeq = vs.lastSeq
		if err := vs.manifest.addRecord(e.encode()); err != nil {
			return err
		}
	}
	return vs.manifest.sync()
}

// liveFileNumbers returns the set of table files referenced by any live
// column family's current version.
func (vs *versionSet) liveFileNumbers() map[uint64]bool {
	live := make(map[uint64]bool)
	for _, st := range vs.cfs {
		for _, files := range st.current.levels {
			for _, f := range files {
				live[f.Number] = true
			}
		}
	}
	return live
}

// close releases the manifest writer.
func (vs *versionSet) close() error {
	if vs.manifest != nil {
		return vs.manifest.close()
	}
	return nil
}
