package lsm

import (
	"bytes"
	"fmt"
	"sort"
	"sync/atomic"
)

// FileMeta describes one live SSTable.
type FileMeta struct {
	Number   uint64
	Size     int64
	Smallest internalKey
	Largest  internalKey
	Entries  int64
}

func (f *FileMeta) String() string {
	return fmt.Sprintf("#%d(%d bytes, %s..%s)", f.Number, f.Size, f.Smallest, f.Largest)
}

// Version is an immutable snapshot of the LSM tree shape: the set of live
// files per level. Level 0 is ordered newest-first and files may overlap;
// levels 1+ are key-sorted and disjoint.
type Version struct {
	levels [][]*FileMeta

	// refs counts readers (Get/MultiGet captures, open iterators) holding
	// this version. While positive, deleteObsoleteFilesLocked keeps the
	// version's files on disk even after newer versions retire them.
	// Incremented under db.mu; decremented lock-free on read completion.
	refs atomic.Int32
	// num orders versions by creation, DB-wide (versionSet.number): a
	// reader holding a version numbered below a memtable's retirement may
	// still see that memtable (DB.recycleRetiredLocked).
	num uint64
}

// newVersion allocates an empty version with n levels.
func newVersion(n int) *Version {
	return &Version{levels: make([][]*FileMeta, n)}
}

// NumLevels returns the level count.
func (v *Version) NumLevels() int { return len(v.levels) }

// LevelFiles returns the files at a level (shared slice: do not mutate).
func (v *Version) LevelFiles(level int) []*FileMeta {
	if level < 0 || level >= len(v.levels) {
		return nil
	}
	return v.levels[level]
}

// NumLevelFiles returns the file count at a level.
func (v *Version) NumLevelFiles(level int) int { return len(v.LevelFiles(level)) }

// LevelBytes returns the byte total at a level.
func (v *Version) LevelBytes(level int) int64 {
	var n int64
	for _, f := range v.LevelFiles(level) {
		n += f.Size
	}
	return n
}

// overlapsRange reports whether file f's key range intersects [smallest,
// largest] by user key.
func overlapsRange(f *FileMeta, smallestUser, largestUser []byte) bool {
	if largestUser != nil && bytes.Compare(f.Smallest.userKey(), largestUser) > 0 {
		return false
	}
	if smallestUser != nil && bytes.Compare(f.Largest.userKey(), smallestUser) < 0 {
		return false
	}
	return true
}

// overlappingFiles returns the files at level whose user-key ranges
// intersect [smallest, largest] (nil bounds are open).
func (v *Version) overlappingFiles(level int, smallestUser, largestUser []byte) []*FileMeta {
	var out []*FileMeta
	for _, f := range v.LevelFiles(level) {
		if overlapsRange(f, smallestUser, largestUser) {
			out = append(out, f)
		}
	}
	return out
}

// levelFileForGet returns the single file at a sorted (disjoint) level that
// may contain userKey, or nil. Only valid for levels >= 1.
func (v *Version) levelFileForGet(level int, userKey []byte) *FileMeta {
	files := v.levels[level]
	// Binary search: first file with Largest >= userKey.
	i := sort.Search(len(files), func(i int) bool {
		return bytes.Compare(files[i].Largest.userKey(), userKey) >= 0
	})
	if i < len(files) && bytes.Compare(files[i].Smallest.userKey(), userKey) <= 0 {
		return files[i]
	}
	return nil
}

// levelCapacity returns the target byte size of a level under the options.
func levelCapacity(opts *Options, level int) int64 {
	if level <= 0 {
		return 0 // L0 is governed by file count, not bytes
	}
	cap := float64(opts.MaxBytesForLevelBase)
	for l := 1; l < level; l++ {
		cap *= opts.MaxBytesForLevelMultiplier
	}
	return int64(cap)
}

// targetFileSize returns the output file size for a level.
func targetFileSize(opts *Options, level int) int64 {
	size := opts.TargetFileSizeBase
	for l := 1; l < level; l++ {
		size *= int64(opts.TargetFileSizeMultiplier)
		if opts.TargetFileSizeMultiplier <= 1 {
			break
		}
	}
	if size < 1<<16 {
		size = 1 << 16
	}
	return size
}

// pendingCompactionBytes estimates the byte debt above level capacities —
// the quantity behind soft/hard_pending_compaction_bytes_limit stalls.
func (v *Version) pendingCompactionBytes(opts *Options) int64 {
	var debt int64
	// L0 debt: bytes beyond the compaction trigger.
	l0 := v.levels[0]
	if len(l0) > opts.Level0FileNumCompactionTrigger {
		for _, f := range l0[:len(l0)-opts.Level0FileNumCompactionTrigger] {
			debt += f.Size
		}
	}
	for l := 1; l < len(v.levels)-1; l++ {
		if over := v.LevelBytes(l) - levelCapacity(opts, l); over > 0 {
			debt += over
		}
	}
	return debt
}

// clone duplicates the version's level slices (metas shared).
func (v *Version) clone() *Version {
	nv := newVersion(len(v.levels))
	for l := range v.levels {
		nv.levels[l] = append([]*FileMeta(nil), v.levels[l]...)
	}
	return nv
}

// sortLevel orders a level's files: L0 newest-first (by file number
// descending), deeper levels by smallest key.
func sortLevel(level int, files []*FileMeta) {
	if level == 0 {
		sort.Slice(files, func(i, j int) bool { return files[i].Number > files[j].Number })
	} else {
		sort.Slice(files, func(i, j int) bool {
			return compareInternal(files[i].Smallest, files[j].Smallest) < 0
		})
	}
}

// checkInvariants validates level ordering/disjointness (used by tests and
// paranoid mode).
func (v *Version) checkInvariants() error {
	for l := 1; l < len(v.levels); l++ {
		files := v.levels[l]
		for i := 1; i < len(files); i++ {
			if compareInternal(files[i-1].Largest, files[i].Smallest) >= 0 {
				return fmt.Errorf("lsm: level %d files overlap: %s then %s", l, files[i-1], files[i])
			}
		}
	}
	return nil
}
