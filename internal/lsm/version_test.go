package lsm

import (
	"testing"
)

func fm(num uint64, size int64, lo, hi string) *FileMeta {
	return &FileMeta{
		Number:   num,
		Size:     size,
		Smallest: makeInternalKey(nil, []byte(lo), maxSequence, KindValue),
		Largest:  makeInternalKey(nil, []byte(hi), 0, KindDelete),
	}
}

func TestVersionLevelAccounting(t *testing.T) {
	v := newVersion(7)
	v.levels[0] = []*FileMeta{fm(3, 100, "a", "m"), fm(2, 50, "c", "z")}
	v.levels[1] = []*FileMeta{fm(1, 200, "a", "f"), fm(4, 300, "g", "p")}
	if v.NumLevelFiles(0) != 2 || v.LevelBytes(1) != 500 {
		t.Fatalf("accounting wrong: %d %d", v.NumLevelFiles(0), v.LevelBytes(1))
	}
}

func TestVersionOverlaps(t *testing.T) {
	v := newVersion(7)
	v.levels[1] = []*FileMeta{fm(1, 10, "b", "d"), fm(2, 10, "f", "h"), fm(3, 10, "k", "m")}
	got := v.overlappingFiles(1, []byte("c"), []byte("g"))
	if len(got) != 2 || got[0].Number != 1 || got[1].Number != 2 {
		t.Fatalf("overlapping = %v", got)
	}
	if got := v.overlappingFiles(1, nil, nil); len(got) != 3 {
		t.Fatalf("open range overlap = %v", got)
	}
	if got := v.overlappingFiles(1, []byte("x"), []byte("z")); len(got) != 0 {
		t.Fatalf("no-overlap = %v", got)
	}
}

// TestVersionFilesForGet: a Get probes the tables lookupInTables walks in
// its order — overlapping L0 files newest first, then the one candidate of
// each deeper level — so the first table holding a key answers.
func TestVersionFilesForGet(t *testing.T) {
	db, _ := openTestDB(t, func(o *Options) { o.DisableAutoCompactions = true })
	defer db.Close()
	put := func(kvs ...string) {
		t.Helper()
		for i := 0; i < len(kvs); i += 2 {
			if err := db.Put(nil, []byte(kvs[i]), []byte(kvs[i+1])); err != nil {
				t.Fatal(err)
			}
		}
	}
	put("a", "l1", "e", "l1", "p", "l1", "q", "l1")
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	put("p", "old", "q", "old")
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	put("a", "new", "p", "new", "z", "new")
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	m := db.GetMetrics()
	if m.LevelFiles[0] != 2 || m.LevelFiles[len(m.LevelFiles)-1] != 1 {
		t.Fatalf("level files %v, want 2 in L0 and 1 in the last level", m.LevelFiles)
	}
	for key, want := range map[string]string{
		"a": "new", // newer L0 file before the deeper level
		"p": "new", // both L0 files hold it: newest first
		"q": "old", // the newer L0 file spans q but lacks it
		"e": "l1",  // both L0 files miss: the deeper level answers
	} {
		if v, err := db.Get(nil, []byte(key)); err != nil || string(v) != want {
			t.Errorf("Get(%s) = %q, %v; want %q", key, v, err, want)
		}
	}
	if _, err := db.Get(nil, []byte("x")); err != ErrNotFound {
		t.Errorf("Get(x) = %v, want ErrNotFound", err)
	}
}

func TestVersionInvariants(t *testing.T) {
	v := newVersion(3)
	v.levels[1] = []*FileMeta{fm(1, 10, "a", "m"), fm(2, 10, "c", "z")}
	if err := v.checkInvariants(); err == nil {
		t.Fatal("overlapping L1 accepted")
	}
	v.levels[1] = []*FileMeta{fm(1, 10, "a", "c"), fm(2, 10, "d", "z")}
	if err := v.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionScore pins the scores pickLeveled ranks levels by: L0 is
// file count over the trigger (8 files over 4: 2.0), a deeper level bytes
// over capacity (5000 over 1000: 5.0). Each is bracketed by a rival level
// scoring just below and just above it.
func TestCompactionScore(t *testing.T) {
	opts := DefaultOptions()
	opts.Level0FileNumCompactionTrigger = 4
	opts.MaxBytesForLevelBase = 1000
	opts.MaxBytesForLevelMultiplier = 10
	opts.LevelCompactionDynamicLevelBytes = false
	pick := func(l0Files int, l1Bytes int64) int {
		v := newVersion(7)
		for i := 0; i < l0Files; i++ {
			v.levels[0] = append(v.levels[0], fm(uint64(10+i), 100, "a", "z"))
		}
		v.levels[1] = []*FileMeta{fm(1, l1Bytes, "a", "c")}
		c := pickLeveled(v, opts, nil)
		if c == nil {
			t.Fatalf("%d L0 files, L1 %d bytes: no compaction picked", l0Files, l1Bytes)
		}
		return c.level
	}
	// L0 at 2.0 against L1 at 1.999 and 2.001.
	if l := pick(8, 1999); l != 0 {
		t.Fatalf("L0 2.0 vs L1 1.999 picked L%d, want L0", l)
	}
	if l := pick(8, 2001); l != 1 {
		t.Fatalf("L0 2.0 vs L1 2.001 picked L%d, want L1", l)
	}
	// An oversized L1 at 5.0 against L0 at 4.75 and 5.25.
	if l := pick(19, 5000); l != 1 {
		t.Fatalf("L1 5.0 vs L0 4.75 picked L%d, want L1", l)
	}
	if l := pick(21, 5000); l != 0 {
		t.Fatalf("L1 5.0 vs L0 5.25 picked L%d, want L0", l)
	}
}

func TestPendingCompactionBytes(t *testing.T) {
	opts := DefaultOptions()
	opts.Level0FileNumCompactionTrigger = 2
	opts.MaxBytesForLevelBase = 100
	v := newVersion(7)
	v.levels[0] = []*FileMeta{fm(4, 10, "a", "b"), fm(3, 10, "a", "b"), fm(2, 10, "a", "b")}
	v.levels[1] = []*FileMeta{fm(1, 150, "a", "z")}
	debt := v.pendingCompactionBytes(opts)
	// one L0 file beyond trigger (10) + 50 over L1 capacity.
	if debt != 60 {
		t.Fatalf("debt = %d, want 60", debt)
	}
}

func TestVersionEditEncodeDecode(t *testing.T) {
	e := &versionEdit{
		hasLogNumber: true, logNumber: 7,
		hasNextFile: true, nextFileNum: 42,
		hasLastSeq: true, lastSeq: 999,
		deletedFiles: []deletedFile{{0, 3}, {2, 9}},
		newFiles: []newFile{
			{1, fm(10, 1234, "aaa", "zzz")},
		},
	}
	enc := e.encode()
	d, err := decodeVersionEdit(enc)
	if err != nil {
		t.Fatal(err)
	}
	if d.logNumber != 7 || d.nextFileNum != 42 || d.lastSeq != 999 {
		t.Fatalf("scalars: %+v", d)
	}
	if len(d.deletedFiles) != 2 || d.deletedFiles[1] != (deletedFile{2, 9}) {
		t.Fatalf("deleted: %+v", d.deletedFiles)
	}
	if len(d.newFiles) != 1 || d.newFiles[0].meta.Size != 1234 ||
		string(d.newFiles[0].meta.Smallest.userKey()) != "aaa" {
		t.Fatalf("new files: %+v", d.newFiles)
	}
}

func TestVersionEditDecodeErrors(t *testing.T) {
	if _, err := decodeVersionEdit([]byte{200}); err == nil {
		t.Fatal("unknown tag accepted")
	}
	if _, err := decodeVersionEdit([]byte{tagNewFile, 1}); err == nil {
		t.Fatal("truncated edit accepted")
	}
}

func TestLevelCapacityAndTargetFileSize(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxBytesForLevelBase = 1000
	opts.MaxBytesForLevelMultiplier = 10
	if c := levelCapacity(opts, 1); c != 1000 {
		t.Fatalf("L1 cap = %d", c)
	}
	if c := levelCapacity(opts, 3); c != 100000 {
		t.Fatalf("L3 cap = %d", c)
	}
	opts.TargetFileSizeBase = 1 << 20
	opts.TargetFileSizeMultiplier = 2
	if s := targetFileSize(opts, 1); s != 1<<20 {
		t.Fatalf("L1 target = %d", s)
	}
	if s := targetFileSize(opts, 3); s != 4<<20 {
		t.Fatalf("L3 target = %d", s)
	}
}

func TestDynamicLevelCapacities(t *testing.T) {
	opts := DefaultOptions()
	opts.LevelCompactionDynamicLevelBytes = true
	opts.MaxBytesForLevelBase = 1 << 20
	opts.MaxBytesForLevelMultiplier = 10
	opts.TargetFileSizeBase = 1 << 16 // below the smallest expected capacity
	v := newVersion(4)
	v.levels[3] = []*FileMeta{fm(1, 100<<20, "a", "z")}
	caps := levelCapacities(v, opts)
	if caps[3] != 100<<20 {
		t.Fatalf("bottom cap = %d", caps[3])
	}
	if caps[2] != 10<<20 || caps[1] != 1<<20 {
		t.Fatalf("upper caps = %v", caps)
	}
}

func TestParseFileNames(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind fileKind
		num  uint64
	}{
		{"CURRENT", fileKindCurrent, 0},
		{"MANIFEST-000007", fileKindManifest, 7},
		{"000012.log", fileKindLog, 12},
		{"000099.sst", fileKindTable, 99},
		{"OPTIONS-000004", fileKindOptions, 4},
		{"LOG.old", fileKindUnknown, 0},
		{"xyz.sst", fileKindUnknown, 0},
	} {
		kind, num := parseFileName(tc.name)
		if kind != tc.kind || num != tc.num {
			t.Errorf("parseFileName(%q) = %v, %d", tc.name, kind, num)
		}
	}
}

func TestBlockCacheLRU(t *testing.T) {
	c := newBlockCache(256 << 10)
	id := c.NewID()
	for i := uint64(0); i < 2000; i++ {
		c.Insert(id, i, nil, make([]byte, 1024)).release()
	}
	// Capacity plus one straggler entry per shard of slack.
	if used := c.Used(); used > (256<<10)+16*1100 {
		t.Fatalf("cache over capacity: %d", used)
	}
	// Recent entries survive, oldest evicted.
	h := c.Lookup(id, 1999)
	if h == nil {
		t.Fatal("most recent entry evicted")
	}
	h.release()
	if c.Lookup(id, 0) != nil {
		t.Fatal("oldest entry survived heavy insertion")
	}
	hits, misses := c.HitRate()
	if hits == 0 || misses == 0 {
		t.Fatalf("hit/miss accounting: %d/%d", hits, misses)
	}
	c.EraseID(id)
	if c.Lookup(id, 99) != nil {
		t.Fatal("EraseID left entries")
	}
}

func TestPickLeveledBusyFiles(t *testing.T) {
	opts := DefaultOptions()
	opts.Level0FileNumCompactionTrigger = 2
	v := newVersion(7)
	v.levels[0] = []*FileMeta{fm(5, 10, "a", "z"), fm(4, 10, "a", "z")}
	sortLevel(0, v.levels[0])
	busy := map[uint64]bool{5: true}
	if c := pickCompaction(v, opts, busy); c != nil {
		t.Fatalf("picked compaction with busy L0 file: %v", c)
	}
	if c := pickCompaction(v, opts, map[uint64]bool{}); c == nil || len(c.inputs[0]) != 2 {
		t.Fatalf("pick = %+v", c)
	}
}
