package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// fileCalls counts the calls that reach one kind of file.
type fileCalls struct{ appends, syncs, asyncSyncs, reads int }

// countingEnv wraps an Env and counts, per file extension (".log", ".sst"),
// the Append, Sync and SyncAsync calls that reach the files it creates and
// the ReadAt calls that reach the files it opens for reading. On OSEnv an
// Append is one write(2) and a ReadAt one pread(2).
type countingEnv struct {
	Env
	mu    sync.Mutex
	calls map[string]*fileCalls
}

func newCountingEnv(base Env) *countingEnv {
	return &countingEnv{Env: base, calls: make(map[string]*fileCalls)}
}

func (e *countingEnv) NewWritableFile(name string, class IOClass) (WritableFile, error) {
	f, err := e.Env.NewWritableFile(name, class)
	if err != nil {
		return nil, err
	}
	return &countingFile{WritableFile: f, env: e, ext: filepath.Ext(name)}, nil
}

func (e *countingEnv) NewRandomAccessFile(name string, class IOClass) (RandomAccessFile, error) {
	f, err := e.Env.NewRandomAccessFile(name, class)
	if err != nil {
		return nil, err
	}
	return &countingRandomFile{RandomAccessFile: f, env: e, ext: filepath.Ext(name)}, nil
}

// counts returns the calls made so far on files with extension ext.
func (e *countingEnv) counts(ext string) fileCalls {
	e.mu.Lock()
	defer e.mu.Unlock()
	if c := e.calls[ext]; c != nil {
		return *c
	}
	return fileCalls{}
}

// add counts one call on a file with extension ext.
func (e *countingEnv) add(ext string, count func(*fileCalls)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	c := e.calls[ext]
	if c == nil {
		c = &fileCalls{}
		e.calls[ext] = c
	}
	count(c)
}

type countingFile struct {
	WritableFile
	env *countingEnv
	ext string
}

func (f *countingFile) Append(p []byte) error {
	f.env.add(f.ext, func(c *fileCalls) { c.appends++ })
	return f.WritableFile.Append(p)
}

func (f *countingFile) Sync() error {
	f.env.add(f.ext, func(c *fileCalls) { c.syncs++ })
	return f.WritableFile.Sync()
}

func (f *countingFile) SyncAsync() error {
	f.env.add(f.ext, func(c *fileCalls) { c.asyncSyncs++ })
	return f.WritableFile.SyncAsync()
}

type countingRandomFile struct {
	RandomAccessFile
	env *countingEnv
	ext string
}

func (f *countingRandomFile) ReadAt(p []byte, off int64, hint AccessHint) error {
	f.env.add(f.ext, func(c *fileCalls) { c.reads++ })
	return f.RandomAccessFile.ReadAt(p, off, hint)
}

// countedTableValue is entry i's value: 400 bytes, half random, half zeros.
func countedTableValue(i int) []byte {
	v := make([]byte, 400)
	rand.New(rand.NewSource(int64(i))).Read(v[:200])
	return v
}

// buildCountedTable writes n entries of 400-byte values (about 100 data
// blocks for n=1000) into one table on env through a tableBuilder and
// closes the file without syncing it, so every sync counted is the
// writer's own.
func buildCountedTable(t *testing.T, env Env, name string, opts *Options, n int) TableProps {
	t.Helper()
	f, err := env.NewWritableFile(name, IOBackground)
	if err != nil {
		t.Fatal(err)
	}
	b := newTableBuilder(newFileWriter(f, nil, nil, opts.BytesPerSync, opts.StrictBytesPerSync), opts)
	for i := 0; i < n; i++ {
		ik := makeInternalKey(nil, []byte(fmt.Sprintf("key%06d", i)), uint64(i+1), KindValue)
		if err := b.add(ik, countedTableValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	props, err := b.finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return props
}

// TestFileWritesTable: a table builder on OSEnv writes in whole
// tableWriteBufSize chunks, so a table of size bytes takes at most
// ⌈size/tableWriteBufSize⌉+1 write(2) calls (one Append per block payload
// and one per trailer would be 2 per block + 3), and every byte reads back.
func TestFileWritesTable(t *testing.T) {
	env := newCountingEnv(NewOSEnv())
	name := filepath.Join(t.TempDir(), "000001.sst")
	const n = 1000
	opts := DefaultOptions()
	opts.BloomBitsPerKey = 10
	props := buildCountedTable(t, env, name, opts, n)
	maxWrites := int((props.FileSize+tableWriteBufSize-1)/tableWriteBufSize) + 1
	if props.FileSize < 4*tableWriteBufSize {
		t.Fatalf("table is %d bytes, want several write buffers' worth", props.FileSize)
	}
	if got := env.counts(".sst").appends; got > maxWrites {
		t.Errorf("a %d-byte table took %d writes, want at most %d", props.FileSize, got, maxWrites)
	}
	r, err := openTableFile(env, name, 1, IOBackground, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	for i := 0; i < n; i++ {
		lookup := makeInternalKey(nil, []byte(fmt.Sprintf("key%06d", i)), maxSequence, KindValue)
		val, found, _, err := r.get(nil, lookup)
		if err != nil || !found || !bytes.Equal(val, countedTableValue(i)) {
			t.Fatalf("key%06d: found=%v err=%v, value intact=%v", i, found, err, bytes.Equal(val, countedTableValue(i)))
		}
	}
}

// TestFileWritesWAL: one WAL record is one Append on every Env (one
// write(2) on OSEnv), framed in the file writer's buffer. Each Env counts
// the same bytes into the DB's IOStatsContext, and the record replays at
// reopen.
func TestFileWritesWAL(t *testing.T) {
	var written [3]int64
	for i, mode := range []string{"os", "sim", "fault"} {
		t.Run(mode, func(t *testing.T) {
			base, dir := Env(NewOSEnv()), t.TempDir()
			switch mode {
			case "sim":
				base, dir = testSimEnv(), "/db"
			case "fault":
				base = NewFaultInjectionEnv(NewOSEnv(), 1)
			}
			env := newCountingEnv(base)
			opts := DefaultOptions()
			opts.Env = env
			db, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			db.SetPerfLevel(PerfEnableCount)
			before, bytesBefore := env.counts(".log").appends, db.IOStats().bytesWritten.Load()
			if err := db.Put(nil, []byte("key"), []byte("value")); err != nil {
				t.Fatal(err)
			}
			if got := env.counts(".log").appends - before; got != 1 {
				t.Errorf("one WAL record took %d Appends, want 1", got)
			}
			written[i] = db.IOStats().bytesWritten.Load() - bytesBefore
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			opts.Env = base
			db, err = Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if v, err := db.Get(nil, []byte("key")); err != nil || string(v) != "value" {
				t.Errorf("after reopen Get = %q, %v; want value", v, err)
			}
		})
	}
	if written[0] != written[1] || written[0] != written[2] || written[0] == 0 {
		t.Errorf("one WAL record counted %d bytes on OSEnv, %d on SimEnv and %d on FaultInjectionEnv, want the same nonzero count", written[0], written[1], written[2])
	}
}

// TestFileWritesBytesPerSync: bytes_per_sync makes the table builder start
// writeback once per bytes_per_sync bytes written (here once per full write
// buffer), with SyncAsync unless strict_bytes_per_sync asks for a full Sync;
// 0 leaves every sync to the table's owner. The wal rows set
// wal_bytes_per_sync live on an open DB, and the WAL's next appends obey it.
func TestFileWritesBytesPerSync(t *testing.T) {
	for _, tc := range []struct {
		bps    int64
		strict bool
		wal    bool
	}{{0, false, false}, {64 << 10, false, false}, {64 << 10, true, false}, {4096, false, true}, {4096, true, true}} {
		name := fmt.Sprint(tc.bps)
		if tc.strict {
			name += "-strict"
		}
		if tc.wal {
			name = "wal-" + name
		}
		t.Run(name, func(t *testing.T) {
			env := newCountingEnv(NewOSEnv())
			opts := DefaultOptions()
			if tc.wal {
				checkLiveWALBytesPerSync(t, env, opts, tc.bps, tc.strict)
				return
			}
			opts.BytesPerSync = tc.bps
			opts.StrictBytesPerSync = tc.strict
			props := buildCountedTable(t, env, filepath.Join(t.TempDir(), "000001.sst"), opts, 1000)
			periodic := 0
			if tc.bps > 0 {
				periodic = int(props.FileSize / tc.bps)
			}
			wantSyncs, wantAsync := 0, periodic
			if tc.strict {
				wantSyncs, wantAsync = periodic, 0
			}
			c := env.counts(".sst")
			if c.syncs != wantSyncs || c.asyncSyncs != wantAsync || (tc.bps > 0 && periodic == 0) {
				t.Errorf("bytes_per_sync=%d strict=%v: %d syncs and %d async syncs for a %d-byte table, want %d and %d",
					tc.bps, tc.strict, c.syncs, c.asyncSyncs, props.FileSize, wantSyncs, wantAsync)
			}
		})
	}
}

// checkLiveWALBytesPerSync opens a DB on env with wal_bytes_per_sync off,
// sets it to bps with SetOptions, and checks that 1 000 Puts of 400-byte
// values, with no memtable switch between them, sync the WAL once per bps
// bytes: each sync covers at least bps bytes and less than bps plus one
// record, with SyncAsync unless strict.
func checkLiveWALBytesPerSync(t *testing.T, env *countingEnv, opts *Options, bps int64, strict bool) {
	t.Helper()
	opts.Env = env
	opts.StrictBytesPerSync = strict
	opts.Stats = NewStatistics()
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.SetOptions(nil, map[string]string{"wal_bytes_per_sync": fmt.Sprint(bps)}); err != nil {
		t.Fatal(err)
	}
	before, bytesBefore := env.counts(".log"), opts.Stats.Get(TickerWALBytes)
	const n = 1000
	for i := 0; i < n; i++ {
		if err := db.Put(nil, []byte(fmt.Sprintf("key%06d", i)), countedTableValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	after := env.counts(".log")
	written := opts.Stats.Get(TickerWALBytes) - bytesBefore
	got := after.asyncSyncs - before.asyncSyncs
	other := after.syncs - before.syncs
	if strict {
		got, other = other, got
	}
	most, least := int(written/bps), int(written/(bps+written/n))
	t.Logf("%d WAL bytes: %d periodic syncs (%d to %d)", written, got, least, most)
	if got < least || got > most || least == 0 || other != 0 {
		t.Errorf("wal_bytes_per_sync=%d strict=%v set live: %d periodic syncs and %d of the other kind for %d WAL bytes, want %d to %d and 0",
			bps, strict, got, other, written, least, most)
	}
}

// TestFileWritesAbandonedBuild: a compaction that fails mid-table (an
// injected read fault on its third L1 input) gives the abandoned table
// writer's buffer and every input run's read window back to the DB's free
// list. Every job of this DB runs alone, so the list ends up holding what
// that compaction had out at once: a window per L0 table, one for the L1
// run and the writer's buffer.
func TestFileWritesAbandonedBuild(t *testing.T) {
	fault := NewFaultInjectionEnv(NewOSEnv(), 1)
	db, _ := openHandBackDB(t, fault)
	want := db.vs.head(0).NumLevelFiles(0) + 2
	third := db.vs.head(0).LevelFiles(1)[2].Number
	fault.Inject(FaultRule{Op: FaultRead, Pattern: filepath.Base(tableFileName(db.dir, third)), Classes: []IOClass{IOBackground}})
	if err := db.CompactRange(nil, nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("CompactRange = %v, want the injected read fault", err)
	}
	db.writeBufs.spares.mu.Lock()
	spares := len(db.writeBufs.spares.spare)
	db.writeBufs.spares.mu.Unlock()
	if spares != want {
		t.Errorf("after the failed compaction the DB keeps %d file buffers, want %d", spares, want)
	}
}

// TestAllocGateTableWriteBuf gates the write buffers and table builders:
// once a DB has flushed a table (about 170 KB), flushing another takes the
// first one's write buffer and table builder from the DB's lists, so the
// flush writes through the same builder and allocates none of its block,
// filter or key buffers: under 16 KiB in all (9.6 KB measured; 30 KB with a
// builder grown per flush); and a single-record WAL append framed in its
// writer's buffer on an OSEnv file allocates nothing.
func TestAllocGateTableWriteBuf(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled buffers under -race")
	}
	t.Run("flush", func(t *testing.T) {
		opts := DefaultOptions()
		opts.DisableAutoCompactions = true
		db, err := Open(t.TempDir(), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		val := bytes.Repeat([]byte("v"), 400)
		fill := func(round int) {
			for i := 0; i < 400; i++ {
				if err := db.Put(nil, []byte(fmt.Sprintf("key%06d-%d", i, round)), val); err != nil {
					t.Fatal(err)
				}
			}
		}
		fill(0)
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		spare := func() *tableBuilder {
			db.builders.mu.Lock()
			defer db.builders.mu.Unlock()
			if len(db.builders.spare) != 1 {
				t.Fatalf("the DB keeps %d table builders between flushes, want 1", len(db.builders.spare))
			}
			return db.builders.spare[0]
		}
		first := spare()
		// The least of three flushes, so that a background allocation
		// landing in one window does not fail the gate.
		least := uint64(1 << 62)
		for round := 1; round <= 3; round++ {
			fill(round)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
			if spare() != first {
				t.Fatalf("flush %d wrote through a new table builder, want the first flush's", round)
			}
		}
		t.Logf("a flush on a warmed DB allocates %d bytes", least)
		if least >= 16<<10 {
			t.Errorf("a flush on a warmed DB allocated %d bytes, want under 16 KiB", least)
		}
	})
	t.Run("wal", func(t *testing.T) {
		f, err := NewOSEnv().NewWritableFile(filepath.Join(t.TempDir(), "000001.log"), IOForeground)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		w := newWALWriter(f, DefaultOptions(), nil, &IOStatsContext{})
		payloads := [][]byte{[]byte(strings.Repeat("p", 200))}
		if avg := testing.AllocsPerRun(500, func() {
			if err := w.addRecords(payloads, 0, false); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("a joined WAL record allocates %.2f/op, want 0", avg)
		}
	})
}

// TestFileReadsWALReplay: replaying an OSEnv log reads it forward in
// tableWriteBufSize reads, so a log of size bytes takes at most
// ⌈size/tableWriteBufSize⌉+1 pread(2) calls (a header read and a payload read
// per record would be two per record), and what a replay allocates does not
// grow with the number of records.
func TestFileReadsWALReplay(t *testing.T) {
	dir := t.TempDir()
	writeLog := func(n int) (string, int64) {
		name := logFileName(dir, uint64(n))
		batches := make([]*WriteBatch, n)
		for i := range batches {
			batches[i] = putBatch(uint64(i+1), fmt.Sprintf("key%06d", i), "value")
		}
		buildLogFile(t, NewOSEnv(), name, nil, batches...)
		size, err := NewOSEnv().FileSize(name)
		if err != nil {
			t.Fatal(err)
		}
		return name, size
	}
	replay := func(env Env, name string) int {
		records := 0
		if _, err := walReplayMode(env, name, nil, WALRecoverAbsoluteConsistency, false, nil,
			func([]byte) error { records++; return nil }); err != nil {
			t.Fatal(err)
		}
		return records
	}
	const n = 2000
	name, size := writeLog(n)
	if size <= tableWriteBufSize {
		t.Fatalf("the log is %d bytes, want more than one %d-byte read", size, tableWriteBufSize)
	}
	env := newCountingEnv(NewOSEnv())
	if got := replay(env, name); got != n {
		t.Fatalf("replayed %d records, want %d", got, n)
	}
	maxReads := int((size+tableWriteBufSize-1)/tableWriteBufSize) + 1
	reads := env.counts(".log").reads
	t.Logf("%d records, %d bytes: %d reads (at most %d)", n, size, reads, maxReads)
	if reads > maxReads {
		t.Errorf("replaying a %d-byte log took %d reads, want at most %d", size, reads, maxReads)
	}

	small, _ := writeLog(n / 10)
	allocs := func(name string) float64 {
		return testing.AllocsPerRun(20, func() { replay(NewOSEnv(), name) })
	}
	few, many := allocs(small), allocs(name)
	t.Logf("allocations per replay: %.1f at %d records, %.1f at %d", few, n/10, many, n)
	if many-few > 2 {
		t.Errorf("a replay of %d records allocates %.1f, of %d records %.1f: want the same up to 2", n/10, few, n, many)
	}
}

// TestFileReadsTable: a sequential scan of an OSEnv table reads its data
// blocks through the file reader's window, so a table of about 100 data
// blocks takes at most ⌈data bytes/tableWriteBufSize⌉ window reads plus
// the footer, index and filter reads at open (one pread(2) per block would
// be about 103), and the scan finds every entry. The window stops at the
// last data block, so the bytes the reads book are the data bytes plus the
// footer, index and filter.
func TestFileReadsTable(t *testing.T) {
	name := filepath.Join(t.TempDir(), "000001.sst")
	const n = 1000
	opts := DefaultOptions()
	opts.BloomBitsPerKey = 10
	props := buildCountedTable(t, NewOSEnv(), name, opts, n)
	r, err := openTableFile(NewOSEnv(), name, 1, IOBackground, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, tail := r.f.limit, int64(footerSize+len(r.indexRaw)+len(r.filter)+2*blockTrailerSize)
	r.close()

	env := newCountingEnv(NewOSEnv())
	meta, _, err := scanTable(env, name, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Entries != n || meta.Size != props.FileSize {
		t.Errorf("the scan found %d entries in %d bytes, want %d in %d", meta.Entries, meta.Size, n, props.FileSize)
	}
	reads := env.counts(".sst").reads
	maxReads := int((data+tableWriteBufSize-1)/tableWriteBufSize) + 3
	t.Logf("%d data bytes: %d reads (at most %d)", data, reads, maxReads)
	if data < 4*tableWriteBufSize {
		t.Fatalf("the table holds %d data bytes, want several windows' worth", data)
	}
	if reads > maxReads {
		t.Errorf("scanning a table of %d data bytes took %d reads, want at most %d", data, reads, maxReads)
	}

	// The bytes booked: every data byte once, and the table's tail.
	f, err := openFileReader(NewOSEnv(), name, IOBackground, nil, &IOStatsContext{})
	if err != nil {
		t.Fatal(err)
	}
	f.io.SetLevel(PerfEnableCount)
	r, err = openTable(NewOSEnv(), f, 1, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	var it tableIter
	it.init(r, HintSequential)
	for it.SeekToFirst(); it.Valid(); it.Next() {
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if got := f.io.BytesRead(); got != data+tail {
		t.Errorf("a scan booked %d bytes read, want %d data bytes and a %d-byte tail", got, data, tail)
	}
}

// TestAllocGateCompactionWindow: a compaction reads each input run through
// a window from the DB's buffer list, and the list keeps what the job had
// out at once, so once one CompactRange has drained four L0 tables into L1,
// the next drain of the same shape takes every window, its writer's buffer
// and its table builder from the DB's lists and allocates less than one
// window in all (42.8 KB measured, most of it the index and filter blocks
// each input's open reads; about 300 KB for the first drain).
func TestAllocGateCompactionWindow(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled buffers under -race")
	}
	opts := DefaultOptions()
	opts.DisableAutoCompactions = true
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte("v"), 100)
	drain := func(round int) uint64 {
		for tbl := 0; tbl < 4; tbl++ {
			for i := tbl; i < 800; i += 4 {
				if err := db.Put(nil, []byte(fmt.Sprintf("key%06d", i)), val); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := db.CompactRange(nil, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first := drain(0)
	// The least of three drains, so that a background allocation landing in
	// one window does not fail the gate.
	least := uint64(1 << 62)
	for round := 1; round <= 3; round++ {
		least = min(least, drain(round))
	}
	t.Logf("the first drain allocates %d bytes, a warmed one %d", first, least)
	if least >= tableWriteBufSize {
		t.Errorf("a drain on a warmed DB allocated %d bytes, want under one %d-byte window", least, tableWriteBufSize)
	}
}
