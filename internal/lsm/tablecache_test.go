package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestTableCacheMaxOpenFiles reads a DB of more tables than max_open_files
// allows open: the table cache keeps at most that many readers, and a table
// whose reader was evicted reads again through a reopened one.
func TestTableCacheMaxOpenFiles(t *testing.T) {
	const tables, perTable = 5, 50
	db, _ := openTestDB(t, func(o *Options) {
		o.MaxOpenFiles = 2
		o.DisableAutoCompactions = true
	})
	defer db.Close()
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%05d", i)) }
	for i := 0; i < tables*perTable; i++ {
		if err := db.Put(nil, key(i), key(i)); err != nil {
			t.Fatal(err)
		}
		if (i+1)%perTable == 0 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := db.GetMetrics().LevelFiles[0]; n < 4 {
		t.Fatalf("%d L0 tables, want at least 4", n)
	}
	misses := db.stats.Get(TickerTableCacheMiss)
	// Two passes: the second finds every table's reader evicted by the first.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < tables*perTable; i++ {
			v, err := db.Get(nil, key(i))
			if err != nil || !bytes.Equal(v, key(i)) {
				t.Fatalf("pass %d: Get(%s) = %q, %v", pass, key(i), v, err)
			}
			db.tcache.mu.Lock()
			open := len(db.tcache.lru.m)
			db.tcache.mu.Unlock()
			if open > 2 {
				t.Fatalf("pass %d: %d readers open, max_open_files=2", pass, open)
			}
		}
	}
	if reopened := db.stats.Get(TickerTableCacheMiss) - misses; reopened < 2*tables {
		t.Fatalf("%d table opens over two passes of %d tables, want every table reopened", reopened, tables)
	}
}

// openTablesEnv counts the table files open on an env: opens of *.sst
// files minus their closes, and of those opened with the background IO
// class, the number open and the most open at once.
type openTablesEnv struct {
	Env
	open   atomic.Int64
	mu     sync.Mutex
	bg     int
	bgPeak int
}

type countedTableFile struct {
	RandomAccessFile
	env  *openTablesEnv
	bg   bool
	once sync.Once
}

func (e *openTablesEnv) NewRandomAccessFile(name string, class IOClass) (RandomAccessFile, error) {
	f, err := e.Env.NewRandomAccessFile(name, class)
	if err != nil || !strings.HasSuffix(name, ".sst") {
		return f, err
	}
	e.open.Add(1)
	bg := class == IOBackground
	if bg {
		e.mu.Lock()
		e.bg++
		e.bgPeak = max(e.bgPeak, e.bg)
		e.mu.Unlock()
	}
	return &countedTableFile{RandomAccessFile: f, env: e, bg: bg}, nil
}

func (f *countedTableFile) Close() error {
	f.once.Do(func() {
		f.env.open.Add(-1)
		if f.bg {
			f.env.mu.Lock()
			f.env.bg--
			f.env.mu.Unlock()
		}
	})
	return f.RandomAccessFile.Close()
}

// bgCounts returns the background readers open now and the most open at
// once since the last call, and restarts that peak from what is open.
func (e *openTablesEnv) bgCounts() (open, peak int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	open, peak = e.bg, e.bgPeak
	e.bgPeak = e.bg
	return open, peak
}

const overlapTables, overlapPerTable = 5, 200

func overlapKey(i int) []byte { return []byte(fmt.Sprintf("key%05d", i)) }

// openOverlappingL0 opens a real-file DB under max_open_files=2 holding five
// L0 tables of 200 interleaved keys each (table t holds every key i with
// i%5 == t), in 256-byte blocks: every table spans the whole key range, so
// an iterator is on all five at once while the cache keeps two.
func openOverlappingL0(t *testing.T) (*DB, *openTablesEnv) {
	t.Helper()
	env := &openTablesEnv{Env: NewOSEnv()}
	opts := DefaultOptions()
	opts.Env = env
	opts.MaxOpenFiles = 2
	opts.BlockSize = 256
	opts.DisableAutoCompactions = true
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for tbl := 0; tbl < overlapTables; tbl++ {
		for j := 0; j < overlapPerTable; j++ {
			k := overlapKey(j*overlapTables + tbl)
			if err := db.Put(nil, k, k); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if n := db.GetMetrics().LevelFiles[0]; n != overlapTables {
		t.Fatalf("%d L0 tables, want %d", n, overlapTables)
	}
	return db, env
}

// TestTableReaderOutlivesEviction: an iterator reads 10 keys, Gets of every
// 7th key evict the readers it is on from the table cache, and the iterator
// resumes. It must read all 1 000 keys: a reader closes only when the last
// of the cache, the iterator and the Gets lets go of it.
func TestTableReaderOutlivesEviction(t *testing.T) {
	db, env := openOverlappingL0(t)
	const keys = overlapTables * overlapPerTable
	it := db.NewIterator(nil)
	n := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if !bytes.Equal(it.Key(), overlapKey(n)) {
			t.Fatalf("key %d: iterator at %q", n, it.Key())
		}
		if n++; n == 10 {
			for i := 0; i < keys; i += 7 {
				if v, err := db.Get(nil, overlapKey(i)); err != nil || !bytes.Equal(v, overlapKey(i)) {
					t.Fatalf("Get(%s) = %q, %v", overlapKey(i), v, err)
				}
			}
		}
	}
	if err := it.Close(); err != nil || n != keys {
		t.Fatalf("iterator read %d of %d keys, err %v", n, keys, err)
	}
	if open := env.open.Load(); open > 2 {
		t.Fatalf("%d table files open after the reads, max_open_files=2", open)
	}
}

// TestTableReadersConcurrent runs Gets and iterators side by side under
// max_open_files=2 (a -race target): no read may fail, and once every
// reader has let go at most the cache's 2 readers stay open.
func TestTableReadersConcurrent(t *testing.T) {
	db, env := openOverlappingL0(t)
	const keys = overlapTables * overlapPerTable
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := g; i < 3*keys; i += 3 {
				k := overlapKey(i % keys)
				if v, err := db.Get(nil, k); err != nil || !bytes.Equal(v, k) {
					errs <- fmt.Errorf("Get(%s) = %q, %v", k, v, err)
					return
				}
			}
		}(g)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				it := db.NewIterator(nil)
				n := 0
				for it.SeekToFirst(); it.Valid(); it.Next() {
					n++
				}
				if err := it.Close(); err != nil || n != keys {
					errs <- fmt.Errorf("iterator pass %d read %d of %d keys, err %v", pass, n, keys, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if open := env.open.Load(); open > 2 {
		t.Fatalf("%d table files open after the reads, max_open_files=2", open)
	}
}

const handBackKeys = 640

// openHandBackDB opens a two-level real-file DB over base holding an L1 of
// at least 8 tables (640 keys of 1 000 bytes, 64 KiB tables) under four L0
// tables that each span the whole key range, so a CompactRange takes every
// table as an input.
func openHandBackDB(t *testing.T, base Env) (*DB, *openTablesEnv) {
	t.Helper()
	env := &openTablesEnv{Env: base}
	opts := DefaultOptions()
	opts.Env = env
	opts.NumLevels = 2
	opts.TargetFileSizeBase = 64 << 10
	opts.DisableAutoCompactions = true
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	value := bytes.Repeat([]byte("v"), 1000)
	for i := 0; i < handBackKeys; i++ {
		if err := db.Put(nil, overlapKey(i), value); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	if n := db.vs.head(0).NumLevelFiles(1); n < 8 {
		t.Fatalf("%d L1 tables, want at least 8", n)
	}
	for tbl := 0; tbl < 4; tbl++ {
		for i := tbl; i < handBackKeys; i += 16 {
			if err := db.Put(nil, overlapKey(i), []byte(fmt.Sprintf("l0-%d", tbl))); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Put(nil, overlapKey(handBackKeys-1), []byte(fmt.Sprintf("l0-%d", tbl))); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if n := db.vs.head(0).NumLevelFiles(0); n != 4 {
		t.Fatalf("%d L0 tables, want 4", n)
	}
	env.bgCounts()
	return db, env
}

// TestTableReaderHandBack: a compaction of four L0 tables into an L1 of at
// least 8 holds at most one input reader per run open at once — one per L0
// table and one for the level — because each run closes a reader as it
// moves past its table, and none once the job installs.
func TestTableReaderHandBack(t *testing.T) {
	db, env := openHandBackDB(t, NewOSEnv())
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	open, peak := env.bgCounts()
	if peak == 0 || peak > 5 {
		t.Errorf("compaction held %d input readers open at once, want 1..5 (4 L0 runs + the level)", peak)
	}
	if open != 0 {
		t.Errorf("%d input readers still open after the compaction installed", open)
	}
	if v, err := db.Get(nil, overlapKey(handBackKeys-1)); err != nil || string(v) != "l0-3" {
		t.Errorf("Get = %q, %v; want l0-3", v, err)
	}
}

// TestTableReaderHandBackFault: a read fault on the third L1 input fails the
// compaction, and every input reader the job opened is closed.
func TestTableReaderHandBackFault(t *testing.T) {
	fault := NewFaultInjectionEnv(NewOSEnv(), 1)
	db, env := openHandBackDB(t, fault)
	third := db.vs.head(0).LevelFiles(1)[2].Number
	fault.Inject(FaultRule{Op: FaultRead, Pattern: filepath.Base(tableFileName(db.dir, third)), Classes: []IOClass{IOBackground}})
	if err := db.CompactRange(nil, nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("CompactRange = %v, want the injected read fault", err)
	}
	if open, peak := env.bgCounts(); open != 0 || peak == 0 {
		t.Errorf("after the failed compaction %d input readers open (peak %d), want 0 (peak > 0)", open, peak)
	}
}
