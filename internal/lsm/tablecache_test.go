package lsm

import (
	"bytes"
	"fmt"
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
// files minus their closes.
type openTablesEnv struct {
	Env
	open atomic.Int64
}

type countedTableFile struct {
	RandomAccessFile
	env  *openTablesEnv
	once sync.Once
}

func (e *openTablesEnv) NewRandomAccessFile(name string, class IOClass) (RandomAccessFile, error) {
	f, err := e.Env.NewRandomAccessFile(name, class)
	if err != nil || !strings.HasSuffix(name, ".sst") {
		return f, err
	}
	e.open.Add(1)
	return &countedTableFile{RandomAccessFile: f, env: e}, nil
}

func (f *countedTableFile) Close() error {
	f.once.Do(func() { f.env.open.Add(-1) })
	return f.RandomAccessFile.Close()
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
