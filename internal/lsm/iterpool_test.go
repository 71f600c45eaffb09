package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestIteratorClosedHandle: a closed Iterator is never Valid, exposes no key
// and ignores moves, a second Close is harmless, and two iterators opened
// afterwards get trees of their own whose keys stay independent.
func TestIteratorClosedHandle(t *testing.T) {
	db, _ := openTestDB(t, nil)
	defer db.Close()
	for c := byte('a'); c <= 'z'; c++ {
		if err := db.Put(nil, []byte{c}, []byte{c, c}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	old := db.NewIterator(nil)
	old.Seek([]byte("c"))
	if !old.Valid() || string(old.Key()) != "c" {
		t.Fatalf("Seek(c) = %q", old.Key())
	}
	for i := 0; i < 2; i++ {
		if err := old.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	a := db.NewIterator(nil)
	b := db.NewIterator(nil)
	defer a.Close()
	defer b.Close()
	if a.a == b.a {
		t.Fatal("two open iterators share one iterator tree")
	}
	a.Seek([]byte("b"))
	b.Seek([]byte("m"))
	for i := 0; i < 5; i++ {
		b.Next()
	}
	if string(a.Key()) != "b" || string(a.Value()) != "bb" || string(b.Key()) != "r" || string(b.Value()) != "rr" {
		t.Fatalf("a at %q=%q, b at %q=%q; want b=bb, r=rr", a.Key(), a.Value(), b.Key(), b.Value())
	}
	old.Seek([]byte("a"))
	old.SeekToFirst()
	old.Next()
	if old.Valid() || old.Key() != nil || old.Value() != nil || old.Err() != nil {
		t.Fatalf("closed iterator: valid %v key %q value %q err %v", old.Valid(), old.Key(), old.Value(), old.Err())
	}
}

// TestIteratorCloseClearsTree: Close leaves the pooled tree pointing at no
// DB, version, memtable, reader, block or block-cache handle, so a recycled
// tree pins nothing.
func TestIteratorCloseClearsTree(t *testing.T) {
	db, _ := openTestDB(t, func(o *Options) { o.DisableAutoCompactions = true })
	defer db.Close()
	for i := 0; i < 300; i++ {
		if err := db.Put(nil, []byte(fmt.Sprintf("key%04d", i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
		if i%100 == 99 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	it := db.NewIterator(nil)
	it.Seek([]byte("key0050"))
	for i := 0; i < 120 && it.Valid(); i++ {
		it.Next()
	}
	a := it.a
	if len(a.levels) < 3 || len(a.mems) != 1 {
		t.Fatalf("tree has %d levels and %d memtables, want at least 3 and 1", len(a.levels), len(a.mems))
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if a.db != nil || a.cf != nil || a.v != nil || a.valid {
		t.Fatalf("closed tree keeps db %p cf %p version %p valid %v", a.db, a.cf, a.v, a.valid)
	}
	if len(a.mems) != 0 || len(a.levels) != 0 || len(a.merge.children) != 0 || len(a.merge.h) != 0 {
		t.Fatalf("closed tree keeps %d memtables, %d levels, %d children, %d heap entries",
			len(a.mems), len(a.levels), len(a.merge.children), len(a.merge.h))
	}
	for _, m := range a.mems[:cap(a.mems)] {
		if m.list != nil || m.node != nil {
			t.Fatal("closed tree keeps a memtable iterator's list or node")
		}
	}
	for _, c := range a.merge.children[:cap(a.merge.children)] {
		if c != nil {
			t.Fatal("closed tree keeps a merge child")
		}
	}
	for _, c := range a.merge.h[:cap(a.merge.h)] {
		if c != nil {
			t.Fatal("closed tree keeps a heap entry")
		}
	}
	for i, l := range a.levels[:cap(a.levels)] {
		ti := &l.ti
		if l.files != nil || l.src != nil || l.r != nil || ti.t != nil || ti.idx != nil || ti.data != nil || ti.h != nil ||
			ti.idxState.data != nil || ti.idxState.val != nil || ti.dataSt.data != nil || ti.dataSt.val != nil {
			t.Fatalf("closed tree's level %d keeps a file list, opener, reader, block or handle", i)
		}
	}
}

// TestIteratorFailedCaptureClose: an iterator whose capture failed reports
// the failure from Err and from every Close.
func TestIteratorFailedCaptureClose(t *testing.T) {
	db, _ := openTestDB(t, nil)
	db.Close()
	it := db.NewIterator(nil)
	it.SeekToFirst()
	if it.Valid() || !errors.Is(it.Err(), ErrClosed) {
		t.Fatalf("iterator on a closed DB: valid %v err %v", it.Valid(), it.Err())
	}
	for i := 0; i < 2; i++ {
		if err := it.Close(); !errors.Is(err, ErrClosed) {
			t.Fatalf("Close #%d = %v, want ErrClosed", i+1, err)
		}
	}
}

// TestIteratorUseAfterCloseConcurrent: while other goroutines scan, a
// goroutine keeps using iterators it has closed. A closed one must never
// turn valid or expose a key, which it would if its recycled tree were
// handed to a concurrent scan.
func TestIteratorUseAfterCloseConcurrent(t *testing.T) {
	db, _ := openTestDB(t, nil)
	defer db.Close()
	for i := 0; i < 200; i++ {
		if err := db.Put(nil, []byte(fmt.Sprintf("key%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				it := db.NewIterator(nil)
				for it.SeekToFirst(); it.Valid(); it.Next() {
				}
				it.Close()
			}
		}()
	}
	for i := 0; i < 500; i++ {
		it := db.NewIterator(nil)
		it.SeekToFirst()
		it.Close()
		it.Seek([]byte("key0100"))
		it.Next()
		if it.Valid() || it.Key() != nil || it.Value() != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("closed iterator valid %v at %q", it.Valid(), it.Key())
		}
	}
	stop.Store(true)
	wg.Wait()
}

// resizeTableCache sets the table cache's capacity the way max_open_files
// sizes it at open (n <= 0 is unlimited), evicting readers over it.
func resizeTableCache(db *DB, n int) {
	if n <= 0 {
		n = 1 << 30
	}
	db.tcache.mu.Lock()
	db.tcache.lru.resize(int64(n))
	db.tcache.mu.Unlock()
}

// TestIteratorsConcurrentChurn runs scans checked against a model beside a
// writer, flushes, compactions and a table cache flipping between
// max_open_files 2 and unlimited, on real files (a -race target). Pooled
// level iterators hold and release table-cache readers across scans: no
// read may fail, and once every scan has closed at most the cache's 2
// readers stay open.
func TestIteratorsConcurrentChurn(t *testing.T) {
	env := &openTablesEnv{Env: NewOSEnv()}
	opts := DefaultOptions()
	opts.Env = env
	opts.MaxOpenFiles = 2
	opts.WriteBufferSize = 64 << 10
	opts.TargetFileSizeBase = 64 << 10
	opts.MaxBytesForLevelBase = 256 << 10
	opts.Level0FileNumCompactionTrigger = 2
	opts.BlockSize = 512
	opts.DisableInfoLog = true
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const keys = 2000
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%05d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("value-%05d-%040d", i, i)) }
	for i := 0; i < keys; i++ {
		if err := db.Put(nil, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	flushes, compactions := db.stats.Get(TickerFlushCount), db.stats.Get(TickerCompactCount)
	opens := db.stats.Get(TickerTableCacheMiss)
	var stop atomic.Bool
	var bg, scans sync.WaitGroup
	errs := make(chan error, 16)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	background := func(step func(i int) error) {
		bg.Add(1)
		go func() {
			defer bg.Done()
			for i := 0; !stop.Load(); i++ {
				if err := step(i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	// The writer rewrites model keys with their model values and churns
	// keys outside the scanned prefix, so what a scan must see never changes.
	rng := rand.New(rand.NewSource(1))
	background(func(i int) error {
		k := rng.Intn(keys)
		if err := db.Put(nil, key(k), val(k)); err != nil {
			return err
		}
		tmp := []byte(fmt.Sprintf("tmp%05d", i%500))
		if err := db.Put(nil, tmp, val(k)); err != nil {
			return err
		}
		return db.Delete(nil, tmp)
	})
	background(func(int) error {
		time.Sleep(2 * time.Millisecond)
		return db.Flush()
	})
	background(func(int) error {
		time.Sleep(10 * time.Millisecond)
		return db.CompactRange(nil, nil)
	})
	background(func(i int) error {
		resizeTableCache(db, []int{2, -1}[i%2])
		time.Sleep(time.Millisecond)
		return nil
	})
	for g := 0; g < 3; g++ {
		scans.Add(1)
		go func(g int) {
			defer scans.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for s := 0; s < 200; s++ {
				start := rng.Intn(keys)
				it := db.NewIterator(nil)
				n := 0
				for it.Seek(key(start)); it.Valid() && n < 50 && bytes.HasPrefix(it.Key(), []byte("key")); it.Next() {
					if i := start + n; !bytes.Equal(it.Key(), key(i)) || !bytes.Equal(it.Value(), val(i)) {
						fail(fmt.Errorf("scan from %d: entry %d is %q=%q", start, n, it.Key(), it.Value()))
						it.Close()
						return
					}
					n++
				}
				if err := it.Close(); err != nil {
					fail(fmt.Errorf("scan from %d: %v", start, err))
					return
				}
				if want := min(50, keys-start); n != want {
					fail(fmt.Errorf("scan from %d read %d keys, want %d", start, n, want))
					return
				}
			}
		}(g)
	}
	scans.Wait()
	stop.Store(true)
	bg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	flushes = db.stats.Get(TickerFlushCount) - flushes
	compactions = db.stats.Get(TickerCompactCount) - compactions
	opens = db.stats.Get(TickerTableCacheMiss) - opens
	t.Logf("%d flushes, %d compactions and %d table opens beside the scans", flushes, compactions, opens)
	if flushes == 0 || compactions == 0 || opens < 10 {
		t.Errorf("the churn did not run: %d flushes, %d compactions, %d table opens", flushes, compactions, opens)
	}
	resizeTableCache(db, 2)
	if err := db.WaitForBackgroundIdle(); err != nil {
		t.Fatal(err)
	}
	if open := env.open.Load(); open > 2 {
		t.Fatalf("%d table files open after the scans, max_open_files=2", open)
	}
}
