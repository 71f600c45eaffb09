package lsm

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/device"
)

// openTestDB opens a DB on a fresh simulation env with small buffers so
// flushes and compactions actually happen in tests.
func openTestDB(t *testing.T, tweak func(*Options)) (*DB, *SimEnv) {
	t.Helper()
	env := NewSimEnv(device.NVMe(), device.Profile4C8G(), 42)
	opts := DefaultOptions()
	opts.Env = env
	opts.WriteBufferSize = 64 << 10
	opts.TargetFileSizeBase = 64 << 10
	opts.MaxBytesForLevelBase = 256 << 10
	opts.BlockSize = 1024
	opts.BloomBitsPerKey = 10
	if tweak != nil {
		tweak(opts)
	}
	db, err := Open("/db", opts)
	if err != nil {
		t.Fatal(err)
	}
	return db, env
}

func TestDBPutGetDelete(t *testing.T) {
	db, _ := openTestDB(t, nil)
	defer db.Close()
	wo, ro := DefaultWriteOptions(), DefaultReadOptions()

	if err := db.Put(wo, []byte("hello"), []byte("world")); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get(ro, []byte("hello"))
	if err != nil || string(v) != "world" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := db.Get(ro, []byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(missing) = %v", err)
	}
	if err := db.Delete(wo, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get(ro, []byte("hello")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete = %v", err)
	}
	// Overwrite.
	db.Put(wo, []byte("k"), []byte("v1"))
	db.Put(wo, []byte("k"), []byte("v2"))
	if v, _ := db.Get(ro, []byte("k")); string(v) != "v2" {
		t.Fatalf("overwrite Get = %q", v)
	}
}

func TestDBWriteBatch(t *testing.T) {
	db, _ := openTestDB(t, nil)
	defer db.Close()
	b := NewWriteBatch()
	for i := 0; i < 100; i++ {
		b.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	b.Delete([]byte("k050"))
	if b.Count() != 101 {
		t.Fatalf("Count = %d", b.Count())
	}
	if err := db.Write(nil, b); err != nil {
		t.Fatal(err)
	}
	ro := DefaultReadOptions()
	if v, _ := db.Get(ro, []byte("k099")); string(v) != "v99" {
		t.Fatalf("k099 = %q", v)
	}
	if _, err := db.Get(ro, []byte("k050")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("k050 should be deleted: %v", err)
	}
}

func TestDBFlushAndCompaction(t *testing.T) {
	db, _ := openTestDB(t, nil)
	defer db.Close()
	wo := DefaultWriteOptions()
	val := make([]byte, 256)
	for i := 0; i < 4000; i++ {
		if err := db.Put(wo, []byte(fmt.Sprintf("key%07d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitForBackgroundIdle(); err != nil {
		t.Fatal(err)
	}
	m := db.GetMetrics()
	if db.stats.Get(TickerFlushCount) == 0 {
		t.Fatal("no flush happened")
	}
	if db.stats.Get(TickerCompactCount) == 0 {
		t.Fatal("no compaction happened")
	}
	if m.TotalSSTBytes == 0 {
		t.Fatal("no SST bytes")
	}
	// Every key still readable after flush+compaction.
	ro := DefaultReadOptions()
	for i := 0; i < 4000; i += 97 {
		if _, err := db.Get(ro, []byte(fmt.Sprintf("key%07d", i))); err != nil {
			t.Fatalf("key%07d lost: %v", i, err)
		}
	}
	// Level invariants hold.
	db.mu.Lock()
	err := db.vs.head(0).checkInvariants()
	db.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
}

func TestDBReopenRecovery(t *testing.T) {
	env := NewSimEnv(device.NVMe(), device.Profile4C8G(), 7)
	opts := DefaultOptions()
	opts.Env = env
	opts.WriteBufferSize = 64 << 10
	db, err := Open("/db", opts)
	if err != nil {
		t.Fatal(err)
	}
	wo := DefaultWriteOptions()
	for i := 0; i < 500; i++ {
		db.Put(wo, []byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	db.Delete(wo, []byte("k0100"))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open("/db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	ro := DefaultReadOptions()
	for i := 0; i < 500; i++ {
		key := []byte(fmt.Sprintf("k%04d", i))
		v, err := db2.Get(ro, key)
		if i == 100 {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("k0100 should stay deleted: %v", err)
			}
			continue
		}
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("%s = %q, %v", key, v, err)
		}
	}
}

func TestDBCrashRecoveryFromWAL(t *testing.T) {
	// Simulate a crash: write without Close, then reopen on the same env.
	env := NewSimEnv(device.NVMe(), device.Profile4C8G(), 7)
	opts := DefaultOptions()
	opts.Env = env
	db, err := Open("/db", opts)
	if err != nil {
		t.Fatal(err)
	}
	wo := DefaultWriteOptions()
	for i := 0; i < 200; i++ {
		db.Put(wo, []byte(fmt.Sprintf("k%04d", i)), []byte("v"))
	}
	// No Close: the memtable is only in the WAL.
	db2, err := Open("/db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	ro := DefaultReadOptions()
	for i := 0; i < 200; i += 13 {
		if _, err := db2.Get(ro, []byte(fmt.Sprintf("k%04d", i))); err != nil {
			t.Fatalf("k%04d lost after crash: %v", i, err)
		}
	}
}

func TestDBOpenErrors(t *testing.T) {
	env := testSimEnv()
	opts := DefaultOptions()
	opts.Env = env
	opts.CreateIfMissing = false
	if _, err := Open("/none", opts); err == nil {
		t.Fatal("Open without create_if_missing should fail")
	}
	opts.CreateIfMissing = true
	db, err := Open("/db", opts)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	opts.ErrorIfExists = true
	if _, err := Open("/db", opts); err == nil {
		t.Fatal("Open with error_if_exists should fail")
	}
}

func TestDBValidateRejectsBadOptions(t *testing.T) {
	env := testSimEnv()
	opts := DefaultOptions()
	opts.Env = env
	opts.MaxWriteBufferNumber = 0
	if _, err := Open("/db", opts); err == nil {
		t.Fatal("invalid options accepted")
	}
}

func TestDBClosedOps(t *testing.T) {
	db, _ := openTestDB(t, nil)
	for i := 0; i < 100; i++ {
		if err := db.Put(nil, []byte(fmt.Sprintf("key%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	if err := db.Put(nil, []byte("k"), []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put on closed = %v", err)
	}
	if _, err := db.Get(nil, []byte("k")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get on closed = %v", err)
	}
	// An iterator made after Close reads nothing and opens no table.
	it := db.NewIterator(nil)
	n := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		n++
	}
	if n != 0 || !errors.Is(it.Err(), ErrClosed) {
		t.Fatalf("iterator on closed DB: %d keys, Err = %v", n, it.Err())
	}
	if err := it.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("iterator Close on closed DB = %v", err)
	}
	if open := len(db.tcache.lru.m); open != 0 {
		t.Fatalf("closed table cache holds %d open readers", open)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("double close = %v", err)
	}
}

func TestDBWriteStallsTriggered(t *testing.T) {
	db, _ := openTestDB(t, func(o *Options) {
		o.Level0SlowdownWritesTrigger = 2
		o.Level0StopWritesTrigger = 4
		o.Level0FileNumCompactionTrigger = 2
		o.MaxBackgroundJobs = 1
	})
	defer db.Close()
	wo := DefaultWriteOptions()
	val := make([]byte, 512)
	for i := 0; i < 3000; i++ {
		if err := db.Put(wo, []byte(fmt.Sprintf("key%07d", rand.Intn(100000))), val); err != nil {
			t.Fatal(err)
		}
	}
	if db.stats.Get(TickerSlowdownWrites) == 0 {
		t.Error("expected slowdown writes under tiny triggers")
	}
}

func TestDBCompactRange(t *testing.T) {
	db, _ := openTestDB(t, nil)
	defer db.Close()
	wo := DefaultWriteOptions()
	for i := 0; i < 3000; i++ {
		db.Put(wo, []byte(fmt.Sprintf("key%07d", i)), make([]byte, 128))
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	m := db.GetMetrics()
	if m.LevelFiles[0] != 0 {
		t.Fatalf("L0 not drained after CompactRange: %v", m.LevelFiles)
	}
	total := 0
	for _, n := range m.LevelFiles {
		total += n
	}
	if total == 0 {
		t.Fatal("no files after CompactRange")
	}
	if _, err := db.Get(nil, []byte("key0001500")); err != nil {
		t.Fatalf("read after CompactRange: %v", err)
	}
}

func TestDBUniversalCompaction(t *testing.T) {
	db, _ := openTestDB(t, func(o *Options) {
		o.CompactionStyle = CompactionStyleUniversal
	})
	defer db.Close()
	wo := DefaultWriteOptions()
	for i := 0; i < 3000; i++ {
		db.Put(wo, []byte(fmt.Sprintf("key%07d", i%500)), make([]byte, 128))
	}
	db.Flush()
	db.WaitForBackgroundIdle()
	if _, err := db.Get(nil, []byte("key0000042")); err != nil {
		t.Fatal(err)
	}
	m := db.GetMetrics()
	for l := 1; l < len(m.LevelFiles); l++ {
		if m.LevelFiles[l] != 0 {
			t.Fatalf("universal compaction must keep files in L0: %v", m.LevelFiles)
		}
	}
}

func TestDBFIFOCompaction(t *testing.T) {
	db, _ := openTestDB(t, func(o *Options) {
		o.CompactionStyle = CompactionStyleFIFO
		o.MaxBytesForLevelBase = 128 << 10
	})
	defer db.Close()
	wo := DefaultWriteOptions()
	for i := 0; i < 4000; i++ {
		db.Put(wo, []byte(fmt.Sprintf("key%07d", i)), make([]byte, 128))
	}
	db.Flush()
	db.WaitForBackgroundIdle()
	m := db.GetMetrics()
	if m.TotalSSTBytes > (256 << 10) {
		t.Fatalf("FIFO did not bound size: %d bytes", m.TotalSSTBytes)
	}
	// Newest keys survive, oldest were dropped.
	if _, err := db.Get(nil, []byte("key0003999")); err != nil {
		t.Fatalf("newest key dropped: %v", err)
	}
}

func TestDBDisableWAL(t *testing.T) {
	db, _ := openTestDB(t, nil)
	defer db.Close()
	wo := &WriteOptions{DisableWAL: true}
	if err := db.Put(wo, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if db.stats.Get(TickerWALBytes) != 0 {
		t.Fatal("WAL written despite DisableWAL")
	}
	if v, _ := db.Get(nil, []byte("k")); string(v) != "v" {
		t.Fatal("value lost")
	}
}

func TestDBSyncWrite(t *testing.T) {
	db, _ := openTestDB(t, nil)
	defer db.Close()
	if err := db.Put(&WriteOptions{Sync: true}, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if db.stats.Get(TickerWALSyncs) == 0 {
		t.Fatal("sync write did not sync WAL")
	}
}

func TestDBOnOSEnv(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.WriteBufferSize = 64 << 10
	opts.BloomBitsPerKey = 10
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	wo := DefaultWriteOptions()
	for i := 0; i < 2000; i++ {
		if err := db.Put(wo, []byte(fmt.Sprintf("key%06d", i)), []byte(fmt.Sprintf("val%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i += 31 {
		v, err := db.Get(nil, []byte(fmt.Sprintf("key%06d", i)))
		if err != nil || string(v) != fmt.Sprintf("val%d", i) {
			t.Fatalf("key%06d = %q, %v", i, v, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen on real files.
	db2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if v, err := db2.Get(nil, []byte("key000500")); err != nil || string(v) != "val500" {
		t.Fatalf("after reopen: %q, %v", v, err)
	}
}

// TestQuickDBModelCheck compares the DB against a map model under random
// operation sequences (puts, deletes, occasional flushes).
func TestQuickDBModelCheck(t *testing.T) {
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		env := NewSimEnv(device.NVMe(), device.Profile4C8G(), seed)
		opts := DefaultOptions()
		opts.Env = env
		opts.WriteBufferSize = 64 << 10
		opts.Seed = seed
		db, err := Open("/db", opts)
		if err != nil {
			return false
		}
		defer db.Close()
		model := make(map[string]string)
		wo := DefaultWriteOptions()
		keys := make([]string, 40)
		for i := range keys {
			keys[i] = fmt.Sprintf("key%03d", i)
		}
		for step := 0; step < 400; step++ {
			k := keys[r.Intn(len(keys))]
			switch r.Intn(10) {
			case 0:
				if err := db.Delete(wo, []byte(k)); err != nil {
					return false
				}
				delete(model, k)
			case 1:
				if step%100 == 0 {
					if err := db.Flush(); err != nil {
						return false
					}
				}
			default:
				v := fmt.Sprintf("v%d-%d", step, r.Int31())
				if err := db.Put(wo, []byte(k), []byte(v)); err != nil {
					return false
				}
				model[k] = v
			}
		}
		for _, k := range keys {
			v, err := db.Get(nil, []byte(k))
			want, ok := model[k]
			if ok {
				if err != nil || string(v) != want {
					return false
				}
			} else if !errors.Is(err, ErrNotFound) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestCloseReclaimsTablesRetiredUnderIterator: an iterator open across a
// flush and a CompactRange keeps the retired tables alive; once it is closed,
// Close (with nothing left to flush) deletes them, so no orphan table is left
// on disk.
func TestCloseReclaimsTablesRetiredUnderIterator(t *testing.T) {
	db, env := openTestDB(t, nil)
	wo := DefaultWriteOptions()
	put := func(prefix string) {
		for i := 0; i < 1000; i++ {
			if err := db.Put(wo, []byte(fmt.Sprintf("%s%05d", prefix, i)), make([]byte, 100)); err != nil {
				t.Fatal(err)
			}
		}
	}
	put("a")
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	it := db.NewIterator(nil)
	if it.SeekToFirst(); !it.Valid() {
		t.Fatalf("iterator over flushed data is empty: %v", it.Err())
	}
	put("b")
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Env = env
	rep, err := CheckDB("/db", opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || len(rep.Orphans) != 0 {
		t.Fatalf("after Close: issues %v orphans %v", rep.Issues, rep.Orphans)
	}
}

// TestCloseAfterManifestFaultKeepsFiles: when a flush's or a compaction's
// manifest write fails, the in-memory version is ahead of the manifest on
// disk. Close must then delete nothing, so a reopen without the fault finds
// every WAL and table the old manifest names and every acknowledged key.
func TestCloseAfterManifestFaultKeepsFiles(t *testing.T) {
	for _, tc := range []struct {
		name string
		fail func(db *DB) error
	}{
		{"flush", func(db *DB) error { return db.Flush() }},
		{"compaction", func(db *DB) error { return db.CompactRange(nil, nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, fenv, dir := openFaultDB(t, 1, nil)
			wo := DefaultWriteOptions()
			key := func(i int) []byte { return []byte(fmt.Sprintf("k%05d", i)) }
			const n = 300
			for i := 0; i < n; i++ {
				if err := db.Put(wo, key(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Fatal(err)
				}
				if tc.name == "compaction" && i%100 == 99 {
					if err := db.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			fenv.Inject(FaultRule{Op: FaultWrite, Pattern: "MANIFEST"})
			if err := tc.fail(db); err == nil {
				t.Fatal("expected the manifest fault to fail the job")
			}
			db.Close() // reports the background error
			fenv.ClearFaults()

			opts := DefaultOptions()
			opts.Env = fenv
			db, err := Open(dir, opts)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			for i := 0; i < n; i++ {
				v, err := db.Get(nil, key(i))
				if err != nil || string(v) != fmt.Sprintf("v%d", i) {
					t.Fatalf("key %s after reopen: %q, %v", key(i), v, err)
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			rep, err := CheckDB(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("CheckDB after reopen: %v", rep.Issues)
			}
		})
	}
}
