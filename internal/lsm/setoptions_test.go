package lsm

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSetOptionsValidation(t *testing.T) {
	db, _ := openTestDB(t, nil)
	defer db.Close()

	if err := db.SetOptions(nil, map[string]string{"not_a_knob": "1"}); !errors.Is(err, ErrUnknownOption) {
		t.Fatalf("unknown option: err = %v, want ErrUnknownOption", err)
	}
	err := db.SetOptions(nil, map[string]string{"num_levels": "4"})
	if !errors.Is(err, ErrImmutableOption) {
		t.Fatalf("immutable option: err = %v, want ErrImmutableOption", err)
	}
	if !strings.Contains(err.Error(), "num_levels") {
		t.Fatalf("immutable option error does not name the knob: %v", err)
	}
	// Bad syntax and out-of-range values reject the whole call.
	if err := db.SetOptions(nil, map[string]string{"write_buffer_size": "huge"}); err == nil {
		t.Fatal("bad integer accepted")
	}
	// Cross-field validation: slowdown trigger below the compaction trigger
	// fails Options.Validate, and nothing of the batch is applied.
	before := db.Options().WriteBufferSize
	err = db.SetOptions(nil, map[string]string{
		"write_buffer_size":              "131072",
		"level0_slowdown_writes_trigger": "1",
	})
	if err == nil {
		t.Fatal("invalid combination accepted")
	}
	if got := db.Options().WriteBufferSize; got != before {
		t.Fatalf("failed batch partially applied: write_buffer_size = %d, want %d", got, before)
	}
}

func TestSetOptionsEvent(t *testing.T) {
	db, env := openTestDB(t, nil)
	defer db.Close()

	if err := db.SetOptions(nil, map[string]string{"write_buffer_size": "131072", "max_write_buffer_number": "4"}); err != nil {
		t.Fatal(err)
	}
	// One LOG line per knob, old -> new, sorted by name:
	// max_write_buffer_number before write_buffer_size.
	got := logEvents(t, env, "/db", "set_options")
	want := []string{
		`cf "default": max_write_buffer_number 2 -> 4`,
		`cf "default": write_buffer_size 65536 -> 131072`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("set_options lines = %q, want %q", got, want)
	}
	if got := db.Options().WriteBufferSize; got != 131072 {
		t.Fatalf("WriteBufferSize = %d", got)
	}
	if err := db.SetOptions(nil, map[string]string{"max_background_jobs": "4"}); err != nil {
		t.Fatal(err)
	}
	if got := logEvents(t, env, "/db", "set_options"); len(got) != 3 || !strings.HasPrefix(got[2], "db: max_background_jobs ") {
		t.Fatalf("DB-scoped change logged as %q", got)
	}
}

// TestSetOptionsMixedBatch: one SetOptions call against a named family
// routes each name by scope — max_background_jobs to the DB snapshot,
// write_buffer_size to the family's — and applies all of it or none of it.
func TestSetOptionsMixedBatch(t *testing.T) {
	db, env := openTestDB(t, nil)
	defer db.Close()
	hot, err := db.CreateColumnFamily("hot", nil)
	if err != nil {
		t.Fatal(err)
	}
	snapshots := func() (jobs int, wbs, defaultWBS int64) {
		o, err := db.OptionsCF(hot)
		if err != nil {
			t.Fatal(err)
		}
		return db.Options().MaxBackgroundJobs, o.WriteBufferSize, db.Options().WriteBufferSize
	}
	jobs, wbs, defaultWBS := snapshots()
	for _, bad := range []map[string]string{
		{"max_background_jobs": "8", "write_buffer_size": "-5"},             // out of range
		{"max_background_jobs": "8", "level0_slowdown_writes_trigger": "1"}, // fails Validate
	} {
		if err := db.SetOptions(hot, bad); err == nil {
			t.Fatalf("SetOptions(hot, %v) accepted", bad)
		}
		if j, w, d := snapshots(); j != jobs || w != wbs || d != defaultWBS {
			t.Fatalf("failed batch %v partially applied: max_background_jobs %d -> %d, hot write_buffer_size %d -> %d, default %d -> %d",
				bad, jobs, j, wbs, w, defaultWBS, d)
		}
	}
	if err := db.SetOptions(hot, map[string]string{"max_background_jobs": "8", "write_buffer_size": "131072"}); err != nil {
		t.Fatal(err)
	}
	if j, w, d := snapshots(); j != 8 || w != 131072 || d != defaultWBS {
		t.Fatalf("after the mixed batch: max_background_jobs %d, hot write_buffer_size %d, default write_buffer_size %d (was %d)", j, w, d, defaultWBS)
	}
	cfg := db.Config()
	if cfg.Default.MaxBackgroundJobs != 8 || cfg.Lookup("hot").WriteBufferSize != 131072 {
		t.Fatalf("Config() reads max_background_jobs %d and hot write_buffer_size %d", cfg.Default.MaxBackgroundJobs, cfg.Lookup("hot").WriteBufferSize)
	}
	got := logEvents(t, env, "/db", "set_options")
	want := []string{
		fmt.Sprintf("db: max_background_jobs %d -> 8", jobs),
		fmt.Sprintf(`cf "hot": write_buffer_size %d -> 131072`, wbs),
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("set_options lines = %q, want %q", got, want)
	}
}

// TestSetOptionsDBScopedReachNamedFamily: DB-scoped knobs set live through a
// named family's handle act on that family's flushes, which read them from
// the DB snapshot — paranoid_file_checks reads the new table back, and
// bytes_per_sync starts writeback as the table is written.
func TestSetOptionsDBScopedReachNamedFamily(t *testing.T) {
	env := newCountingEnv(NewOSEnv())
	opts := DefaultOptions()
	opts.Env = env
	opts.WriteBufferSize = 4 << 20 // only FlushCF flushes
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	hot, err := db.CreateColumnFamily("hot", nil)
	if err != nil {
		t.Fatal(err)
	}
	// flushHot writes about 800 KB to hot, flushes it and returns the table
	// file calls the flush made.
	round := 0
	flushHot := func() fileCalls {
		t.Helper()
		before := env.counts(".sst")
		for i := 0; i < 2000; i++ {
			if err := db.PutCF(nil, hot, []byte(fmt.Sprintf("r%d-key%06d", round, i)), countedTableValue(i)); err != nil {
				t.Fatal(err)
			}
		}
		round++
		if err := db.FlushCF(hot); err != nil {
			t.Fatal(err)
		}
		after := env.counts(".sst")
		return fileCalls{reads: after.reads - before.reads, asyncSyncs: after.asyncSyncs - before.asyncSyncs}
	}
	plain := flushHot()
	if err := db.SetOptions(hot, map[string]string{"paranoid_file_checks": "true", "bytes_per_sync": "65536"}); err != nil {
		t.Fatal(err)
	}
	tuned := flushHot()
	if tuned.reads <= plain.reads {
		t.Errorf("paranoid_file_checks: hot's flush read its table %d times, %d before the change", tuned.reads, plain.reads)
	}
	if plain.asyncSyncs != 0 || tuned.asyncSyncs == 0 {
		t.Errorf("bytes_per_sync: hot's flush issued %d async syncs, %d before the change", tuned.asyncSyncs, plain.asyncSyncs)
	}
}

// TestSetOptionsShrinksNextFlush is the headline effects test: dropping
// write_buffer_size live makes the very next flush smaller, without a
// reopen.
func TestSetOptionsShrinksNextFlush(t *testing.T) {
	db, env := openTestDB(t, func(o *Options) {
		o.WriteBufferSize = 1 << 20 // 1 MiB: no flush during the warmup
	})
	defer db.Close()
	wo := DefaultWriteOptions()
	val := make([]byte, 1000)
	for i := 0; i < 100; i++ { // ~100 KiB, well under the 1 MiB buffer
		if err := db.Put(wo, []byte(fmt.Sprintf("warm%06d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if flushes := logEvents(t, env, "/db", "flush"); len(flushes) != 0 {
		t.Fatalf("unexpected flush during warmup: %q", flushes)
	}

	// Live drop to the 64 KiB floor: the controller re-reads the snapshot on
	// the next write and switches the (already oversized) memtable.
	if err := db.SetOptions(nil, map[string]string{"write_buffer_size": "65536"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if err := db.Put(wo, []byte(fmt.Sprintf("post%06d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.WaitForBackgroundIdle(); err != nil {
		t.Fatal(err)
	}
	flushes := logEvents(t, env, "/db", "flush")
	if len(flushes) < 2 {
		t.Fatalf("flushes after live drop = %d, want >= 2", len(flushes))
	}
	// The first flush carries the oversized warmup memtable; every later one
	// must be sized by the new 64 KiB buffer, far below the old 1 MiB one.
	for _, f := range flushes[1:] {
		var mems, out, bytes int64
		if _, err := fmt.Sscanf(f, "memtables=%d -> %d.sst bytes=%d", &mems, &out, &bytes); err != nil {
			t.Fatalf("flush line %q: %v", f, err)
		}
		if bytes > 300<<10 {
			t.Fatalf("flush after drop wrote %d bytes; write_buffer_size drop not honored", bytes)
		}
	}
}

// TestSetOptionsCompactionToggle proves the compaction picker and scheduler
// read the swapped snapshot: L0 debt accumulated under
// disable_auto_compactions starts compacting the moment the knob flips back.
func TestSetOptionsCompactionToggle(t *testing.T) {
	db, _ := openTestDB(t, func(o *Options) {
		o.DisableAutoCompactions = true
	})
	defer db.Close()
	wo := DefaultWriteOptions()
	val := make([]byte, 1000)
	for i := 0; i < 800; i++ {
		if err := db.Put(wo, []byte(fmt.Sprintf("key%06d", i%200)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitForBackgroundIdle(); err != nil {
		t.Fatal(err)
	}
	if got := db.Statistics().Get(TickerCompactCount); got != 0 {
		t.Fatalf("compactions ran despite disable_auto_compactions: %d", got)
	}
	if files := db.GetMetrics().LevelFiles[0]; files < 4 {
		t.Fatalf("L0 files = %d, want enough to trigger compaction", files)
	}
	if err := db.SetOptions(nil, map[string]string{"disable_auto_compactions": "false"}); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitForBackgroundIdle(); err != nil {
		t.Fatal(err)
	}
	if got := db.Statistics().Get(TickerCompactCount); got == 0 {
		t.Fatal("no compaction after re-enabling auto compactions live")
	}
}

// TestSetOptionsBlockCacheCapacity proves a live block_cache change resizes
// the shared cache with eviction.
func TestSetOptionsBlockCacheCapacity(t *testing.T) {
	db, _ := openTestDB(t, func(o *Options) {
		o.BlockCacheSize = 8 << 20
	})
	defer db.Close()
	wo, ro := DefaultWriteOptions(), DefaultReadOptions()
	val := make([]byte, 1000)
	for i := 0; i < 500; i++ {
		if err := db.Put(wo, []byte(fmt.Sprintf("key%06d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Read everything back through the SSTs to populate the cache.
	for i := 0; i < 500; i++ {
		if _, err := db.Get(ro, []byte(fmt.Sprintf("key%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	used := db.GetMetrics().BlockCacheUsed
	if used == 0 {
		t.Fatal("block cache unused after reads")
	}
	target := int64(64 << 10)
	if err := db.SetOptions(nil, map[string]string{"block_cache": fmt.Sprint(target)}); err != nil {
		t.Fatal(err)
	}
	if got := db.GetMetrics().BlockCacheUsed; got > target {
		t.Fatalf("cache used %d after shrinking capacity to %d", got, target)
	}
	if got := db.Options().BlockCacheSize; got != target {
		t.Fatalf("BlockCacheSize = %d, want %d", got, target)
	}
}

// TestSetDBOptionsStatsTimers proves a live stats_persist_period_sec change
// arms the history timer on a DB opened with stats timers off (sim mode:
// deadlines are checked deterministically as the virtual clock advances).
func TestSetDBOptionsStatsTimers(t *testing.T) {
	db, env := openTestDB(t, func(o *Options) {
		o.StatsDumpPeriodSec = 0
		o.StatsPersistPeriodSec = 0
	})
	defer db.Close()
	wo := DefaultWriteOptions()
	if err := db.SetOptions(nil, map[string]string{"stats_persist_period_sec": "1"}); err != nil {
		t.Fatal(err)
	}
	env.Clock().Advance(5 * time.Second)
	if err := db.Put(wo, []byte("k"), []byte("v")); err != nil { // polls the runtime
		t.Fatal(err)
	}
	if n, _ := db.history.footprint(); n == 0 {
		t.Fatal("no stats history snapshot after enabling the timer live")
	}
}

// TestSetOptionsRace hammers reads, writes, iterators and flushes while one
// goroutine keeps flipping write_buffer_size, stall triggers, block-cache
// capacity and background slots. Run under -race; it also shakes out
// deadlocks between the swap path and the write controller.
func TestSetOptionsRace(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.WriteBufferSize = 128 << 10
	opts.TargetFileSizeBase = 128 << 10
	opts.BlockCacheSize = 1 << 20
	opts.DisableInfoLog = true
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	wo, ro := DefaultWriteOptions(), DefaultReadOptions()
	val := make([]byte, 512)

	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if err := db.Put(wo, []byte(fmt.Sprintf("key%07d", i%5000)), val); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // reader
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if _, err := db.Get(ro, []byte(fmt.Sprintf("key%07d", i%5000))); err != nil && !errors.Is(err, ErrNotFound) {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // iterator
		defer wg.Done()
		for !stop.Load() {
			it := db.NewIterator(ro)
			n := 0
			for it.SeekToFirst(); it.Valid() && n < 200; it.Next() {
				n++
			}
			if err := it.Close(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // explicit flusher
		defer wg.Done()
		for !stop.Load() {
			if err := db.Flush(); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Add(1)
	go func() { // options flipper
		defer wg.Done()
		cfCycle := []map[string]string{
			{"write_buffer_size": "65536", "level0_slowdown_writes_trigger": "8", "level0_stop_writes_trigger": "12"},
			{"write_buffer_size": "262144", "max_write_buffer_number": "4"},
			{"block_cache": "131072"},
			{"block_cache": "2097152", "target_file_size_base": "65536"},
		}
		dbCycle := []map[string]string{
			{"max_background_jobs": "8", "max_subcompactions": "2"},
			{"max_background_jobs": "2", "stats_dump_period_sec": "1"},
		}
		for i := 0; !stop.Load(); i++ {
			if err := db.SetOptions(nil, cfCycle[i%len(cfCycle)]); err != nil {
				t.Error(err)
				return
			}
			if err := db.SetOptions(nil, dbCycle[i%len(dbCycle)]); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	time.Sleep(1500 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if err := db.WaitForBackgroundIdle(); err != nil {
		t.Fatal(err)
	}
}
