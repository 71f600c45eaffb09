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
	// Scope routing: DB knobs go through SetDBOptions and vice versa.
	if err := db.SetOptions(nil, map[string]string{"max_background_jobs": "4"}); err == nil || !strings.Contains(err.Error(), "SetDBOptions") {
		t.Fatalf("DB-scoped via SetOptions: err = %v", err)
	}
	if err := db.SetDBOptions(map[string]string{"write_buffer_size": "131072"}); err == nil || !strings.Contains(err.Error(), "SetOptions") {
		t.Fatalf("CF-scoped via SetDBOptions: err = %v", err)
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
	if err := db.SetDBOptions(map[string]string{"max_background_jobs": "4"}); err != nil {
		t.Fatal(err)
	}
	if got := logEvents(t, env, "/db", "set_options"); len(got) != 3 || !strings.HasPrefix(got[2], "db: max_background_jobs ") {
		t.Fatalf("DB-scoped change logged as %q", got)
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
	if err := db.SetDBOptions(map[string]string{"stats_persist_period_sec": "1"}); err != nil {
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
			if err := db.SetDBOptions(dbCycle[i%len(dbCycle)]); err != nil {
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
