package lsm

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPerfContextCounters drives a sim DB at enable_time and checks the
// per-operation phases attribute where they should: WAL/memtable write
// times, memtable probes, block reads on a cold Get, bloom bookkeeping.
func TestPerfContextCounters(t *testing.T) {
	db, _ := openTestDB(t, func(o *Options) { o.PerfLevel = "enable_time" })
	defer db.Close()
	wo, ro := DefaultWriteOptions(), DefaultReadOptions()

	for i := 0; i < 2000; i++ {
		if err := db.Put(wo, []byte(fmt.Sprintf("k%05d", i)), make([]byte, 128)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.WaitForBackgroundIdle()
	for i := 0; i < 200; i++ {
		db.Get(ro, []byte(fmt.Sprintf("k%05d", i*7)))
	}

	p := db.PerfContext()
	for _, m := range []PerfMetric{
		PerfWriteWALTime, PerfWriteMemtableTime,
		PerfGetFromMemtableCount, PerfGetFromMemtableTime,
		PerfGetFromOutputFilesTime, PerfBlockReadCount, PerfBlockReadByte,
	} {
		if p.Get(m) <= 0 {
			t.Errorf("%s = %d, want > 0\n%s", m, p.Get(m), p.String())
		}
	}
	if hits, misses := p.Get(PerfBloomSSTHitCount), p.Get(PerfBloomSSTMissCount); hits == 0 && misses == 0 {
		t.Error("no bloom probes recorded despite bloom_bits_per_key=10")
	}
	if db.IOStats().BytesRead() <= 0 || db.IOStats().BytesWritten() <= 0 {
		t.Errorf("IOStatsContext empty: %s", db.IOStats().String())
	}
	// The rendered form is what dbbench prints at exit.
	if !strings.Contains(p.String(), "block_read_count = ") {
		t.Errorf("PerfContext.String missing counters:\n%s", p.String())
	}
}

// TestPerfContextDisabled checks disable really is off: no counter moves.
func TestPerfContextDisabled(t *testing.T) {
	db, _ := openTestDB(t, nil) // default perf_level=disable
	defer db.Close()
	wo := DefaultWriteOptions()
	for i := 0; i < 500; i++ {
		db.Put(wo, []byte(fmt.Sprintf("k%04d", i)), make([]byte, 64))
	}
	db.Flush()
	db.Get(nil, []byte("k0001"))
	for name, v := range db.PerfContext().Snapshot() {
		if v != 0 {
			t.Errorf("perf_level=disable but %s = %d", name, v)
		}
	}
	// SetPerfLevel flips collection on without reopening.
	db.SetPerfLevel(PerfEnableCount)
	db.Get(nil, []byte("k0002"))
	if db.PerfContext().Get(PerfGetFromMemtableCount) == 0 {
		t.Error("SetPerfLevel(enable_count) did not start counting")
	}
}

// TestStatsDumpPeriodic asserts stats_dump_period_sec produces repeated
// "DUMPING STATS" blocks in LOG on the virtual clock, not just the close
// dump.
func TestStatsDumpPeriodic(t *testing.T) {
	db, env := openTestDB(t, func(o *Options) { o.StatsDumpPeriodSec = 1 })
	wo := DefaultWriteOptions()
	for round := 0; round < 3; round++ {
		env.Clock().Advance(1200 * time.Millisecond)
		// Any foreground op polls the runtime, which checks the timer.
		if err := db.Put(wo, []byte(fmt.Sprintf("r%d", round)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	content := readEnvFile(t, env, InfoLogFileName("/db"))
	n := strings.Count(content, "------- DUMPING STATS -------")
	if n < 3 { // three periodic + one final close dump, allow coalescing slop
		t.Fatalf("found %d stats dumps in LOG, want >= 3", n)
	}
}

// TestStatsHistoryRing exercises the bounded ring directly: byte budget
// enforcement, oldest-first eviction, zero-budget disable.
func TestStatsHistoryRing(t *testing.T) {
	snap := func(ts int) StatsSnapshot {
		return StatsSnapshot{
			Time:    time.Duration(ts) * time.Second,
			Tickers: map[string]int64{"rocksdb.block.cache.hit": int64(ts)},
		}
	}
	one := snap(0)
	unit := one.approxSize()

	h := newStatsHistory(3 * unit)
	for i := 0; i < 10; i++ {
		h.add(snap(i))
	}
	count, bytes := h.footprint()
	if count != 3 || bytes > 3*unit {
		t.Fatalf("footprint = %d snaps / %d bytes, want 3 snaps <= %d bytes", count, bytes, 3*unit)
	}
	got := h.between(0, 1<<62)
	if len(got) != 3 || got[0].Time != 7*time.Second || got[2].Time != 9*time.Second {
		t.Fatalf("retained %v, want the newest three (7s..9s)", got)
	}
	// Range query is [start, end).
	if mid := h.between(8*time.Second, 9*time.Second); len(mid) != 1 || mid[0].Time != 8*time.Second {
		t.Fatalf("between(8s,9s) = %v, want exactly the 8s snapshot", mid)
	}

	off := newStatsHistory(0)
	off.add(snap(1))
	if c, _ := off.footprint(); c != 0 {
		t.Fatal("stats_history_buffer_size=0 must retain nothing")
	}
}

// TestStatsHistoryPersistence checks the stats_persist_period_sec timer
// captures snapshots retrievable via GetStatsHistory and the property.
func TestStatsHistoryPersistence(t *testing.T) {
	db, env := openTestDB(t, func(o *Options) {
		o.StatsPersistPeriodSec = 1
		o.StatsHistoryBufferSize = 1 << 20
	})
	defer db.Close()
	wo := DefaultWriteOptions()
	for round := 0; round < 4; round++ {
		env.Clock().Advance(1100 * time.Millisecond)
		if err := db.Put(wo, []byte(fmt.Sprintf("r%d", round)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	snaps := db.GetStatsHistory(0, 1<<62)
	if len(snaps) < 3 {
		t.Fatalf("GetStatsHistory returned %d snapshots, want >= 3", len(snaps))
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Time <= snaps[i-1].Time {
			t.Fatalf("snapshots out of order: %v then %v", snaps[i-1].Time, snaps[i].Time)
		}
	}
	last := snaps[len(snaps)-1]
	if last.Tickers["rocksdb.bytes.written"] == 0 {
		t.Error("snapshot tickers empty")
	}
	prop, ok := db.GetProperty("rocksdb.stats.history")
	if !ok || !strings.Contains(prop, "snapshot(s)") || !strings.Contains(prop, "--- snapshot @ ") {
		t.Errorf("rocksdb.stats.history property malformed:\n%s", prop)
	}
	m := db.GetMetrics()
	if m.StatsHistoryCount != len(snaps) || m.StatsHistoryBytes <= 0 {
		t.Errorf("Metrics history footprint = %d/%d, want %d/>0",
			m.StatsHistoryCount, m.StatsHistoryBytes, len(snaps))
	}
}

// TestReportBgIOStats checks the knob gates per-level background I/O time
// in the cfstats table.
func TestReportBgIOStats(t *testing.T) {
	run := func(enabled bool) string {
		t.Helper()
		db, _ := openTestDB(t, func(o *Options) { o.ReportBgIOStats = enabled })
		defer db.Close()
		wo := DefaultWriteOptions()
		for i := 0; i < 3000; i++ {
			db.Put(wo, []byte(fmt.Sprintf("k%05d", i)), make([]byte, 128))
		}
		db.Flush()
		db.WaitForBackgroundIdle()
		s, _ := db.GetProperty("rocksdb.cfstats")
		return s
	}
	withStats := run(true)
	if !strings.Contains(withStats, "Wn(sec)") || !strings.Contains(withStats, "Fsync(sec)") {
		t.Errorf("report_bg_io_stats=true missing bg I/O columns:\n%s", withStats)
	}
	if without := run(false); strings.Contains(without, "Wn(sec)") {
		t.Errorf("report_bg_io_stats=false still shows bg I/O columns:\n%s", without)
	}
}

// TestWorkloadSnapshotDrift flips a window from write-heavy to read-heavy
// and checks the characterization and the drift score follow. Each window is
// two counter readings; drift is scored against the window before, as the
// tuning session scores it.
func TestWorkloadSnapshotDrift(t *testing.T) {
	db, _ := openTestDB(t, nil)
	defer db.Close()
	wo, ro := DefaultWriteOptions(), DefaultReadOptions()
	c0 := db.WorkloadCounters()

	// Window 1: all writes.
	for i := 0; i < 1000; i++ {
		db.Put(wo, []byte(fmt.Sprintf("k%05d", i)), make([]byte, 64))
	}
	c1 := db.WorkloadCounters()
	w1 := NewWorkloadSnapshot(c0, c1)
	w1.Drift = w1.DriftFrom(nil)
	if w1.WriteFraction < 0.95 || w1.Reads != 0 {
		t.Fatalf("write-heavy window characterized as %+v", w1)
	}
	if w1.Drift != 0 {
		t.Fatalf("first window drift = %v, want 0", w1.Drift)
	}

	// Window 2: all reads.
	for i := 0; i < 1000; i++ {
		db.Get(ro, []byte(fmt.Sprintf("k%05d", i)))
	}
	c2 := db.WorkloadCounters()
	w2 := NewWorkloadSnapshot(c1, c2)
	w2.Drift = w2.DriftFrom(&w1)
	if w2.ReadFraction < 0.95 || w2.Writes != 0 {
		t.Fatalf("read-heavy window characterized as %+v", w2)
	}
	if w2.Drift < 1.5 {
		t.Fatalf("read<->write flip drift = %v, want >= 1.5", w2.Drift)
	}
	if w2.MemtableHitRatio < 0.95 {
		t.Errorf("all keys live in the memtable, hit ratio = %v", w2.MemtableHitRatio)
	}

	// Window 3: same mix as window 2 — drift should be near zero again.
	for i := 0; i < 1000; i++ {
		db.Get(ro, []byte(fmt.Sprintf("k%05d", i)))
	}
	w3 := NewWorkloadSnapshot(c2, db.WorkloadCounters())
	w3.Drift = w3.DriftFrom(&w2)
	if w3.Drift > 0.2 {
		t.Errorf("unchanged mix drift = %v, want ~0", w3.Drift)
	}
	if !strings.Contains(w3.String(), "ops mix:") || !strings.Contains(w3.String(), "drift") {
		t.Errorf("snapshot rendering malformed:\n%s", w3.String())
	}
}

// TestWorkloadSnapshotPerCF checks traffic attribution across families.
func TestWorkloadSnapshotPerCF(t *testing.T) {
	db, _ := openTestDB(t, nil)
	defer db.Close()
	before := db.WorkloadCounters()
	hot, err := db.CreateColumnFamily("hot", nil)
	if err != nil {
		t.Fatal(err)
	}
	wo := DefaultWriteOptions()
	for i := 0; i < 300; i++ {
		db.PutCF(wo, hot, []byte(fmt.Sprintf("h%04d", i)), []byte("v"))
	}
	for i := 0; i < 100; i++ {
		db.Put(wo, []byte(fmt.Sprintf("d%04d", i)), []byte("v"))
	}
	ws := NewWorkloadSnapshot(before, db.WorkloadCounters())
	if ws.CFTraffic["hot"] < 0.6 || ws.CFTraffic["default"] > 0.4 {
		t.Fatalf("cf traffic = %v, want hot ~0.75 / default ~0.25", ws.CFTraffic)
	}
}

// TestWriteTrafficPerFamily: a committed batch books each family it touches
// its own entry count, not an even share of the batch.
func TestWriteTrafficPerFamily(t *testing.T) {
	db, _ := openTestDB(t, nil)
	defer db.Close()
	hot, err := db.CreateColumnFamily("hot", nil)
	if err != nil {
		t.Fatal(err)
	}
	writes := func(fill func(b *WriteBatch)) (hotWrites, defaultWrites int64) {
		t.Helper()
		before := db.WorkloadCounters()
		b := NewWriteBatch()
		fill(b)
		if err := db.Write(nil, b); err != nil {
			t.Fatal(err)
		}
		after := db.WorkloadCounters()
		return after.Families["hot"].Writes - before.Families["hot"].Writes,
			after.Families["default"].Writes - before.Families["default"].Writes
	}
	for _, tc := range []struct {
		name       string
		fill       func(b *WriteBatch)
		hot, deflt int64
	}{
		{"99 hot, 1 default", func(b *WriteBatch) {
			for i := 0; i < 99; i++ {
				b.PutCF(hot, []byte(fmt.Sprintf("h%02d", i)), []byte("v"))
			}
			b.Put([]byte("d"), []byte("v"))
		}, 99, 1},
		{"3 entries over 2 families", func(b *WriteBatch) {
			b.Put([]byte("d1"), []byte("v"))
			b.DeleteCF(hot, []byte("h1"))
			b.Delete([]byte("d2"))
		}, 1, 2},
		{"one family", func(b *WriteBatch) {
			for i := 0; i < 5; i++ {
				b.PutCF(hot, []byte(fmt.Sprintf("h%d", i)), []byte("v"))
			}
		}, 5, 0},
		{"default only", func(b *WriteBatch) {
			b.Put([]byte("d"), []byte("v"))
			b.Delete([]byte("d"))
		}, 0, 2},
	} {
		if h, d := writes(tc.fill); h != tc.hot || d != tc.deflt {
			t.Errorf("%s: booked hot %d, default %d; want %d, %d", tc.name, h, d, tc.hot, tc.deflt)
		}
	}
}

// TestPerfStatsConcurrency hammers an OS-mode DB with concurrent reads,
// writes, scans and observability readers while perf collection and the
// stats-history pump run — the -race target for this subsystem.
func TestPerfStatsConcurrency(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.WriteBufferSize = 64 << 10
	opts.BloomBitsPerKey = 10
	opts.PerfLevel = "enable_time"
	opts.StatsDumpPeriodSec = 1
	opts.StatsPersistPeriodSec = 1
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wo := DefaultWriteOptions()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				db.Put(wo, []byte(fmt.Sprintf("w%d-%06d", w, i)), make([]byte, 100))
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				db.Get(nil, []byte(fmt.Sprintf("w%d-%06d", r, i%1000)))
				if i%100 == 0 {
					it := db.NewIterator(nil)
					it.SeekToFirst()
					it.Close()
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		prev := db.WorkloadCounters()
		for {
			select {
			case <-stop:
				return
			default:
			}
			db.PerfContext().Snapshot()
			db.IOStats().Snapshot()
			db.GetStatsHistory(0, 1<<62)
			cur := db.WorkloadCounters()
			NewWorkloadSnapshot(prev, cur)
			prev = cur
			db.SetPerfLevel(PerfEnableCount)
			db.SetPerfLevel(PerfEnableTime)
			time.Sleep(time.Millisecond)
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
