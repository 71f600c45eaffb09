package lsm

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
)

// runFillVThreads drives the sim-mode write pipeline with a mini event loop
// over `threads` virtual workload threads (the same scheme the bench runner
// uses: smallest-now thread goes next, the clock advances to it, and the op
// cost it accrues pushes it into the future). It returns the virtual elapsed
// time for n batch writes and the DB's statistics.
func runFillVThreads(t *testing.T, threads, batchN, n int, sync bool, tweak func(*Options)) (time.Duration, *Statistics) {
	t.Helper()
	env := NewSimEnv(device.NVMe(), device.Profile4C8G(), 5)
	opts := DefaultOptions()
	opts.Env = env
	opts.WriteBufferSize = 1 << 20
	if tweak != nil {
		tweak(opts)
	}
	db, err := Open("/wt", opts)
	if err != nil {
		t.Fatal(err)
	}
	env.SetForegroundThreads(threads)
	wo := &WriteOptions{Sync: sync}
	now := make([]time.Duration, threads)
	key := 0
	env.TakeOpCost()
	for done := 0; done < n; done++ {
		th := 0
		for j := 1; j < threads; j++ {
			if now[j] < now[th] {
				th = j
			}
		}
		env.Clock().AdvanceTo(now[th])
		b := NewWriteBatch()
		for k := 0; k < batchN; k++ {
			b.Put([]byte(fmt.Sprintf("k%08d", key)), make([]byte, 128))
			key++
		}
		if err := db.Write(wo, b); err != nil {
			t.Fatal(err)
		}
		now[th] += env.TakeOpCost() + 150*time.Nanosecond
	}
	var end time.Duration
	for _, v := range now {
		if v > end {
			end = v
		}
	}
	stats := db.stats
	env.SetForegroundThreads(1)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return end, stats
}

func TestConcurrentMemtableWriteSpeedsParallelFills(t *testing.T) {
	base := func(o *Options) {
		o.EnablePipelinedWrite = false
		o.EnableWriteThreadAdaptiveYield = true
	}
	on, _ := runFillVThreads(t, 4, 8, 2000, false, func(o *Options) {
		base(o)
		o.AllowConcurrentMemtableWrite = true
	})
	off, _ := runFillVThreads(t, 4, 8, 2000, false, func(o *Options) {
		base(o)
		o.AllowConcurrentMemtableWrite = false
	})
	if on >= off {
		t.Fatalf("allow_concurrent_memtable_write should speed 4-thread fills: on=%v off=%v", on, off)
	}
}

func TestPipelinedWriteSpeedsParallelFills(t *testing.T) {
	// Concurrent inserts off isolates the pipeline effect: with one
	// exclusive write slot the WAL and memtable stages serialize; pipelining
	// overlaps group N's memtable stage with group N+1's WAL stage.
	base := func(o *Options) {
		o.AllowConcurrentMemtableWrite = false
		o.EnableWriteThreadAdaptiveYield = true
	}
	on, _ := runFillVThreads(t, 4, 8, 2000, false, func(o *Options) {
		base(o)
		o.EnablePipelinedWrite = true
	})
	off, _ := runFillVThreads(t, 4, 8, 2000, false, func(o *Options) {
		base(o)
		o.EnablePipelinedWrite = false
	})
	if on >= off {
		t.Fatalf("enable_pipelined_write should speed 4-thread fills: on=%v off=%v", on, off)
	}
}

func TestAdaptiveYieldReducesHandoffCost(t *testing.T) {
	// Queue-bound fills pay a handoff overhead per queued write: the spin
	// path (adaptive yield) catches the leader's wake cheaper than a futex
	// block + wake.
	base := func(o *Options) {
		o.AllowConcurrentMemtableWrite = false
		o.EnablePipelinedWrite = false
	}
	on, _ := runFillVThreads(t, 4, 8, 2000, false, func(o *Options) {
		base(o)
		o.EnableWriteThreadAdaptiveYield = true
		o.WriteThreadMaxYieldUsec = 100
		o.WriteThreadSlowYieldUsec = 3
	})
	off, _ := runFillVThreads(t, 4, 8, 2000, false, func(o *Options) {
		base(o)
		o.EnableWriteThreadAdaptiveYield = false
	})
	if on >= off {
		t.Fatalf("adaptive yield should speed queue-bound fills: on=%v off=%v", on, off)
	}
	// A tiny yield budget cannot catch real queue waits, so it degrades to
	// the blocking path.
	tiny, _ := runFillVThreads(t, 4, 8, 2000, false, func(o *Options) {
		base(o)
		o.EnableWriteThreadAdaptiveYield = true
		o.WriteThreadMaxYieldUsec = 1
	})
	if on >= tiny {
		t.Fatalf("write_thread_max_yield_usec=1 should behave like blocking: full=%v tiny=%v", on, tiny)
	}
}

func TestSimGroupCommitAmortizesSyncs(t *testing.T) {
	const n = 400
	_, stats := runFillVThreads(t, 4, 2, n, true, nil)
	syncs := stats.Get(TickerWALSyncs)
	if syncs == 0 {
		t.Fatal("Sync=true produced no WAL syncs")
	}
	if syncs >= n {
		t.Fatalf("group commit should sync once per group, not per batch: syncs=%d batches=%d", syncs, n)
	}
	if stats.Get(TickerWriteDoneBySelf) == 0 || stats.Get(TickerWriteDoneByOther) == 0 {
		t.Fatalf("leader/follower tickers not populated: self=%d other=%d",
			stats.Get(TickerWriteDoneBySelf), stats.Get(TickerWriteDoneByOther))
	}
}

func TestSimWritePipelineDeterministic(t *testing.T) {
	run := func() (time.Duration, int64) {
		el, stats := runFillVThreads(t, 4, 4, 1500, true, func(o *Options) {
			o.EnablePipelinedWrite = true
		})
		return el, stats.Get(TickerWALSyncs)
	}
	el1, s1 := run()
	el2, s2 := run()
	if el1 != el2 || s1 != s2 {
		t.Fatalf("identical specs must produce identical timings: %v/%d vs %v/%d", el1, s1, el2, s2)
	}
}

// TestSimWriteTimelinePerDB: two DBs on one SimEnv share the host, not a
// write lock. B's write arrives at the same virtual instant as A's and must
// not queue behind A's WAL stage.
func TestSimWriteTimelinePerDB(t *testing.T) {
	env := NewSimEnv(device.NVMe(), device.Profile4C8G(), 5)
	env.SetForegroundThreads(4)
	var dbs [2]*DB
	for i, dir := range []string{"/a", "/b"} {
		opts := DefaultOptions()
		opts.Env = env
		db, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		dbs[i] = db
	}
	var cost [2]time.Duration
	env.TakeOpCost()
	for i, db := range dbs {
		if err := db.Put(nil, []byte("k"), make([]byte, 128)); err != nil {
			t.Fatal(err)
		}
		cost[i] = env.TakeOpCost() // the clock does not move
	}
	if n := dbs[1].hists.Data(HistWriteJoinMicros).Count; n != 0 {
		t.Fatalf("B's write queued %d time(s) behind A's", n)
	}
	if cost[1] > cost[0]*3/2 {
		t.Fatalf("B's write cost %v against A's %v: it paid for A's stages", cost[1], cost[0])
	}
}

// openOSTestDB opens a DB on the real filesystem for concurrency tests.
func openOSTestDB(t *testing.T, tweak func(*Options)) *DB {
	t.Helper()
	opts := DefaultOptions()
	opts.WriteBufferSize = 256 << 10
	if tweak != nil {
		tweak(opts)
	}
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// hammer runs writers goroutines, each committing batches sequential
// batches of perBatch distinct keys (perBatch 1: one DB.Put each), and fails
// the test on any write error. It raises GOMAXPROCS
// so that on a single-core runner a leader blocked in fsync leaves other OS
// threads free to enqueue — otherwise a fast syscall can complete before the
// scheduler ever preempts the writer and no group forms.
func hammer(t *testing.T, db *DB, wo *WriteOptions, writers, batches, perBatch int) {
	t.Helper()
	if runtime.GOMAXPROCS(0) < writers {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(writers))
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				var err error
				if perBatch == 1 { // through Put's pooled one-entry batch
					key := fmt.Sprintf("w%02d-b%04d-k00", w, i)
					err = db.Put(wo, []byte(key), []byte("val-"+key))
				} else {
					b := NewWriteBatch()
					for k := 0; k < perBatch; k++ {
						key := fmt.Sprintf("w%02d-b%04d-k%02d", w, i, k)
						b.Put([]byte(key), []byte(fmt.Sprintf("val-%s", key)))
					}
					err = db.Write(wo, b)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

func TestGroupCommitConcurrentWriters(t *testing.T) {
	for _, perBatch := range []int{4, 1} {
		t.Run(fmt.Sprintf("perBatch=%d", perBatch), func(t *testing.T) {
			testGroupCommitConcurrentWriters(t, perBatch)
		})
	}
}

// testGroupCommitConcurrentWriters hammers a DB with 8 writers committing
// batches of perBatch Puts (1: through DB.Put, whose pooled batch a
// follower gives back while its leader still lists it) and checks that
// every batch landed.
func testGroupCommitConcurrentWriters(t *testing.T, perBatch int) {
	db := openOSTestDB(t, func(o *Options) {
		o.AllowConcurrentMemtableWrite = true
	})
	defer db.Close()
	const writers, batches = 8, 150
	// Sync writes park the leader in fsync, so follower goroutines pile up
	// behind it and groups form even on a single-core runner.
	hammer(t, db, &WriteOptions{Sync: true}, writers, batches, perBatch)

	self := db.stats.Get(TickerWriteDoneBySelf)
	other := db.stats.Get(TickerWriteDoneByOther)
	if self+other != writers*batches {
		t.Fatalf("self(%d)+other(%d) != %d batches", self, other, writers*batches)
	}
	if other == 0 {
		t.Fatal("8 hammering writers never formed a group (write.other == 0)")
	}
	if gs := db.hists.Data(HistWriteGroupSize); gs.Max < 2 {
		t.Fatalf("group size histogram never saw a group: max=%v", gs.Max)
	}
	// Every batch's keys are readable: no group lost inserts, and the
	// published sequence covers them all.
	for w := 0; w < writers; w++ {
		for _, i := range []int{0, batches / 2, batches - 1} {
			key := fmt.Sprintf("w%02d-b%04d-k%02d", w, i, perBatch-1)
			if v, err := db.Get(nil, []byte(key)); err != nil || string(v) != "val-"+key {
				t.Fatalf("%s = %q, %v", key, v, err)
			}
		}
	}
	if got, want := db.publishedSeq.Load(), uint64(writers*batches*perBatch); got != want {
		t.Fatalf("published sequence %d, want %d", got, want)
	}
}

func TestGroupCommitAmortizesSyncsOS(t *testing.T) {
	// Group formation depends on goroutine interleaving; a pathological
	// schedule (every writer finishing before the next arrives) can
	// legitimately produce one sync per batch, so allow a few attempts on
	// fresh DBs before declaring amortization broken.
	const writers, batches = 8, 50
	var syncs int64
	for attempt := 0; attempt < 5; attempt++ {
		db := openOSTestDB(t, nil)
		hammer(t, db, &WriteOptions{Sync: true}, writers, batches, 2)
		syncs = db.stats.Get(TickerWALSyncs)
		db.Close()
		if syncs == 0 {
			t.Fatal("no WAL syncs recorded")
		}
		if syncs < writers*batches {
			return
		}
	}
	t.Fatalf("Sync=true with %d concurrent writers should amortize: %d syncs for %d batches",
		writers, syncs, writers*batches)
}

func TestPipelinedConcurrentWritersWithFlush(t *testing.T) {
	// Pipelined + concurrent inserts while Flush switches memtables under
	// the writers' feet: exercises commitMu, memtable pinning and ordered
	// sequence publication together.
	db := openOSTestDB(t, func(o *Options) {
		o.EnablePipelinedWrite = true
		o.AllowConcurrentMemtableWrite = true
		o.WriteBufferSize = 64 << 10
	})
	defer db.Close()
	stop := make(chan struct{})
	var fwg sync.WaitGroup
	fwg.Add(1)
	go func() {
		defer fwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := db.Flush(); err != nil && !errors.Is(err, ErrClosed) {
					t.Error(err)
					return
				}
			}
		}
	}()
	hammer(t, db, DefaultWriteOptions(), 6, 120, 3)
	close(stop)
	fwg.Wait()
	for w := 0; w < 6; w++ {
		key := fmt.Sprintf("w%02d-b%04d-k%02d", w, 119, 2)
		if v, err := db.Get(nil, []byte(key)); err != nil || string(v) != "val-"+key {
			t.Fatalf("%s = %q, %v", key, v, err)
		}
	}
}

func TestGroupedWALRecordsRecoverAfterCrash(t *testing.T) {
	// Concurrent writers produce multi-batch WAL record runs; a crash
	// (reopen without Close) must replay every grouped record.
	env := NewSimEnv(device.NVMe(), device.Profile4C8G(), 7)
	opts := DefaultOptions()
	opts.Env = env
	db, err := Open("/gc", opts)
	if err != nil {
		t.Fatal(err)
	}
	env.SetForegroundThreads(4) // sim groups form from the vthread count
	wo := DefaultWriteOptions()
	const n = 300
	for i := 0; i < n; i++ {
		b := NewWriteBatch()
		b.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i)))
		b.Put([]byte(fmt.Sprintf("x%04d", i)), []byte("y"))
		if err := db.Write(wo, b); err != nil {
			t.Fatal(err)
		}
	}
	wantSeq := db.publishedSeq.Load()
	// No Close: the data lives only in the WAL's grouped records.
	env.SetForegroundThreads(1)
	db2, err := Open("/gc", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < n; i += 7 {
		v, err := db2.Get(nil, []byte(fmt.Sprintf("k%04d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%04d lost after crash: %q, %v", i, v, err)
		}
	}
	if got := db2.publishedSeq.Load(); got != wantSeq {
		t.Fatalf("recovered sequence %d, want %d", got, wantSeq)
	}
}

func TestWALAddRecordsMatchesFraming(t *testing.T) {
	// addRecords (the group-commit record run) must be byte-compatible with
	// repeated addRecord so the replay path needs no special cases.
	env := NewSimEnv(device.NVMe(), device.Profile4C8G(), 3)
	payloads := [][]byte{
		[]byte("alpha"),
		make([]byte, 3000),
		[]byte(""),
		[]byte("omega"),
	}
	write := func(path string, grouped bool) []byte {
		f, err := env.NewWritableFile(path, IOForeground)
		if err != nil {
			t.Fatal(err)
		}
		w := newWALWriter(f, DefaultOptions(), nil, nil)
		if grouped {
			if err := w.addRecords(payloads, 0, false); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, p := range payloads {
				if err := w.addRecord(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		r, err := env.NewRandomAccessFile(path, IOForeground)
		if err != nil {
			t.Fatal(err)
		}
		size, err := r.Size()
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, size)
		if err := r.ReadAt(data, 0, HintSequential); err != nil {
			t.Fatal(err)
		}
		return data
	}
	a := write("/wal-grouped", true)
	b := write("/wal-single", false)
	if string(a) != string(b) {
		t.Fatalf("grouped WAL framing differs from single-record framing (%d vs %d bytes)", len(a), len(b))
	}
}

func TestGetCountsBytesReadOnMemtableHit(t *testing.T) {
	db, _ := openTestDB(t, nil)
	defer db.Close()
	val := make([]byte, 333)
	if err := db.Put(nil, []byte("hot"), val); err != nil {
		t.Fatal(err)
	}
	before := db.stats.Get(TickerBytesRead)
	if _, err := db.Get(nil, []byte("hot")); err != nil {
		t.Fatal(err)
	}
	if got := db.stats.Get(TickerBytesRead) - before; got != int64(len(val)) {
		t.Fatalf("memtable hit added %d to BytesRead, want %d", got, len(val))
	}
	if db.stats.Get(TickerMemtableHit) == 0 {
		t.Fatal("expected a memtable hit")
	}
}

func TestGetReturnsPrivateCopy(t *testing.T) {
	// Mutating a Get result must never corrupt engine state, whether the
	// value came from the memtable or from an SSTable block.
	db, _ := openTestDB(t, nil)
	defer db.Close()
	if err := db.Put(nil, []byte("mem"), []byte("memval")); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get(nil, []byte("mem"))
	if err != nil {
		t.Fatal(err)
	}
	copy(v, "XXXXXX")
	if v2, _ := db.Get(nil, []byte("mem")); string(v2) != "memval" {
		t.Fatalf("memtable value corrupted through Get alias: %q", v2)
	}

	if err := db.Put(nil, []byte("sst"), []byte("sstval")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	v, err = db.Get(nil, []byte("sst"))
	if err != nil {
		t.Fatal(err)
	}
	copy(v, "XXXXXX")
	if v2, _ := db.Get(nil, []byte("sst")); string(v2) != "sstval" {
		t.Fatalf("sstable value corrupted through Get alias: %q", v2)
	}
}
