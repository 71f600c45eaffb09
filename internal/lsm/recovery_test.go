package lsm

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func fillKeys(t *testing.T, db *DB, prefix string, n int) {
	t.Helper()
	wo := DefaultWriteOptions()
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("%s%05d", prefix, i))
		if err := db.Put(wo, k, []byte(fmt.Sprintf("value-%s-%d", prefix, i))); err != nil {
			t.Fatalf("Put %s: %v", k, err)
		}
	}
}

func TestBackgroundErrorAndManualResume(t *testing.T) {
	db, fenv, dir := openFaultDB(t, 11, nil)
	defer db.Close()

	fillKeys(t, db, "pre", 50)
	fenv.Inject(FaultRule{Op: FaultSync, Pattern: ".sst", OneShot: true})
	err := db.Flush()
	if !errors.Is(err, ErrBackgroundError) {
		t.Fatalf("Flush under injected sync fault = %v, want ErrBackgroundError", err)
	}
	if err := db.Put(DefaultWriteOptions(), []byte("k"), []byte("v")); !errors.Is(err, ErrBackgroundError) {
		t.Fatalf("Put in error state = %v, want ErrBackgroundError", err)
	}
	if got := db.stats.Get(TickerBgError); got == 0 {
		t.Fatal("bg.error ticker not bumped")
	}
	if got := logEvents(t, fenv, dir, "bg_error"); len(got) != 1 ||
		!strings.HasPrefix(got[0], "flush severity=hard: lsm: injected permanent sync fault on ") {
		t.Fatalf("bg_error lines = %q", got)
	}

	// Manual resume re-runs the failed flush (the one-shot rule is spent).
	if err := db.Resume(); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if got := db.stats.Get(TickerErrorRecoveryCount); got != 1 {
		t.Fatalf("error.recovery.count = %d, want 1", got)
	}
	if got := logEvents(t, fenv, dir, "recovery"); len(got) != 1 ||
		!strings.HasPrefix(got[0], "manual attempts=1 cleared: lsm: background error (flush, hard): ") {
		t.Fatalf("recovery lines = %q", got)
	}
	if err := db.Put(DefaultWriteOptions(), []byte("post"), []byte("v")); err != nil {
		t.Fatalf("Put after Resume: %v", err)
	}
	for i := 0; i < 50; i++ {
		k := []byte(fmt.Sprintf("pre%05d", i))
		if _, err := db.Get(nil, k); err != nil {
			t.Fatalf("Get %s after recovery: %v", k, err)
		}
	}
}

func TestBackgroundErrorAutoRecovery(t *testing.T) {
	db, fenv, dir := openFaultDB(t, 13, func(o *Options) {
		o.MaxBgErrorResumeCount = 10
		o.BgErrorResumeRetryInterval = 2000 // 2ms
	})
	defer db.Close()

	fillKeys(t, db, "auto", 50)
	fenv.Inject(FaultRule{Op: FaultSync, Pattern: ".sst", OneShot: true, Transient: true})
	db.Flush() // may observe the bg error or the already-recovered state

	for deadline := time.Now().Add(10 * time.Second); db.stats.Get(TickerErrorRecoveryCount) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("auto recovery did not happen")
		}
		time.Sleep(time.Millisecond)
	}
	// The recovery line is written under db.mu right after the ticker moves;
	// the Put takes db.mu, so the line is complete once it returns.
	if err := db.Put(DefaultWriteOptions(), []byte("post"), []byte("v")); err != nil {
		t.Fatalf("Put after auto recovery: %v", err)
	}
	if got := logEvents(t, fenv, dir, "recovery"); len(got) != 1 || !strings.HasPrefix(got[0], "auto ") {
		t.Fatalf("recovery not automatic: %q", got)
	}
	if got := logEvents(t, fenv, dir, "bg_error"); len(got) == 0 || !strings.Contains(got[len(got)-1], "severity=soft") {
		t.Fatalf("transient fault not classified soft: %q", got)
	}
	if _, err := db.Get(nil, []byte("auto00000")); err != nil {
		t.Fatalf("Get after auto recovery: %v", err)
	}
}

func TestWALSyncFailureSetsBackgroundError(t *testing.T) {
	db, fenv, _ := openFaultDB(t, 17, nil)
	defer db.Close()

	wo := DefaultWriteOptions()
	wo.Sync = true
	if err := db.Put(wo, []byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	fenv.Inject(FaultRule{Op: FaultSync, Pattern: ".log", OneShot: true})
	if err := db.Put(wo, []byte("b"), []byte("2")); !errors.Is(err, ErrInjected) {
		t.Fatalf("synced Put under WAL fault = %v, want ErrInjected", err)
	}
	if err := db.Put(wo, []byte("c"), []byte("3")); !errors.Is(err, ErrBackgroundError) {
		t.Fatalf("Put in error state = %v, want ErrBackgroundError", err)
	}
	if err := db.Resume(); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if err := db.Put(wo, []byte("d"), []byte("4")); err != nil {
		t.Fatalf("Put after Resume: %v", err)
	}
	if v, err := db.Get(nil, []byte("a")); err != nil || string(v) != "1" {
		t.Fatalf("Get(a) = %q, %v", v, err)
	}
}

func TestResumeRefusesFatalError(t *testing.T) {
	db, _, _ := openFaultDB(t, 19, nil)
	defer db.Close()

	db.mu.Lock()
	db.setBGErrorLocked(fmt.Errorf("%w: synthetic table damage", ErrCorruption), "compaction")
	db.mu.Unlock()
	err := db.Resume()
	if err == nil || !errors.Is(err, ErrBackgroundError) {
		t.Fatalf("Resume from fatal = %v, want refusal wrapping ErrBackgroundError", err)
	}
	if err := db.Put(DefaultWriteOptions(), []byte("k"), []byte("v")); !errors.Is(err, ErrBackgroundError) {
		t.Fatalf("Put after refused resume = %v, want ErrBackgroundError", err)
	}
}

// buildLogFile writes a WAL file containing the given batches, plus optional
// trailing garbage bytes (a torn record).
func buildLogFile(t *testing.T, env Env, name string, garbage []byte, batches ...*WriteBatch) {
	t.Helper()
	f, err := env.NewWritableFile(name, IOForeground)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Stats = NewStatistics()
	w := newWALWriter(f, opts, nil, nil)
	for _, b := range batches {
		if err := w.addRecord(b.rep); err != nil {
			t.Fatal(err)
		}
	}
	if len(garbage) > 0 {
		if err := f.Append(garbage); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func putBatch(seq uint64, kvs ...string) *WriteBatch {
	b := NewWriteBatch()
	for i := 0; i+1 < len(kvs); i += 2 {
		b.Put([]byte(kvs[i]), []byte(kvs[i+1]))
	}
	b.setSequence(seq)
	return b
}

func TestWALReplayModesTornTail(t *testing.T) {
	env := NewOSEnv()
	name := filepath.Join(t.TempDir(), "000007.log")
	buildLogFile(t, env, name, []byte{0xde, 0xad, 0xbe},
		putBatch(1, "a", "1"), putBatch(2, "b", "2"))

	count := func() (int, walReplayInfo, error) {
		n := 0
		info, err := walReplayMode(env, name, nil, WALRecoverTolerateCorruptedTailRecords, false, nil,
			func([]byte) error { n++; return nil })
		return n, info, err
	}
	n, info, err := count()
	if err != nil || n != 2 || info.droppedBytes != 3 || info.midFile {
		t.Fatalf("tolerate: n=%d info=%+v err=%v", n, info, err)
	}
	if _, err := walReplayMode(env, name, nil, WALRecoverAbsoluteConsistency, false, nil,
		func([]byte) error { return nil }); !errors.Is(err, ErrCorruption) {
		t.Fatalf("absolute on torn tail = %v, want ErrCorruption", err)
	}
}

func TestWALReplayMidFileCorruption(t *testing.T) {
	env := NewOSEnv()
	dir := t.TempDir()
	name := filepath.Join(dir, "000007.log")
	buildLogFile(t, env, name, nil,
		putBatch(1, "a", "1"), putBatch(2, "b", "2"), putBatch(3, "c", "3"))

	// Flip one payload byte of the middle record: header is intact, so the
	// third record still parses — classified as mid-file bit rot.
	rec1 := int64(walHeaderSize + len(putBatch(1, "a", "1").rep))
	fenv := NewFaultInjectionEnv(env, 1)
	if err := fenv.CorruptSyncedBytes(name, rec1+walHeaderSize+2, 1); err != nil {
		t.Fatal(err)
	}

	stats := NewStatistics()
	n := 0
	info, err := walReplayMode(env, name, nil, WALRecoverTolerateCorruptedTailRecords, false, stats,
		func([]byte) error { n++; return nil })
	if err != nil || n != 1 || info.corruptRecords != 1 || !info.midFile {
		t.Fatalf("tolerate: n=%d info=%+v err=%v", n, info, err)
	}
	if stats.Get(TickerWALCorruptRecords) != 1 {
		t.Fatalf("wal.corrupt.records = %d, want 1", stats.Get(TickerWALCorruptRecords))
	}
	// paranoid_checks upgrades mid-file damage to a hard error.
	if _, err := walReplayMode(env, name, nil, WALRecoverTolerateCorruptedTailRecords, true, nil,
		func([]byte) error { return nil }); err == nil {
		t.Fatal("paranoid replay tolerated mid-file corruption")
	}
	if _, err := walReplayMode(env, name, nil, WALRecoverAbsoluteConsistency, false, nil,
		func([]byte) error { return nil }); !errors.Is(err, ErrCorruption) {
		t.Fatalf("absolute = %v, want ErrCorruption", err)
	}
}

func TestOpenParanoidRejectsMidFileWALCorruption(t *testing.T) {
	db, fenv, dir := openFaultDB(t, 23, nil)
	wo := DefaultWriteOptions()
	wo.Sync = true
	for _, kv := range [][2]string{{"k1", "v1"}, {"k2", "v2"}, {"k3", "v3"}} {
		if err := db.Put(wo, []byte(kv[0]), []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := fenv.Crash(); err != nil { // everything was synced; nothing torn
		t.Fatal(err)
	}
	db.Close()

	// Corrupt one payload byte of the second WAL record.
	base := NewOSEnv()
	names, err := base.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	var logName string
	for _, n := range names {
		if kind, _ := parseFileName(n); kind == fileKindLog {
			logName = filepath.Join(dir, n)
		}
	}
	if logName == "" {
		t.Fatal("no WAL file survived the crash")
	}
	b1 := NewWriteBatch()
	b1.Put([]byte("k1"), []byte("v1"))
	rec1 := int64(walHeaderSize + len(b1.rep))
	if err := NewFaultInjectionEnv(base, 1).CorruptSyncedBytes(logName, rec1+walHeaderSize+2, 1); err != nil {
		t.Fatal(err)
	}

	openWith := func(tweak func(*Options)) (*DB, error) {
		opts := DefaultOptions()
		opts.Env = NewOSEnv()
		opts.CreateIfMissing = false
		if tweak != nil {
			tweak(opts)
		}
		return Open(dir, opts)
	}
	if _, err := openWith(func(o *Options) { o.ParanoidChecks = true }); err == nil {
		t.Fatal("paranoid open succeeded over mid-file WAL corruption")
	}
	if _, err := openWith(func(o *Options) { o.WALRecoveryMode = WALRecoverAbsoluteConsistency }); err == nil {
		t.Fatal("absolute-consistency open succeeded over WAL corruption")
	}
	db2, err := openWith(nil) // default tolerates, dropping from the damage on
	if err != nil {
		t.Fatalf("default open: %v", err)
	}
	defer db2.Close()
	if _, err := db2.Get(nil, []byte("k1")); err != nil {
		t.Fatalf("k1 (before damage) lost: %v", err)
	}
	if _, err := db2.Get(nil, []byte("k2")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("k2 (damaged record) = %v, want ErrNotFound", err)
	}
	if db2.stats.Get(TickerWALCorruptRecords) == 0 {
		t.Fatal("wal.corrupt.records not bumped on recovery")
	}
}

func TestWALPointInTimeRecoveryStopsAtDamage(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	env := NewOSEnv()
	opts := DefaultOptions()
	opts.Env = env
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put(DefaultWriteOptions(), []byte("k0"), []byte("v0")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Hand-write two later WAL files: the first ends in a torn record, the
	// second is clean. Point-in-time recovery must ignore the second.
	buildLogFile(t, env, logFileName(dir, 900001), []byte{1, 2, 3, 4, 5},
		putBatch(100, "p1", "a"))
	buildLogFile(t, env, logFileName(dir, 900002), nil,
		putBatch(101, "p2", "b"))

	reopen := func(mode WALRecoveryMode) *DB {
		t.Helper()
		o := DefaultOptions()
		o.Env = env
		o.CreateIfMissing = false
		o.WALRecoveryMode = mode
		db, err := Open(dir, o)
		if err != nil {
			t.Fatalf("reopen mode=%s: %v", mode, err)
		}
		return db
	}

	db2 := reopen(WALRecoverPointInTime)
	if _, err := db2.Get(nil, []byte("p1")); err != nil {
		t.Fatalf("p1 (before damage): %v", err)
	}
	if _, err := db2.Get(nil, []byte("p2")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("p2 after damage = %v, want ErrNotFound (point-in-time)", err)
	}
	db2.Close()

	// Default mode keeps going into the later log. (The PIT reopen above
	// flushed p1 and retired both logs, so rebuild them.)
	buildLogFile(t, env, logFileName(dir, 910001), []byte{1, 2, 3, 4, 5},
		putBatch(200, "q1", "a"))
	buildLogFile(t, env, logFileName(dir, 910002), nil,
		putBatch(201, "q2", "b"))
	db3 := reopen(WALRecoverTolerateCorruptedTailRecords)
	defer db3.Close()
	if _, err := db3.Get(nil, []byte("q1")); err != nil {
		t.Fatalf("q1: %v", err)
	}
	if _, err := db3.Get(nil, []byte("q2")); err != nil {
		t.Fatalf("q2 should replay under default mode: %v", err)
	}
}

func TestCrashBetweenManifestWriteAndCurrentSwap(t *testing.T) {
	db, fenv, dir := openFaultDB(t, 29, nil)
	wo := DefaultWriteOptions()
	wo.Sync = true
	for i := 0; i < 20; i++ {
		if err := db.Put(wo, []byte(fmt.Sprintf("key%03d", i)), []byte(fmt.Sprintf("val%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen writes a fresh manifest, then swaps CURRENT. Fail the swap —
	// the crash window between the two steps.
	fenv.Inject(FaultRule{Op: FaultRename, Pattern: "CURRENT", OneShot: true})
	opts := DefaultOptions()
	opts.Env = fenv
	opts.CreateIfMissing = false
	if _, err := Open(dir, opts); !errors.Is(err, ErrInjected) {
		t.Fatalf("open across failed CURRENT swap = %v, want ErrInjected", err)
	}
	if err := fenv.Crash(); err != nil {
		t.Fatal(err)
	}

	// CURRENT still names the old manifest; nothing is lost.
	opts2 := DefaultOptions()
	opts2.Env = NewOSEnv()
	opts2.CreateIfMissing = false
	db2, err := Open(dir, opts2)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer db2.Close()
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("key%03d", i)
		v, err := db2.Get(nil, []byte(k))
		if err != nil || string(v) != fmt.Sprintf("val%03d", i) {
			t.Fatalf("Get(%s) = %q, %v", k, v, err)
		}
	}
	rep, err := CheckDB(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("post-crash CheckDB issues: %v", rep.Issues)
	}
}

// TestWALReadErrorFailsOpen: a read that fails while Open replays the WAL is
// an I/O error, not a torn tail, in every recovery mode: Open fails without
// retiring the log, and the next Open without the fault returns every acked
// write.
func TestWALReadErrorFailsOpen(t *testing.T) {
	for _, mode := range []WALRecoveryMode{WALRecoverTolerateCorruptedTailRecords, WALRecoverPointInTime, WALRecoverAbsoluteConsistency} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			db, fenv, dir := openFaultDB(t, 31, nil)
			wo := DefaultWriteOptions()
			wo.Sync = true
			const n = 50
			for i := 0; i < n; i++ {
				if err := db.Put(wo, []byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := fenv.Crash(); err != nil { // everything was synced; nothing torn
				t.Fatal(err)
			}
			db.Close()

			opts := DefaultOptions()
			opts.CreateIfMissing = false
			opts.WALRecoveryMode = mode
			faulty := NewFaultInjectionEnv(NewOSEnv(), 1)
			faulty.Inject(FaultRule{Op: FaultRead, Pattern: ".log", OneShot: true})
			opts.Env = faulty
			if db, err := Open(dir, opts); err == nil {
				db.Close()
				t.Fatal("Open succeeded over a failed WAL read")
			} else if !errors.Is(err, ErrInjected) || errors.Is(err, ErrCorruption) {
				t.Fatalf("Open = %v, want the injected read error and not ErrCorruption", err)
			}

			opts.Env = NewOSEnv()
			db, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			for i := 0; i < n; i++ {
				k := fmt.Sprintf("k%03d", i)
				if v, err := db.Get(nil, []byte(k)); err != nil || string(v) != fmt.Sprintf("v%03d", i) {
					t.Fatalf("acked %s after the failed Open: %q, %v", k, v, err)
				}
			}
		})
	}
}
