package lsm

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/device"
)

// twoClocksScript drives one seeded single-threaded workload — overwrites,
// deletes, multi-family batches, Sync writes, WAL-less batches, writes
// naming a dropped family, Flush, CompactRange, with background flushes and
// compactions running and the stats-history timer armed — and returns the
// full iterator dump of both live families. grouped turns on
// enable_pipelined_write and allow_concurrent_memtable_write and makes the
// sim model four-writer groups. Nothing in it depends on how time passes or
// how groups form, so every runtime must produce the same bytes.
func twoClocksScript(t *testing.T, env Env, dir string, subs int, grouped bool) string {
	opts := DefaultOptions()
	opts.Env = env
	opts.WriteBufferSize = 64 << 10
	opts.TargetFileSizeBase = 64 << 10
	opts.MaxBytesForLevelBase = 256 << 10
	opts.MaxSubcompactions = subs
	opts.MaxBackgroundJobs = 4
	opts.StatsPersistPeriodSec = 1
	opts.EnablePipelinedWrite = grouped
	opts.AllowConcurrentMemtableWrite = grouped
	if sim, ok := env.(*SimEnv); ok && grouped {
		sim.SetForegroundThreads(4)
	}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	aux, err := db.CreateColumnFamily("aux", opts)
	if err != nil {
		t.Fatal(err)
	}
	gone, err := db.CreateColumnFamily("gone", opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DropColumnFamily(gone); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	wo := DefaultWriteOptions()
	for i := 0; i < 8000; i++ {
		key := []byte(fmt.Sprintf("key%05d", rng.Intn(2500)))
		val := []byte(strings.Repeat(string(rune('a'+rng.Intn(26))), 40+rng.Intn(200)))
		switch op := rng.Intn(24); {
		case op < 4:
			err = db.Delete(wo, key)
		case op < 8:
			b := NewWriteBatch()
			b.Put(key, val)
			b.PutCF(aux, []byte(fmt.Sprintf("aux%04d", rng.Intn(400))), val[:20])
			b.DeleteCF(aux, []byte(fmt.Sprintf("aux%04d", rng.Intn(400))))
			err = db.Write(wo, b)
		case op == 8:
			err = db.Put(&WriteOptions{Sync: true}, key, val)
		case op < 11:
			b := NewWriteBatch()
			b.Put(key, val)
			b.PutCF(aux, []byte(fmt.Sprintf("aux%04d", rng.Intn(400))), val[:30])
			err = db.Write(&WriteOptions{DisableWAL: true}, b)
		case op == 11:
			// The whole batch fails, its live-family half included.
			b := NewWriteBatch()
			b.Put([]byte(fmt.Sprintf("lost%05d", i)), val)
			b.PutCF(gone, key, val)
			if err = db.Write(wo, b); !errors.Is(err, ErrColumnFamilyNotFound) {
				t.Fatalf("write naming a dropped family = %v, want ErrColumnFamilyNotFound", err)
			}
			err = nil
		default:
			err = db.Put(wo, key, val)
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%3000 == 2999 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitForBackgroundIdle(); err != nil {
		t.Fatal(err)
	}
	// Let the stats-persist period pass on whichever clock this env keeps.
	if sim, ok := env.(*SimEnv); ok {
		sim.Clock().Advance(2 * time.Second)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if _, err := db.Get(nil, []byte("key00000")); err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatal(err)
		}
		if len(db.GetStatsHistory(0, 1<<62)) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stats history still empty one period after the script")
		}
	}
	dump := dumpAll(t, db, nil, nil) + "--aux--\n" + dumpAll(t, db, nil, aux)
	if strings.Contains(dump, "lost") {
		t.Fatal("a batch that failed on a dropped family was partly applied")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := CheckDB(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("CheckDB: %v", rep.Issues)
	}
	return dump
}

// TestOneEngineTwoClocks runs the same script on the virtual clock and on
// the OS, serial and with four subcompaction slices — the latter with
// pipelined writes and concurrent inserts on: the engine is one engine with
// one commit path, so all four must end with identical contents, a clean
// CheckDB and a stats history the runtime's timer filled.
func TestOneEngineTwoClocks(t *testing.T) {
	var want string
	for _, subs := range []int{1, 4} {
		for _, mode := range []string{"sim", "os"} {
			var env Env = NewOSEnv()
			dir := t.TempDir()
			if mode == "sim" {
				env, dir = NewSimEnv(device.NVMe(), device.Profile4C8G(), 42), "/db"
			}
			got := twoClocksScript(t, env, dir, subs, subs > 1)
			if len(got) < 1000 {
				t.Fatalf("%s/subs=%d: implausibly small dump (%d bytes)", mode, subs, len(got))
			}
			if want == "" {
				want = got
			} else if got != want {
				t.Errorf("%s/subs=%d: contents differ from sim/subs=1", mode, subs)
			}
		}
	}
}

// TestSimCompletionsInstallInOrder pins the simulation runtime's queue
// discipline: installs run in completion-time order, ties in submission
// order, and only once the clock has reached them.
func TestSimCompletionsInstallInOrder(t *testing.T) {
	db, env := openTestDB(t, nil)
	defer db.Close()
	rt := db.rt.(*simRuntime)
	var order []string
	note := func(name string) func(*compactionResult, error) {
		return func(*compactionResult, error) { order = append(order, name) }
	}
	// Priced durations grow with the bytes written; failed work completes at
	// the current time, which is how two completions come to tie.
	write := func(n int64) func() (*compactionResult, error) {
		return func() (*compactionResult, error) {
			return &compactionResult{edit: &versionEdit{}, writeBytes: n}, nil
		}
	}
	fail := func() (*compactionResult, error) { return nil, errors.New("no output") }
	db.mu.Lock()
	defer db.mu.Unlock()
	rt.run(write(64<<20), note("big"))
	rt.run(fail, note("failed-1"))
	rt.run(write(1<<20), note("small"))
	rt.run(write(16<<20), note("mid"))
	rt.run(fail, note("failed-2"))
	if got := rt.inFlight(); got != 5 {
		t.Fatalf("inFlight = %d, want 5", got)
	}
	rt.poll()
	if got := strings.Join(order, ","); got != "failed-1,failed-2" {
		t.Fatalf("after poll with the clock unmoved: installed %q, want only the two failed jobs", got)
	}
	for rt.inFlight() > 0 {
		rt.wait()
	}
	if got := strings.Join(order, ","); got != "failed-1,failed-2,small,mid,big" {
		t.Fatalf("install order = %s", got)
	}
	if env.Stats().TotalStall == 0 {
		t.Fatal("waiting on the virtual clock charged no stall")
	}
}

// TestWaitWithNothingInFlight: a writer told to wait while no job runs and
// none can be scheduled must get the stall error, not hang, on both
// runtimes.
func TestWaitWithNothingInFlight(t *testing.T) {
	simDB, _ := openTestDB(t, nil)
	defer simDB.Close()
	opts := DefaultOptions()
	osDB, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer osDB.Close()
	for name, db := range map[string]*DB{"sim": simDB, "os": osDB} {
		db.mu.Lock()
		err := db.waitForBackgroundLocked()
		db.mu.Unlock()
		if err == nil || !strings.Contains(err.Error(), "stalled with no background work") {
			t.Errorf("%s: waitForBackgroundLocked = %v, want the stall error", name, err)
		}
	}
}

// TestCloseDrainsQueuedCompletionsAfterBGError is the regression test for a
// simulation-only hang: a background error made WaitForBackgroundIdle return
// early, and Close then waited on a condition variable nothing in simulation
// ever signals while a flush completion was still queued.
func TestCloseDrainsQueuedCompletionsAfterBGError(t *testing.T) {
	db, env := openTestDB(t, func(o *Options) {
		o.MaxBackgroundJobs = 2
		o.MaxWriteBufferNumber = 6
		o.Level0FileNumCompactionTrigger = 2
	})
	wo := DefaultWriteOptions()
	if err := db.Put(wo, []byte("a"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Lose the one L0 table: the compaction that the next flush triggers
	// will fail to open it.
	db.mu.Lock()
	lost := db.vs.head(0).LevelFiles(0)[0].Number
	db.mu.Unlock()
	if err := env.Remove(tableFileName("/db", lost)); err != nil {
		t.Fatal(err)
	}
	// Freeze two memtables without letting virtual time pass: the first
	// flush is queued, the second waits for the single flush slot and is
	// scheduled — and queued — when the first installs, in the same poll that
	// runs and fails the compaction.
	val := []byte(strings.Repeat("x", 1024))
	for i := 0; i < 150; i++ {
		if err := db.Put(wo, []byte(fmt.Sprintf("k%04d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- db.Close() }()
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("Close = %v, want the compaction's missing-input error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Close hangs with a flush completion queued behind a background error")
	}
}
