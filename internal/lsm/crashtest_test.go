package lsm

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// crashCycles is the number of randomized crash/recover cycles per option
// combination. `make crashtest` raises it (go test ... -args -crashcycles=N).
var crashCycles = flag.Int("crashcycles", 4, "randomized crash/recovery cycles per option combination")

// crashCombo is one cell of the durability option matrix.
type crashCombo struct {
	name  string
	tweak func(*Options)
}

var crashCombos = []crashCombo{
	{"wal-basic", func(o *Options) {
		o.EnablePipelinedWrite = false
		o.AllowConcurrentMemtableWrite = false
	}},
	{"wal-concurrent", func(o *Options) {
		o.AllowConcurrentMemtableWrite = true
	}},
	{"wal-pipelined", func(o *Options) {
		o.EnablePipelinedWrite = true
		o.AllowConcurrentMemtableWrite = true
	}},
	// Snappy here puts the type-2 block decoder under the paranoid read-back
	// of every new table, torn tails and the bit flip at the end of a cycle.
	{"wal-paranoid", func(o *Options) {
		o.ParanoidChecks = true
		o.ParanoidFileChecks = true
		o.Compression = SnappyCompression
	}},
	{"nowal", func(o *Options) {
		o.DisableWAL = true
	}},
	// A two-reader table cache evicts the readers the recovered DB's scan
	// holds while the Gets inside it reopen others.
	{"max-open-files-2", func(o *Options) {
		o.MaxOpenFiles = 2
	}},
}

// crashWorkerState is one worker's view of its disjoint key space.
type crashWorkerState struct {
	acked     map[string]int // version whose synced Put returned nil
	attempted map[string]int // newest version a Put was issued for
}

// TestCrashConsistency is the randomized crash-recovery harness: concurrent
// writers push versioned values through a FaultInjectionEnv, the "machine"
// loses power at a random moment (torn tails included), and the reopened
// database must hold every write whose synced Put was acknowledged, never
// hold a version newer than the last attempted, and pass a full CheckDB
// before and after recovery.
func TestCrashConsistency(t *testing.T) {
	for _, combo := range crashCombos {
		combo := combo
		t.Run(combo.name, func(t *testing.T) {
			for cycle := 0; cycle < *crashCycles; cycle++ {
				runCrashCycle(t, combo, int64(1000*cycle+7))
			}
		})
	}
}

func runCrashCycle(t *testing.T, combo crashCombo, seed int64) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "db")
	fenv := NewFaultInjectionEnv(NewOSEnv(), seed)
	newOpts := func(env Env) *Options {
		o := DefaultOptions()
		o.Env = env
		o.WriteBufferSize = 64 << 10
		o.TargetFileSizeBase = 64 << 10
		o.MaxBytesForLevelBase = 256 << 10
		o.BlockSize = 1024
		o.BloomBitsPerKey = 10
		o.MaxWriteBufferNumber = 4
		o.MaxBgErrorResumeCount = 0
		combo.tweak(o)
		return o
	}
	db, err := Open(dir, newOpts(fenv))
	if err != nil {
		t.Fatalf("seed %d: open: %v", seed, err)
	}

	const workers = 4
	const keysPerWorker = 120
	states := make([]*crashWorkerState, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		st := &crashWorkerState{acked: map[string]int{}, attempted: map[string]int{}}
		states[w] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			version := map[string]int{}
			for {
				key := fmt.Sprintf("w%d-%04d", w, rng.Intn(keysPerWorker))
				ver := version[key] + 1
				version[key] = ver
				val := fmt.Sprintf("%08d|%s", ver, strings.Repeat("x", 40+rng.Intn(40)))
				wo := DefaultWriteOptions()
				wo.Sync = rng.Intn(4) == 0
				st.attempted[key] = ver
				if err := db.Put(wo, []byte(key), []byte(val)); err != nil {
					return // the crash (or its background error) reached us
				}
				if wo.Sync {
					st.acked[key] = ver
				}
			}
		}()
	}

	// Pull the plug at a random moment, torn tails and all.
	crashRng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
	time.Sleep(time.Duration(2+crashRng.Intn(40)) * time.Millisecond)
	if err := fenv.Crash(); err != nil {
		t.Fatalf("seed %d: crash: %v", seed, err)
	}
	wg.Wait()
	db.Close() // best effort: the filesystem is gone

	// The surviving directory must be structurally sound before recovery.
	base := fenv.Base()
	checkOpts := DefaultOptions()
	checkOpts.Env = base
	rep, err := CheckDB(dir, checkOpts)
	if err != nil {
		t.Fatalf("seed %d: post-crash CheckDB: %v", seed, err)
	}
	if !rep.OK() {
		t.Fatalf("seed %d: post-crash integrity issues: %v", seed, rep.Issues)
	}

	// Recover and verify the durability contract.
	ropts := newOpts(base)
	ropts.CreateIfMissing = false
	db2, err := Open(dir, ropts)
	if err != nil {
		t.Fatalf("seed %d: reopen: %v", seed, err)
	}
	found := 0
	for w, st := range states {
		for key, attempted := range st.attempted {
			acked := st.acked[key]
			v, err := db2.Get(nil, []byte(key))
			if err == nil {
				found++
			}
			if errors.Is(err, ErrNotFound) {
				if acked > 0 && !db2.options().DisableWAL {
					t.Fatalf("seed %d: worker %d: acked key %s (v%d) lost", seed, w, key, acked)
				}
				continue
			}
			if err != nil {
				t.Fatalf("seed %d: Get(%s): %v", seed, key, err)
			}
			ver, perr := strconv.Atoi(strings.TrimLeft(string(v[:8]), "0"))
			if perr != nil || ver < 1 {
				t.Fatalf("seed %d: key %s holds garbage %q", seed, key, v)
			}
			if !db2.options().DisableWAL && ver < acked {
				t.Fatalf("seed %d: worker %d: key %s rolled back to v%d, acked v%d", seed, w, key, ver, acked)
			}
			if ver > attempted {
				t.Fatalf("seed %d: worker %d: key %s at v%d, never wrote past v%d", seed, w, key, ver, attempted)
			}
		}
	}
	// A full scan agrees with the Gets inside it. Every 32nd key is
	// rewritten unchanged and flushed, so new tables appear under the
	// iterator and a small table cache trades readers while it holds some.
	it := db2.NewIterator(nil)
	scanned := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		v, err := db2.Get(nil, it.Key())
		if err != nil || !bytes.Equal(v, it.Value()) {
			t.Fatalf("seed %d: scan has %s = %q, Get says %q, %v", seed, it.Key(), it.Value(), v, err)
		}
		if scanned++; scanned%32 == 0 {
			if err := db2.Put(nil, it.Key(), v); err != nil {
				t.Fatalf("seed %d: rewrite %s: %v", seed, it.Key(), err)
			}
			if err := db2.Flush(); err != nil {
				t.Fatalf("seed %d: flush during the scan: %v", seed, err)
			}
		}
	}
	if err := it.Close(); err != nil || scanned != found {
		t.Fatalf("seed %d: scan read %d keys (err %v), Gets found %d", seed, scanned, err, found)
	}
	if err := db2.Close(); err != nil {
		t.Fatalf("seed %d: close after recovery: %v", seed, err)
	}
	rep, err = CheckDB(dir, checkOpts)
	if err != nil {
		t.Fatalf("seed %d: post-recovery CheckDB: %v", seed, err)
	}
	if !rep.OK() {
		t.Fatalf("seed %d: post-recovery integrity issues: %v", seed, rep.Issues)
	}

	// A bit flipped in a synced table surfaces as corruption, never a panic.
	names, err := base.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if kind, _ := parseFileName(n); kind != fileKindTable {
			continue
		}
		sst := filepath.Join(dir, n)
		size, err := base.FileSize(sst)
		if err != nil {
			t.Fatal(err)
		}
		if err := NewFaultInjectionEnv(base, seed).CorruptSyncedBytes(sst, size/3, 1); err != nil {
			t.Fatal(err)
		}
		rep, err = CheckDB(dir, checkOpts)
		if err != nil {
			t.Fatalf("seed %d: CheckDB after bit flip: %v", seed, err)
		}
		if len(rep.Issues) != 1 || !errors.Is(rep.Issues[0].Err, ErrCorruption) {
			t.Fatalf("seed %d: bit flip in %s reported as %v", seed, n, rep.Issues)
		}
		break
	}
}

// TestCrashConsistencyMultiCF runs the crash harness with writers spread
// over two column families sharing one WAL: after the crash every
// acknowledged key must recover in the family it was written to, carrying
// that family's tag, and never bleed into the other family.
func TestCrashConsistencyMultiCF(t *testing.T) {
	for cycle := 0; cycle < *crashCycles; cycle++ {
		runMultiCFCrashCycle(t, int64(2000*cycle+13))
	}
}

func runMultiCFCrashCycle(t *testing.T, seed int64) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "db")
	fenv := NewFaultInjectionEnv(NewOSEnv(), seed)
	newOpts := func(env Env) *Options {
		o := DefaultOptions()
		o.Env = env
		o.WriteBufferSize = 64 << 10
		o.TargetFileSizeBase = 64 << 10
		o.MaxBytesForLevelBase = 256 << 10
		o.BlockSize = 1024
		o.BloomBitsPerKey = 10
		o.MaxWriteBufferNumber = 4
		o.MaxBgErrorResumeCount = 0
		return o
	}
	db, err := Open(dir, newOpts(fenv))
	if err != nil {
		t.Fatalf("seed %d: open: %v", seed, err)
	}
	hotOpts := newOpts(fenv)
	hotOpts.WriteBufferSize = 128 << 10 // give the hot family its own buffer size
	hot, err := db.CreateColumnFamily("hot", hotOpts)
	if err != nil {
		t.Fatalf("seed %d: create hot: %v", seed, err)
	}

	// Workers 0-1 write the default family, 2-3 the hot family; both use the
	// SAME key names so cross-family bleed would be caught immediately by
	// the family tag baked into every value.
	const workers = 4
	const keysPerWorker = 80
	families := []struct {
		tag    string
		handle *ColumnFamilyHandle
	}{{"def", nil}, {"hot", hot}}
	states := make([]*crashWorkerState, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		fam := families[w/2]
		st := &crashWorkerState{acked: map[string]int{}, attempted: map[string]int{}}
		states[w] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			version := map[string]int{}
			for {
				key := fmt.Sprintf("k%d-%04d", w%2, rng.Intn(keysPerWorker))
				ver := version[key] + 1
				version[key] = ver
				val := fmt.Sprintf("%08d|%s|%s", ver, fam.tag, strings.Repeat("x", 40+rng.Intn(40)))
				wo := DefaultWriteOptions()
				wo.Sync = rng.Intn(4) == 0
				st.attempted[key] = ver
				if err := db.PutCF(wo, fam.handle, []byte(key), []byte(val)); err != nil {
					return
				}
				if wo.Sync {
					st.acked[key] = ver
				}
			}
		}()
	}

	crashRng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
	time.Sleep(time.Duration(2+crashRng.Intn(40)) * time.Millisecond)
	if err := fenv.Crash(); err != nil {
		t.Fatalf("seed %d: crash: %v", seed, err)
	}
	wg.Wait()
	db.Close()

	base := fenv.Base()
	checkOpts := DefaultOptions()
	checkOpts.Env = base
	rep, err := CheckDB(dir, checkOpts)
	if err != nil {
		t.Fatalf("seed %d: post-crash CheckDB: %v", seed, err)
	}
	if !rep.OK() {
		t.Fatalf("seed %d: post-crash integrity issues: %v", seed, rep.Issues)
	}

	// Plain Open adopts the hot family from the manifest.
	ropts := newOpts(base)
	ropts.CreateIfMissing = false
	db2, err := Open(dir, ropts)
	if err != nil {
		t.Fatalf("seed %d: reopen: %v", seed, err)
	}
	hot2, err := db2.GetColumnFamily("hot")
	if err != nil {
		t.Fatalf("seed %d: hot family lost in crash: %v", seed, err)
	}
	handles := []*ColumnFamilyHandle{nil, hot2}
	for w, st := range states {
		fam := families[w/2]
		h := handles[w/2]
		for key, attempted := range st.attempted {
			acked := st.acked[key]
			v, err := db2.GetCF(nil, h, []byte(key))
			if errors.Is(err, ErrNotFound) {
				if acked > 0 {
					t.Fatalf("seed %d: worker %d: acked %s key %s (v%d) lost", seed, w, fam.tag, key, acked)
				}
				continue
			}
			if err != nil {
				t.Fatalf("seed %d: GetCF(%s, %s): %v", seed, fam.tag, key, err)
			}
			parts := strings.SplitN(string(v), "|", 3)
			if len(parts) != 3 {
				t.Fatalf("seed %d: key %s holds garbage %q", seed, key, v)
			}
			if parts[1] != fam.tag {
				t.Fatalf("seed %d: key %s recovered into family %s with tag %q", seed, key, fam.tag, parts[1])
			}
			ver, perr := strconv.Atoi(strings.TrimLeft(parts[0], "0"))
			if perr != nil || ver < 1 {
				t.Fatalf("seed %d: key %s holds garbage version %q", seed, key, v)
			}
			if ver < acked {
				t.Fatalf("seed %d: worker %d: %s key %s rolled back to v%d, acked v%d", seed, w, fam.tag, key, ver, acked)
			}
			if ver > attempted {
				t.Fatalf("seed %d: worker %d: %s key %s at v%d, never wrote past v%d", seed, w, fam.tag, key, ver, attempted)
			}
		}
	}
	if err := db2.Close(); err != nil {
		t.Fatalf("seed %d: close after recovery: %v", seed, err)
	}
	rep, err = CheckDB(dir, checkOpts)
	if err != nil {
		t.Fatalf("seed %d: post-recovery CheckDB: %v", seed, err)
	}
	if !rep.OK() {
		t.Fatalf("seed %d: post-recovery integrity issues: %v", seed, rep.Issues)
	}
}
