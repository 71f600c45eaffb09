package lsm

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
)

// tableBytesScript runs a fixed SimEnv script — snappy blocks, overwrites
// and deletes over a narrow key space, a snapshot held across the
// compactions, Flush, a range-bounded CompactRange, then a full one — at the
// given max_subcompactions, and returns the SHA-256 of the bytes of every
// live table in file-number order.
func tableBytesScript(t *testing.T, subs int) string {
	env := NewSimEnv(device.NVMe(), device.Profile4C8G(), 42)
	opts := DefaultOptions()
	opts.Env = env
	opts.Compression = SnappyCompression
	opts.WriteBufferSize = 64 << 10
	opts.TargetFileSizeBase = 64 << 10
	opts.MaxBytesForLevelBase = 256 << 10
	opts.BlockSize = 1024
	opts.BloomBitsPerKey = 10
	opts.MaxSubcompactions = subs
	opts.DisableAutoCompactions = true // only Flush and CompactRange write tables
	db, err := Open("/db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(11))
	wo := DefaultWriteOptions()
	var snap *Snapshot
	for i := 0; i < 9000; i++ {
		key := []byte(fmt.Sprintf("key%05d", rng.Intn(1500)))
		if rng.Intn(5) == 0 {
			err = db.Delete(wo, key)
		} else {
			val := make([]byte, 40+rng.Intn(300))
			for j := range val {
				val[j] = byte('a' + rng.Intn(4)) // compressible, not trivially so
			}
			err = db.Put(wo, key, val)
		}
		if err != nil {
			t.Fatal(err)
		}
		if i == 4000 {
			snap = db.GetSnapshot()
		}
		if i%2000 == 1999 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	defer db.ReleaseSnapshot(snap)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactRange([]byte("key00300"), []byte("key00900")); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitForBackgroundIdle(); err != nil {
		t.Fatal(err)
	}
	if subs > 1 && db.stats.Get(TickerSubcompactionScheduled) <= db.stats.Get(TickerCompactCount) {
		t.Fatalf("max_subcompactions=%d never split a compaction", subs)
	}
	names, err := env.List("/db")
	if err != nil {
		t.Fatal(err)
	}
	var nums []uint64
	for _, name := range names {
		if kind, num := parseFileName(name); kind == fileKindTable {
			nums = append(nums, num)
		}
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	if len(nums) < 2 {
		t.Fatalf("subs=%d: %d live tables, want several", subs, len(nums))
	}
	h := sha256.New()
	for _, num := range nums {
		f, err := env.NewRandomAccessFile(tableFileName("/db", num), IOForeground)
		if err != nil {
			t.Fatal(err)
		}
		size, err := f.Size()
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, size)
		if err := f.ReadAt(buf, 0, HintSequential); err != nil {
			t.Fatal(err)
		}
		f.Close()
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTableBytesGolden pins the bytes flush and compaction write: the hashes
// were computed before flush and compaction shared one table writer, and a
// change to the per-entry loop, output cutting, the shadow or tombstone rule,
// or the block codec that alters a single byte fails here. Regenerate only
// when the on-disk output is meant to change.
func TestTableBytesGolden(t *testing.T) {
	want := map[int]string{
		1: "d0ee44763caa53c16e55d9d29c0406e474ceb3d199c98347848cbf511a1ea5ac",
		4: "888e9052039e3572fdae04ba16dc066cd9c1145bc5112a4a9ee317c004be81a4",
	}
	for _, subs := range []int{1, 4} {
		got := tableBytesScript(t, subs)
		if again := tableBytesScript(t, subs); again != got {
			t.Fatalf("subs=%d: the script is not deterministic: %s then %s", subs, got, again)
		}
		if got != want[subs] {
			t.Errorf("subs=%d: table bytes hash %s, want %s", subs, got, want[subs])
		}
	}
}

// tableFileEnv wraps an Env and watches the table files it writes: it counts
// opens and closes, can fail Sync, and can pause the first Append made after
// it is armed until released.
type tableFileEnv struct {
	Env
	mu       sync.Mutex
	opened   int
	closed   int
	failSync error
	armed    bool
	paused   chan struct{} // closed when an Append pauses
	release  chan struct{} // closed to let it continue
}

func newTableFileEnv(base Env) *tableFileEnv {
	return &tableFileEnv{Env: base, paused: make(chan struct{}), release: make(chan struct{})}
}

func (e *tableFileEnv) NewWritableFile(name string, class IOClass) (WritableFile, error) {
	f, err := e.Env.NewWritableFile(name, class)
	if err != nil || !strings.HasSuffix(name, ".sst") {
		return f, err
	}
	e.mu.Lock()
	e.opened++
	e.mu.Unlock()
	return &tableFile{WritableFile: f, env: e}, nil
}

func (e *tableFileEnv) counts() (opened, closed int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.opened, e.closed
}

type tableFile struct {
	WritableFile
	env *tableFileEnv
}

func (f *tableFile) Append(p []byte) error {
	e := f.env
	e.mu.Lock()
	pause := e.armed
	e.armed = false
	e.mu.Unlock()
	if pause {
		close(e.paused)
		<-e.release
	}
	return f.WritableFile.Append(p)
}

func (f *tableFile) Sync() error {
	e := f.env
	e.mu.Lock()
	err := e.failSync
	e.mu.Unlock()
	if err != nil {
		return err
	}
	return f.WritableFile.Sync()
}

func (f *tableFile) Close() error {
	e := f.env
	e.mu.Lock()
	e.closed++
	e.mu.Unlock()
	return f.WritableFile.Close()
}

// openTableFileDB opens an OS-env DB under a tableFileEnv with two flushed
// L0 tables that overlap, so CompactRange has a merge to do.
func openTableFileDB(t *testing.T, tweak func(*Options)) (*DB, *tableFileEnv) {
	t.Helper()
	env := newTableFileEnv(NewOSEnv())
	opts := DefaultOptions()
	opts.Env = env
	opts.DisableAutoCompactions = true
	if tweak != nil {
		tweak(opts)
	}
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		for i := 0; i < 500; i++ {
			if err := db.Put(nil, []byte(fmt.Sprintf("key%04d", i)), []byte(fmt.Sprintf("v%d-%d", run, i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return db, env
}

// TestManualCompactionDoesNotBlockReads: a manual compaction runs off the DB
// mutex like an automatic one, so a Get issued while its output write is
// stalled still returns.
func TestManualCompactionDoesNotBlockReads(t *testing.T) {
	db, env := openTableFileDB(t, nil)
	defer db.Close()
	env.mu.Lock()
	env.armed = true
	env.mu.Unlock()
	done := make(chan error, 1)
	go func() { done <- db.CompactRange(nil, nil) }()
	select {
	case <-env.paused:
	case <-time.After(10 * time.Second):
		t.Fatal("the compaction never wrote a table")
	}
	got := make(chan error, 1)
	go func() {
		v, err := db.Get(nil, []byte("key0042"))
		if err == nil && string(v) != "v1-42" {
			err = fmt.Errorf("Get = %q, want v1-42", v)
		}
		got <- err
	}()
	select {
	case err := <-got:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(2 * time.Second):
		t.Error("Get still blocked 2s into a paused manual compaction")
		defer func() { <-got }()
	}
	close(env.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestFailedCompactionClosesOutput: a compaction whose output fails to sync
// closes the output file, leaves a background error and a failed "manual"
// compaction event, and a retry after Resume succeeds.
func TestFailedCompactionClosesOutput(t *testing.T) {
	var mu sync.Mutex
	var events []CompactionInfo
	lis := &ListenerFuncs{CompactionCompleted: func(i CompactionInfo) {
		mu.Lock()
		events = append(events, i)
		mu.Unlock()
	}}
	db, env := openTableFileDB(t, func(o *Options) { o.Listeners = []EventListener{lis} })
	defer db.Close()
	fault := errors.New("injected sync failure")
	env.mu.Lock()
	env.failSync = fault
	env.mu.Unlock()
	err := db.CompactRange(nil, nil)
	if opened, closed := env.counts(); opened != closed {
		t.Errorf("table files: %d opened, %d closed", opened, closed)
	}
	if !errors.Is(err, ErrBackgroundError) || !errors.Is(err, fault) {
		t.Errorf("CompactRange = %v, want a background error caused by the sync fault", err)
	}
	mu.Lock()
	failed := events
	events = nil
	mu.Unlock()
	if len(failed) != 1 || failed[0].Reason != "manual" || !errors.Is(failed[0].Err, fault) {
		t.Fatalf("compaction events = %+v, want one failed manual compaction", failed)
	}
	env.mu.Lock()
	env.failSync = nil
	env.mu.Unlock()
	if err := db.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatalf("retry after Resume: %v", err)
	}
	if n := db.vs.head(0).NumLevelFiles(0); n != 0 {
		t.Errorf("L0 still holds %d files after the retried compaction", n)
	}
	if v, err := db.Get(nil, []byte("key0042")); err != nil || string(v) != "v1-42" {
		t.Errorf("Get = %q, %v; want v1-42", v, err)
	}
}
