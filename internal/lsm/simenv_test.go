package lsm

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/device"
)

func TestSimEnvFiles(t *testing.T) {
	env := testSimEnv()
	w, err := env.NewWritableFile("/dir/file", IOForeground)
	if err != nil {
		t.Fatal(err)
	}
	w.Append([]byte("hello "))
	w.Append([]byte("world"))
	w.Close()
	if err := w.Append([]byte("x")); err == nil {
		t.Fatal("append after close accepted")
	}

	if !env.FileExists("/dir/file") {
		t.Fatal("file missing")
	}
	if n, _ := env.FileSize("/dir/file"); n != 11 {
		t.Fatalf("size = %d", n)
	}
	r, err := env.NewRandomAccessFile("/dir/file", IOForeground)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if err := r.ReadAt(buf, 6, HintRandom); err != nil || string(buf) != "world" {
		t.Fatalf("ReadAt = %q, %v", buf, err)
	}
	if err := r.ReadAt(buf, 100, HintRandom); err == nil {
		t.Fatal("out-of-range read accepted")
	}

	if err := env.Rename("/dir/file", "/dir/file2"); err != nil {
		t.Fatal(err)
	}
	if env.FileExists("/dir/file") || !env.FileExists("/dir/file2") {
		t.Fatal("rename failed")
	}
	names, err := env.List("/dir")
	if err != nil || len(names) != 1 || names[0] != "file2" {
		t.Fatalf("List = %v, %v", names, err)
	}
	if err := env.Remove("/dir/file2"); err != nil {
		t.Fatal(err)
	}
	if err := env.Remove("/dir/file2"); err == nil {
		t.Fatal("double remove accepted")
	}
	if _, err := env.NewRandomAccessFile("/nope", IOForeground); err == nil {
		t.Fatal("open of missing file accepted")
	}
}

// bytes returns a copy of the file's contents.
func (f *memFile) bytes() []byte {
	b := make([]byte, f.size)
	f.readAt(b, 0)
	return b
}

// TestSimEnvFileChunks: a SimEnv file is stored in simFileChunk pieces.
// Reads that start, end or straddle a chunk boundary return the bytes
// appended there, a file of exactly N chunks holds N, a zero-length read is
// accepted anywhere up to the size, and a read past the size is a short read.
func TestSimEnvFileChunks(t *testing.T) {
	const c = simFileChunk
	env := testSimEnv()
	w, err := env.NewWritableFile("/f", IOBackground)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for len(want) < 3*c+1000 {
		p := make([]byte, 4093) // not a divisor of the chunk size
		for i := range p {
			p[i] = byte(len(want) + i*7)
		}
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
		want = append(want, p...)
		if n, err := env.FileSize("/f"); err != nil || n != int64(len(want)) {
			t.Fatalf("FileSize = %d, %v after appending %d bytes", n, err, len(want))
		}
	}
	r, err := env.NewRandomAccessFile("/f", IOBackground)
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(want))
	if n, _ := r.Size(); n != size {
		t.Fatalf("Size = %d, want %d", n, size)
	}
	for _, tc := range []struct{ off, n int64 }{
		{0, 10},                   // inside the first chunk
		{c - 10, 10},              // ends on a boundary
		{c, 10},                   // starts on a boundary
		{c - 5, 10},               // straddles one boundary
		{c - 5, 2*c + 10},         // straddles two
		{2 * c, c},                // exactly one chunk
		{0, size},                 // the whole file
		{size - 7, 7},             // the tail
		{0, 0}, {c, 0}, {size, 0}, // zero-length
	} {
		got := make([]byte, tc.n)
		if err := r.ReadAt(got, tc.off, HintSequential); err != nil {
			t.Fatalf("ReadAt(%d, off %d): %v", tc.n, tc.off, err)
		}
		if !bytes.Equal(got, want[tc.off:tc.off+tc.n]) {
			t.Fatalf("ReadAt(%d, off %d) returned other bytes than were appended", tc.n, tc.off)
		}
	}
	for _, tc := range []struct{ off, n int64 }{{size - 1, 2}, {size, 1}, {size + 1, 0}, {-1, 1}} {
		if err := r.ReadAt(make([]byte, tc.n), tc.off, HintSequential); !errors.Is(err, errShortRead) {
			t.Fatalf("ReadAt(%d, off %d) past size %d = %v, want errShortRead", tc.n, tc.off, size, err)
		}
	}

	// A file of exactly two chunks holds two; one more byte starts a third.
	w, err = env.NewWritableFile("/g", IOBackground)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(want[:2*c]); err != nil {
		t.Fatal(err)
	}
	g := env.files[cleanPath("/g")]
	if len(g.chunks) != 2 || g.size != 2*c {
		t.Fatalf("a %d-byte file holds %d chunks (size %d), want 2", 2*c, len(g.chunks), g.size)
	}
	if !bytes.Equal(g.bytes(), want[:2*c]) {
		t.Fatal("two-chunk file reads back other bytes")
	}
	if err := w.Append([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if n, _ := env.FileSize("/g"); len(g.chunks) != 3 || n != 2*c+1 {
		t.Fatalf("after one more byte: %d chunks, FileSize %d; want 3, %d", len(g.chunks), n, 2*c+1)
	}
}

func TestSimEnvOpCostAccumulates(t *testing.T) {
	env := testSimEnv()
	env.TakeOpCost()
	env.ChargeCPU(10 * time.Microsecond)
	env.ChargeStall(time.Millisecond)
	cost := env.TakeOpCost()
	if cost < time.Millisecond+9*time.Microsecond {
		t.Fatalf("opCost = %v", cost)
	}
	if env.TakeOpCost() != 0 {
		t.Fatal("TakeOpCost did not reset")
	}
	if env.Stats().TotalStall < time.Millisecond {
		t.Fatal("stall not counted")
	}
}

func TestSimEnvPageCacheHitVsMiss(t *testing.T) {
	env := NewSimEnv(device.SATAHDD(), device.Profile4C8G(), 1)
	// Foreground appends (WAL-style) populate the page cache; background
	// streams do not (kernel drop-behind).
	w, _ := env.NewWritableFile("/f", IOForeground)
	w.Append(make([]byte, 1<<20))
	w.Close()
	// Fresh foreground writes land in page cache: first read is a hit.
	r, _ := env.NewRandomAccessFile("/f", IOForeground)
	env.TakeOpCost()
	buf := make([]byte, 4096)
	r.ReadAt(buf, 0, HintRandom)
	hot := env.TakeOpCost()
	if hot > time.Millisecond {
		t.Fatalf("page-cache hit cost %v, want microseconds", hot)
	}
	// Evict by collapsing the page-cache budget (engine claims all memory)
	// and inserting one more chunk.
	env.AddEngineMemory(func() int64 { return device.Profile4C8G().MemoryBytes })
	spill, _ := env.NewWritableFile("/spill", IOForeground)
	spill.Append(make([]byte, simPageChunk))
	spill.Close()
	env.TakeOpCost()
	r.ReadAt(buf, 0, HintRandom)
	cold := env.TakeOpCost()
	if cold < 3*time.Millisecond {
		t.Fatalf("expected HDD-milliseconds for cold read, got %v", cold)
	}
	st := env.Stats()
	if st.PageCacheHits == 0 || st.PageCacheMisses == 0 {
		t.Fatalf("page cache stats: %+v", st)
	}
}

func TestSimEnvMemoryPressureShrinksPageCache(t *testing.T) {
	small := NewSimEnv(device.NVMe(), device.Profile2C4G(), 1)
	// Engine claims nearly all memory: page cache budget collapses.
	small.AddEngineMemory(func() int64 { return 3 * device.GiB })
	w, _ := small.NewWritableFile("/f", IOBackground)
	w.Append(make([]byte, 4<<20))
	w.Close()
	budget := small.pageBudgetLocked()
	if budget > device.GiB {
		t.Fatalf("page budget %d too large under memory pressure", budget)
	}
	big := NewSimEnv(device.NVMe(), device.Profile4C8G(), 1)
	big.AddEngineMemory(func() int64 { return 128 << 20 })
	if big.pageBudgetLocked() <= budget {
		t.Fatal("more host memory should mean more page cache")
	}
}

// TestSimEnvEngineMemoryPerDB: every DB open on a shared SimEnv takes its
// memory out of the page-cache budget, and a closed one gives it back.
func TestSimEnvEngineMemoryPerDB(t *testing.T) {
	env := NewSimEnv(device.NVMe(), device.Profile4C8G(), 1)
	open := func(dir string) *DB {
		opts := DefaultOptions()
		opts.Env = env
		opts.WriteBufferSize = 64 << 20
		opts.BlockCacheSize = 256 << 20
		db, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	budget := func() int64 {
		env.mu.Lock()
		defer env.mu.Unlock()
		return env.pageBudgetLocked()
	}
	idle := budget()
	a := open("/a")
	withA := budget()
	b := open("/b")
	withBoth := budget()
	if !(withBoth < withA && withA < idle) {
		t.Fatalf("page budget idle=%d, A open=%d, A+B open=%d: each open DB must shrink it", idle, withA, withBoth)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if got := budget(); got != withA {
		t.Fatalf("page budget after closing B = %d, want %d (A alone)", got, withA)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if got := budget(); got != idle {
		t.Fatalf("page budget with every DB closed = %d, want %d", got, idle)
	}
}

func TestSimEnvBackgroundInterference(t *testing.T) {
	env := NewSimEnv(device.SATAHDD(), device.Profile4C8G(), 1)
	w, _ := env.NewWritableFile("/f", IOBackground)
	w.Append(make([]byte, 8<<20))
	w.Close()
	// Cold read baseline (avoid page cache: use a chunk beyond cached area).
	r, _ := env.NewRandomAccessFile("/f", IOForeground)
	// Evict everything cheaply by reading through an empty cache env: just
	// compare utilization effect directly instead.
	if u := env.Utilization(); u != 0 {
		t.Fatalf("baseline utilization = %v", u)
	}
	end := env.ScheduleBackgroundIO(64<<20, 64<<20, 2<<20, true, false, 0, 0, 1)
	if end <= env.Now() {
		t.Fatal("job completed instantly")
	}
	if u := env.Utilization(); u < 0.4 {
		t.Fatalf("HDD background job utilization = %v, want >= 0.4", u)
	}
	if env.ActiveBackground() != 1 {
		t.Fatalf("active jobs = %d", env.ActiveBackground())
	}
	// After the clock passes the end, utilization decays to zero.
	env.Clock().AdvanceTo(end + time.Second)
	if u := env.Utilization(); u != 0 {
		t.Fatalf("utilization after completion = %v", u)
	}
	_ = r
}

func TestSimEnvWritebackBurstWithoutPeriodicSync(t *testing.T) {
	env := NewSimEnv(device.SATAHDD(), device.Profile4C8G(), 1)
	before := env.Stats().WritebackBursts
	env.ScheduleBackgroundIO(0, 32<<20, 0, false, false, 0, 0, 1)
	if env.Stats().WritebackBursts != before+1 {
		t.Fatal("no writeback burst for unsmoothed background write")
	}
	before = env.Stats().WritebackBursts
	env.ScheduleBackgroundIO(0, 32<<20, 0, true, false, 0, 0, 1)
	if env.Stats().WritebackBursts != before {
		t.Fatal("periodic sync should avoid the burst")
	}
}

func TestSimEnvRateFloor(t *testing.T) {
	env := testSimEnv()
	start := env.Now()
	end := env.ScheduleBackgroundIO(0, 1<<20, 0, true, false, 0, 10*time.Second, 1)
	if end-start < 9*time.Second {
		t.Fatalf("rate floor ignored: job duration %v", end-start)
	}
}

func TestSimEnvForegroundDirtyBurst(t *testing.T) {
	env := NewSimEnv(device.SATAHDD(), device.Profile4C8G(), 1)
	w, _ := env.NewWritableFile("/wal", IOForeground)
	env.TakeOpCost()
	// Push > simDirtyBurst bytes without syncing: at some point one append
	// eats a writeback burst.
	var worst time.Duration
	for i := 0; i < 80; i++ {
		w.Append(make([]byte, 1<<20))
		if c := env.TakeOpCost(); c > worst {
			worst = c
		}
	}
	if env.Stats().WritebackBursts == 0 {
		t.Fatal("no dirty writeback burst")
	}
	if worst < 10*time.Millisecond {
		t.Fatalf("burst too cheap: %v", worst)
	}
}

func TestOSEnvBasics(t *testing.T) {
	env := NewOSEnv()
	dir := t.TempDir()
	if err := env.MkdirAll(dir + "/sub"); err != nil {
		t.Fatal(err)
	}
	w, err := env.NewWritableFile(dir+"/sub/f", IOForeground)
	if err != nil {
		t.Fatal(err)
	}
	w.Append([]byte("data"))
	w.Sync()
	w.Close()
	if !env.FileExists(dir + "/sub/f") {
		t.Fatal("file missing")
	}
	names, err := env.List(dir + "/sub")
	if err != nil || len(names) != 1 {
		t.Fatalf("List = %v, %v", names, err)
	}
	r, err := env.NewRandomAccessFile(dir+"/sub/f", IOForeground)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if err := r.ReadAt(buf, 0, HintRandom); err != nil || string(buf) != "data" {
		t.Fatalf("ReadAt = %q, %v", buf, err)
	}
	if n, _ := r.Size(); n != 4 {
		t.Fatalf("Size = %d", n)
	}
	r.Close()
	if env.Now() <= 0 {
		t.Fatal("clock not running")
	}
}
