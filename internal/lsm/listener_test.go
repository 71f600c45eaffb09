package lsm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/device"
)

// readEnvFile reads a whole file from an Env (used to inspect the LOG).
func readEnvFile(t *testing.T, env Env, name string) string {
	t.Helper()
	size, err := env.FileSize(name)
	if err != nil {
		t.Fatalf("FileSize(%s): %v", name, err)
	}
	f, err := env.NewRandomAccessFile(name, IOBackground)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	defer f.Close()
	buf := make([]byte, size)
	if size > 0 {
		if err := f.ReadAt(buf, 0, HintSequential); err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
	}
	return string(buf)
}

// logEvents returns the body of every LOG line tagged [tag] in dir, in
// order: the text after "[tag] ".
func logEvents(t *testing.T, env Env, dir, tag string) []string {
	t.Helper()
	var out []string
	for _, line := range strings.Split(readEnvFile(t, env, InfoLogFileName(dir)), "\n") {
		if _, body, ok := strings.Cut(line, " ["+tag+"] "); ok {
			out = append(out, body)
		}
	}
	return out
}

func TestEngineEventsLogged(t *testing.T) {
	db, env := openTestDB(t, nil)
	defer db.Close()

	wo := DefaultWriteOptions()
	wo.Sync = true
	for i := 0; i < 3000; i++ {
		if err := db.Put(wo, []byte(fmt.Sprintf("k%05d", i)), make([]byte, 128)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitForBackgroundIdle(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}

	flushes := logEvents(t, env, "/db", "flush")
	if len(flushes) == 0 || int64(len(flushes)) != db.stats.Get(TickerFlushCount) {
		t.Fatalf("%d flush lines, flush.count %d", len(flushes), db.stats.Get(TickerFlushCount))
	}
	for _, f := range flushes {
		var mems int
		if _, err := fmt.Sscanf(f, "memtables=%d", &mems); err != nil || mems < 1 {
			t.Fatalf("flush line %q", f)
		}
	}
	var mems, bytes int64
	var out uint64
	if _, err := fmt.Sscanf(flushes[0], "memtables=%d -> %d.sst bytes=%d", &mems, &out, &bytes); err != nil || bytes <= 0 || out == 0 {
		t.Fatalf("flush line incomplete: %q", flushes[0])
	}
	compactions := logEvents(t, env, "/db", "compaction")
	if len(compactions) == 0 || int64(len(compactions)) != db.stats.Get(TickerCompactCount) {
		t.Fatalf("%d compaction lines, compact.count %d", len(compactions), db.stats.Get(TickerCompactCount))
	}
	sawManual := false
	for _, c := range compactions {
		var reason string
		var in, outLevel int
		if _, err := fmt.Sscanf(c, "%s L%d->L%d", &reason, &in, &outLevel); err != nil || outLevel < in {
			t.Fatalf("compaction line incomplete: %q", c)
		}
		if reason == "manual" {
			sawManual = true
		}
	}
	if !sawManual {
		t.Fatalf("no manual-compaction line among %q", compactions)
	}
	if n := db.hists.Data(HistWALSyncMicros).Count; n == 0 {
		t.Fatal("no WAL syncs recorded despite Sync writes")
	}
	// Stall transitions come in pairs when they happen (normal->delayed,
	// delayed->normal, ...); with the small test buffers they may or may not
	// trigger, but any logged transition must be a real change.
	for _, s := range logEvents(t, env, "/db", "stall") {
		var prev, cur string
		if _, err := fmt.Sscanf(s, "%s -> %s", &prev, &cur); err != nil || prev == cur {
			t.Fatalf("stall line %q", s)
		}
	}
}

func TestStallLoggedUnderPressure(t *testing.T) {
	db, env := openTestDB(t, func(o *Options) {
		o.Level0FileNumCompactionTrigger = 2
		o.Level0SlowdownWritesTrigger = 2
		o.Level0StopWritesTrigger = 4
	})
	defer db.Close()
	wo := DefaultWriteOptions()
	for i := 0; i < 20000; i++ {
		if err := db.Put(wo, []byte(fmt.Sprintf("k%06d", i)), make([]byte, 256)); err != nil {
			t.Fatal(err)
		}
	}
	db.WaitForBackgroundIdle()
	stalls := logEvents(t, env, "/db", "stall")
	if len(stalls) == 0 {
		t.Fatal("no stall transitions with trigger=2 under 20k writes")
	}
	if db.stats.Get(TickerSlowdownWrites)+db.stats.Get(TickerStoppedWrites) == 0 {
		t.Fatal("stall lines logged but no write was slowed or stopped")
	}
	if !strings.HasPrefix(stalls[0], "normal -> ") {
		t.Fatalf("first transition %q, want one from normal", stalls[0])
	}
}

// TestStallRestsInDelayed checks that a slowed write leaves the controller
// delayed: with the slowdown trigger holding, the LOG must not flip
// delayed -> normal -> delayed at one timestamp, which it did once per
// slowed write while the controller reset to normal before returning.
func TestStallRestsInDelayed(t *testing.T) {
	db, env := openTestDB(t, func(o *Options) {
		o.Level0FileNumCompactionTrigger = 2
		o.Level0SlowdownWritesTrigger = 2
		o.Level0StopWritesTrigger = 4
	})
	defer db.Close()
	wo := DefaultWriteOptions()
	for i := 0; i < 20000; i++ {
		if err := db.Put(wo, []byte(fmt.Sprintf("k%06d", i)), make([]byte, 256)); err != nil {
			t.Fatal(err)
		}
	}
	db.WaitForBackgroundIdle()
	if db.stats.Get(TickerSlowdownWrites) == 0 {
		t.Fatal("no write was slowed: the script does not exercise the slowdown trigger")
	}
	type stall struct{ ts, body string }
	var stalls []stall
	for _, line := range strings.Split(readEnvFile(t, env, InfoLogFileName("/db")), "\n") {
		if ts, body, ok := strings.Cut(line, " [stall] "); ok {
			stalls = append(stalls, stall{ts, body})
		}
	}
	delayed := 0
	for i, s := range stalls {
		if strings.Contains(s.body, "-> delayed") {
			delayed++
		}
		if i == 0 {
			continue
		}
		if p := stalls[i-1]; p.ts == s.ts && strings.HasPrefix(p.body, "delayed -> normal") && strings.HasPrefix(s.body, "normal -> delayed") {
			t.Fatalf("stall flip at %s: %q then %q (%d stall lines)", s.ts, p.body, s.body, len(stalls))
		}
	}
	if delayed == 0 {
		t.Fatalf("no transition to delayed in %d stall lines", len(stalls))
	}
}

func TestInfoLogWritten(t *testing.T) {
	db, env := openTestDB(t, nil)
	wo := DefaultWriteOptions()
	for i := 0; i < 2000; i++ {
		db.Put(wo, []byte(fmt.Sprintf("k%05d", i)), make([]byte, 128))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.WaitForBackgroundIdle()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	name := InfoLogFileName("/db")
	if !env.FileExists(name) {
		t.Fatal("LOG file not created")
	}
	content := readEnvFile(t, env, name)
	for _, want := range []string{
		"[db] open /db",
		"[flush] memtables=",
		"[db] close /db",
		"** Compaction Stats [default] **",
		"rocksdb.db.write.micros",
	} {
		if !strings.Contains(content, want) {
			t.Errorf("LOG missing %q:\n%s", want, content)
		}
	}
}

func TestInfoLogSurvivesObsoleteFileDeletion(t *testing.T) {
	// The LOG must never be garbage-collected with obsolete SSTs/WALs.
	db, env := openTestDB(t, nil)
	defer db.Close()
	wo := DefaultWriteOptions()
	for i := 0; i < 5000; i++ {
		db.Put(wo, []byte(fmt.Sprintf("k%05d", i)), make([]byte, 128))
	}
	db.Flush()
	db.WaitForBackgroundIdle()
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	if !env.FileExists(InfoLogFileName("/db")) {
		t.Fatal("LOG deleted by obsolete-file collection")
	}
}

func TestDisableInfoLog(t *testing.T) {
	db, env := openTestDB(t, func(o *Options) { o.DisableInfoLog = true })
	defer db.Close()
	if env.FileExists(InfoLogFileName("/db")) {
		t.Fatal("LOG created despite DisableInfoLog")
	}
}

func TestStallConditionString(t *testing.T) {
	cases := map[StallCondition]string{
		StallNormal:        "normal",
		StallDelayed:       "delayed",
		StallStopped:       "stopped",
		StallCondition(99): "StallCondition(99)",
	}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
}

// infoLogScript runs a fixed SimEnv script — a write load that flushes,
// compacts automatically and crosses the slowdown trigger, a live
// SetOptions, more writes, Flush, a full CompactRange and Close — and
// returns the LOG it leaves behind.
func infoLogScript(t *testing.T) string {
	env := NewSimEnv(device.NVMe(), device.Profile4C8G(), 42)
	opts := DefaultOptions()
	opts.Env = env
	opts.WriteBufferSize = 64 << 10
	opts.TargetFileSizeBase = 64 << 10
	opts.MaxBytesForLevelBase = 256 << 10
	opts.BlockSize = 1024
	opts.BloomBitsPerKey = 10
	opts.Level0FileNumCompactionTrigger = 2
	opts.Level0SlowdownWritesTrigger = 2
	opts.Level0StopWritesTrigger = 4
	opts.MaxBackgroundJobs = 1
	db, err := Open("/db", opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	wo := DefaultWriteOptions()
	put := func(n int) {
		for i := 0; i < n; i++ {
			val := make([]byte, 100+rng.Intn(400))
			if err := db.Put(wo, []byte(fmt.Sprintf("key%05d", rng.Intn(20000))), val); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(3000)
	if err := db.SetOptions(nil, map[string]string{"write_buffer_size": "131072", "max_write_buffer_number": "3"}); err != nil {
		t.Fatal(err)
	}
	put(1500)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return readEnvFile(t, env, InfoLogFileName("/db"))
}

// TestInfoLogGolden pins the LOG a fixed SimEnv script writes: every event
// line (open banner, flush, auto and manual compaction, stall transitions,
// set_options, close banner) and the close statistics dump. The timestamps
// and durations are virtual time, so the bytes are deterministic. Regenerate
// only when the LOG format or the simulated time of the script is meant to
// change.
func TestInfoLogGolden(t *testing.T) {
	const want = "1ac5a43f579c531d5b712245e31c3eafe531690e71099e1c8deb21a07ed91cd6"
	got := infoLogScript(t)
	if again := infoLogScript(t); again != got {
		t.Fatal("the script is not deterministic: two runs wrote different LOGs")
	}
	for _, line := range []string{
		"[db] open /db", "[flush] memtables=", "[compaction] auto ", "[compaction] manual ",
		"[stall] normal -> ", "[set_options] cf \"default\": write_buffer_size 65536 -> 131072",
		"[db] close /db", "** Compaction Stats [default] **", "rocksdb.db.write.micros",
	} {
		if !strings.Contains(got, line) {
			t.Errorf("LOG lacks %q", line)
		}
	}
	sum := sha256.Sum256([]byte(got))
	if h := hex.EncodeToString(sum[:]); h != want {
		t.Errorf("LOG hash %s, want %s", h, want)
	}
}
