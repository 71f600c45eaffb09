package lsm

import (
	"fmt"
	"testing"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// openAllocBenchDB builds an OS-env DB whose working set lives entirely in
// flushed SSTables (memtable empty), so Get exercises the SST read path and —
// once the block cache is warm — the cache-hit path specifically.
func openAllocBenchDB(tb testing.TB, numKeys int, tweak func(*Options)) (*DB, [][]byte) {
	tb.Helper()
	opts := DefaultOptions()
	opts.BloomBitsPerKey = 10
	opts.DisableAutoCompactions = true
	opts.WriteBufferSize = 64 << 20
	if tweak != nil {
		tweak(opts)
	}
	db, err := Open(tb.TempDir(), opts)
	if err != nil {
		tb.Fatal(err)
	}
	keys := make([][]byte, numKeys)
	wo := DefaultWriteOptions()
	batch := NewWriteBatch()
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%08d", i))
		batch.Put(keys[i], []byte(fmt.Sprintf("value-%08d", i)))
		if batch.Count() >= 512 || i == numKeys-1 {
			if err := db.Write(wo, batch); err != nil {
				db.Close()
				tb.Fatal(err)
			}
			batch.Clear()
		}
	}
	if err := db.Flush(); err != nil {
		db.Close()
		tb.Fatal(err)
	}
	// Warm the block cache so the measured phase is pure cache-hit.
	for _, k := range keys {
		if _, err := db.Get(nil, k); err != nil {
			db.Close()
			tb.Fatal(err)
		}
	}
	return db, keys
}

// TestAllocGateGetCacheHit is the allocation regression gate for the
// cache-hit point-read path. Steady state measures 1 alloc/op, the returned
// value copy (the lookup key is pooled and shared by the memtable and table
// probes); the bound leaves headroom for noise, not for regressions — the
// lookup key falling out of the pool adds 2, pooled codecs or iterators
// falling out of reuse 5+.
func TestAllocGateGetCacheHit(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs a flushed table")
	}
	db, keys := openAllocBenchDB(t, 1024, nil)
	defer db.Close()
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		if _, err := db.Get(nil, keys[i%len(keys)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	const limit = 2
	if avg > limit {
		t.Fatalf("cache-hit Get allocates %.1f/op, gate is %d", avg, limit)
	}
}

// TestAllocGateWrite gates the commit path for a single writer reusing a
// one-Put batch, on both runtimes. Steady state measures 4 allocs/op on the
// OS and 5 in simulation, none of them the write group's: the memtable entry,
// its skiplist node, the WAL append, and in simulation the level capacities
// of the compaction pick simRuntime.poll runs per op. The write group itself
// — request, wake channel, member list, family set, WAL payload list — is
// pooled: falling out of the pool adds 5.
func TestAllocGateWrite(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled requests under -race")
	}
	for _, mode := range []string{"sim", "os"} {
		t.Run(mode, func(t *testing.T) {
			opts := DefaultOptions()
			opts.WriteBufferSize = 256 << 20 // no memtable switch while measuring
			dir := t.TempDir()
			if mode == "sim" {
				opts.Env, dir = testSimEnv(), "/db"
			}
			db, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			b := NewWriteBatch()
			wo := DefaultWriteOptions()
			avg := testing.AllocsPerRun(500, func() {
				b.Clear()
				b.Put([]byte("key-0001"), []byte("value-0123456789"))
				if err := db.Write(wo, b); err != nil {
					t.Fatal(err)
				}
			})
			const limit = 5
			if avg > limit {
				t.Fatalf("single-writer Write allocates %.1f/op, gate is %d", avg, limit)
			}
		})
	}
}

// TestAllocGateBlockIter gates steady-state block iteration: a reused
// blockIter re-pointed via init must not allocate once its key buffer has
// grown to the block's longest key.
func TestAllocGateBlockIter(t *testing.T) {
	bb := newBlockBuilder(16)
	for i := 0; i < 256; i++ {
		bb.add([]byte(fmt.Sprintf("key%06d", i)), []byte("value-payload-0123456789"))
	}
	data := bb.finish()
	var it blockIter
	// Warm-up pass grows the key buffer.
	if err := it.init(data); err != nil {
		t.Fatal(err)
	}
	for it.SeekToFirst(); it.Valid(); it.Next() {
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := it.init(data); err != nil {
			t.Fatal(err)
		}
		n := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			n++
		}
		if n != 256 {
			t.Fatalf("iterated %d entries", n)
		}
	})
	if avg != 0 {
		t.Fatalf("reused blockIter allocates %.1f per full-block scan, want 0", avg)
	}
}

// BenchmarkGetSSTCacheHit measures the steady-state point-read path against
// flushed tables with a warm block cache — the path the allocation gate
// guards.
func BenchmarkGetSSTCacheHit(b *testing.B) {
	db, keys := openAllocBenchDB(b, 4096, nil)
	defer db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get(nil, keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockIterFull measures a full iteration over one decoded data
// block (the inner loop of scans, compactions, and verify).
func BenchmarkBlockIterFull(b *testing.B) {
	bb := newBlockBuilder(16)
	for i := 0; i < 256; i++ {
		bb.add([]byte(fmt.Sprintf("key%06d", i)), []byte("value-payload-0123456789"))
	}
	data := bb.finish()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := newBlockIter(data)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			n++
		}
		if n != 256 {
			b.Fatalf("iterated %d entries", n)
		}
	}
}

// BenchmarkWriteBlockCompressed measures the block-compression path of the
// table builder (flush and compaction CPU): one block compressed per op.
func BenchmarkWriteBlockCompressed(b *testing.B) {
	env := testSimEnv()
	bb := newBlockBuilder(16)
	for i := 0; i < 128; i++ {
		bb.add([]byte(fmt.Sprintf("key%06d", i)), []byte("value-payload-value-payload-value-payload"))
	}
	raw := bb.finish()
	w, err := env.NewWritableFile("/bench.sst", IOBackground)
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Compression = ZstdCompression
	tb := newTableBuilder(w, opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.writeBlock(raw, opts.Compression); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadBlockCompressed measures the decompress-on-read path
// (compaction inputs, cache misses): one compressed block decoded per op.
func BenchmarkReadBlockCompressed(b *testing.B) {
	env := testSimEnv()
	bb := newBlockBuilder(16)
	for i := 0; i < 128; i++ {
		bb.add([]byte(fmt.Sprintf("key%06d", i)), []byte("value-payload-value-payload-value-payload"))
	}
	raw := bb.finish()
	w, err := env.NewWritableFile("/bench.sst", IOBackground)
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Compression = ZstdCompression
	tb := newTableBuilder(w, opts)
	h, err := tb.writeBlock(raw, opts.Compression)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	f, err := env.NewRandomAccessFile("/bench.sst", IOBackground)
	if err != nil {
		b.Fatal(err)
	}
	r := &tableReader{f: f, env: env}
	var scratch []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := r.readBlockRaw(h, HintSequential, scratch)
		if err != nil {
			b.Fatal(err)
		}
		scratch = out
	}
}
