package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
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
// cache-hit point-read path through Get. Steady state measures 1 alloc/op:
// the copy of the value Get returns, which the caller owns (the lookup key
// is pooled and shared by the memtable and table probes, and the value is
// appended straight out of the cached block). The bound leaves headroom for
// noise, not for regressions — the lookup key falling out of the pool adds
// 2, pooled codecs or iterators falling out of reuse 5+.
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

// TestAllocGateAppendGetCacheHit gates the same cache-hit lookup through
// AppendGetCF into a reused buffer: the value is appended to the caller's
// dst, so a warm lookup allocates nothing (0.00 measured). One allocation
// per lookup means the value is copied somewhere on the way again.
func TestAllocGateAppendGetCacheHit(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs a flushed table")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops pooled lookup keys and iterators under -race")
	}
	db, keys := openAllocBenchDB(t, 1024, nil)
	defer db.Close()
	var dst []byte
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		k := keys[i%len(keys)]
		var err error
		if dst, err = db.AppendGetCF(dst[:0], nil, nil, k); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(dst, []byte("value-")) || !bytes.Equal(dst[len("value-"):], k[len("key"):]) {
			t.Fatalf("AppendGetCF(%q) = %q", k, dst)
		}
		i++
	})
	const limit = 0.1
	if avg > limit {
		t.Fatalf("cache-hit AppendGetCF into a reused buffer allocates %.2f/op, gate is %.1f", avg, limit)
	}
}

// TestAllocGateWrite gates the commit path for a single writer reusing a
// one-Put batch, on both runtimes. Steady state measures 1 alloc/op on both,
// the WAL append: the memtable entry, its skiplist node and tower come from
// the memtable's arena (TestAllocGateMemtableAdd), and the compaction pick
// simRuntime.poll runs per simulated op keeps its level capacities on the
// stack. The write group itself — request, wake channel, member list, family
// set, WAL payload list — is pooled: falling out of the pool adds 5, and the
// arena falling back to per-entry allocation adds 3.
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
			const limit = 2
			if avg > limit {
				t.Fatalf("single-writer Write allocates %.1f/op, gate is %d", avg, limit)
			}
		})
	}
}

// TestAllocGateMemtableAdd gates the memtable insert: 10 000 adds of 400-byte
// values average one allocation per ~100 entries (a 64 KiB chunk holds ~150
// of them, a node slab 512, a tower slab ~770). Allocating the entry, its
// skiplist node or its tower per add would cost 1 to 3 per add.
func TestAllocGateMemtableAdd(t *testing.T) {
	const adds = 10000
	m := newMemtable(1, 0)
	key := make([]byte, 16)
	val := bytes.Repeat([]byte{'v'}, 400)
	seq := uint64(0)
	avg := testing.AllocsPerRun(1, func() {
		for i := 0; i < adds; i++ {
			seq++
			binary.BigEndian.PutUint64(key[8:], seq*7919%adds)
			m.add(seq, KindValue, key, val)
		}
	}) / adds
	t.Logf("%.4f allocations per add", avg)
	const limit = 0.05
	if avg > limit {
		t.Fatalf("memtable.add allocates %.3f per add, gate is %.2f", avg, limit)
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

// valueShapedBlock is one ~4 KiB data block of 16-byte keys and 400-byte
// values whose bodies are half random bytes, half zeros: the shape of the
// repository benchmark's values. A repeated string would flatter any codec.
func valueShapedBlock() []byte {
	rng := rand.New(rand.NewSource(1))
	bb := newBlockBuilder(16)
	val := make([]byte, 400)
	for i := 0; bb.estimatedSize() < 4096; i++ {
		rng.Read(val[:200])
		clear(val[200:])
		key := makeInternalKey(nil, []byte(fmt.Sprintf("k%015d", i*7919)), uint64(i+1), KindValue)
		bb.add(key, val)
	}
	return append([]byte(nil), bb.finish()...)
}

// discardFile is a WritableFile that keeps nothing, so a measurement of
// writeBlock sees the codec and not the file.
type discardFile struct{}

func (discardFile) Append([]byte) error { return nil }
func (discardFile) Sync() error         { return nil }
func (discardFile) Close() error        { return nil }

// compressedBlockReader writes raw as one block compressed with comp into a
// fresh simulated file and returns a reader over it and the block's handle.
func compressedBlockReader(tb testing.TB, raw []byte, comp Compression) (*tableReader, blockHandle) {
	tb.Helper()
	env := testSimEnv()
	w, err := env.NewWritableFile("/block.sst", IOBackground)
	if err != nil {
		tb.Fatal(err)
	}
	h, err := (&tableBuilder{w: w, opts: DefaultOptions()}).writeBlock(raw, comp)
	if err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	f, err := env.NewRandomAccessFile("/block.sst", IOBackground)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { f.Close() })
	return &tableReader{f: f, env: env}, h
}

// TestAllocGateBlockCodec gates the snappy block paths: compressing a block
// into the pooled staging buffer allocates nothing, a compaction-style read
// into caller scratch allocates nothing, and a cache-bound read (nil
// scratch) allocates once, the block itself.
func TestAllocGateBlockCodec(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled buffers under -race")
	}
	raw := valueShapedBlock()
	tb := &tableBuilder{w: discardFile{}, opts: DefaultOptions()}
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := tb.writeBlock(raw, SnappyCompression); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("snappy writeBlock allocates %.1f/op, want 0", avg)
	}
	r, h := compressedBlockReader(t, raw, SnappyCompression)
	scratch := make([]byte, 0, len(raw))
	for _, tc := range []struct {
		name    string
		scratch []byte
		want    float64
	}{{"scratch", scratch, 0}, {"cache-bound", nil, 1}} {
		avg := testing.AllocsPerRun(200, func() {
			out, err := r.readBlockRaw(h, HintSequential, tc.scratch)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != len(raw) {
				t.Fatalf("read %d bytes, want %d", len(out), len(raw))
			}
		})
		if avg != tc.want {
			t.Errorf("%s readBlockRaw of a snappy block allocates %.1f/op, want %v", tc.name, avg, tc.want)
		}
	}
}

// BenchmarkWriteBlockCompressed measures the block-compression path of the
// table builder (flush and compaction CPU): one value-shaped block
// compressed per op. B/block is the payload written.
func BenchmarkWriteBlockCompressed(b *testing.B) {
	raw := valueShapedBlock()
	for _, comp := range []Compression{SnappyCompression, ZstdCompression} {
		b.Run(comp.String(), func(b *testing.B) {
			tb := &tableBuilder{w: discardFile{}, opts: DefaultOptions()}
			h, err := tb.writeBlock(raw, comp)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tb.writeBlock(raw, comp); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(h.length), "B/block")
		})
	}
}

// BenchmarkReadBlockCompressed measures the decompress-on-read path of
// compaction inputs: one value-shaped block read and decoded into recycled
// scratch per op.
func BenchmarkReadBlockCompressed(b *testing.B) {
	raw := valueShapedBlock()
	for _, comp := range []Compression{SnappyCompression, ZstdCompression} {
		b.Run(comp.String(), func(b *testing.B) {
			r, h := compressedBlockReader(b, raw, comp)
			var scratch []byte
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := r.readBlockRaw(h, HintSequential, scratch)
				if err != nil {
					b.Fatal(err)
				}
				scratch = out
			}
		})
	}
}
