package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"
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

// TestAllocGateAppendGetFrozenMemtable gates the same lookup while the
// family has a frozen memtable waiting to flush: the read state copies the
// memtable chain into an array on the caller's stack, so the lookup still
// allocates nothing (0.00 measured). One allocation per lookup means the
// chain is copied into a fresh slice again.
func TestAllocGateAppendGetFrozenMemtable(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs a flushed table")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops pooled lookup keys and iterators under -race")
	}
	db, keys := openAllocBenchDB(t, 1024, func(o *Options) {
		o.MaxWriteBufferNumber = 4
		o.MinWriteBufferNumberToMerge = 2 // one frozen memtable stays put
	})
	defer db.Close()
	if err := db.Put(nil, []byte("zzz-frozen"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	err := db.switchMemtableLocked(db.defaultCF)
	frozen := len(db.defaultCF.imm)
	db.mu.Unlock()
	if err != nil || frozen != 1 {
		t.Fatalf("switchMemtableLocked = %v with %d frozen memtables, want 1", err, frozen)
	}
	var dst []byte
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		var err error
		if dst, err = db.AppendGetCF(dst[:0], nil, nil, keys[i%len(keys)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	db.mu.Lock()
	frozen = len(db.defaultCF.imm)
	db.mu.Unlock()
	if frozen != 1 {
		t.Fatalf("%d frozen memtables after the lookups, want 1", frozen)
	}
	if avg > 0 {
		t.Fatalf("cache-hit AppendGetCF beside a frozen memtable allocates %.2f/op, gate is 0", avg)
	}
}

// TestAllocGateWrite gates the commit path for a single writer reusing a
// one-Put batch, on both runtimes. Steady state measures 0 allocs/op on
// both: the WAL frames the record in its own buffer (TestAllocGateWALAppend),
// the memtable entry, its skiplist node and tower come from
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
			const limit = 1
			if avg > limit {
				t.Fatalf("single-writer Write allocates %.1f/op, gate is %d", avg, limit)
			}
		})
	}
}

// TestAllocGatePut gates DB.Put for a single writer on both runtimes: it
// commits through a pooled one-entry batch, so it allocates nothing (0
// measured), like Write with a reused batch (TestAllocGateWrite). 5 per Put
// means a fresh WriteBatch again: the struct, its payload growing and its
// family list.
func TestAllocGatePut(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled batches and requests under -race")
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
			wo := DefaultWriteOptions()
			key, value := []byte("key-0001"), []byte("value-0123456789")
			avg := testing.AllocsPerRun(500, func() {
				if err := db.Put(wo, key, value); err != nil {
					t.Fatal(err)
				}
			})
			if avg > 0 {
				t.Fatalf("single-writer Put allocates %.1f/op, gate is 0", avg)
			}
		})
	}
}

// TestAllocGateWALAppend gates WAL framing: a single-batch group and a
// larger one are framed into the file writer's buffer and appended from it,
// so neither allocates. 1 per append means the header escapes through the
// write again, or a group makes a buffer.
func TestAllocGateWALAppend(t *testing.T) {
	w := newWALWriter(discardFile{}, DefaultOptions(), nil, nil)
	payload := make([]byte, 200)
	for _, n := range []int{1, 4} {
		payloads := make([][]byte, n)
		for i := range payloads {
			payloads[i] = payload
		}
		if avg := testing.AllocsPerRun(500, func() {
			if err := w.addRecords(payloads, 0, false); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("WAL append of a %d-batch group allocates %.2f/op, want 0", n, avg)
		}
	}
}

// TestAllocGateSimFileAppend gates SimEnv file storage: a 4 MiB file
// appended in 4 KiB pieces allocates its own size plus at most one chunk
// (the chunk list itself is a few KiB), and reading it back allocates
// nothing. A file grown as one doubling slice allocates ~8 MiB here.
func TestAllocGateSimFileAppend(t *testing.T) {
	const size, piece = 4 << 20, 4 << 10
	env := testSimEnv()
	w, err := env.NewWritableFile("/f", IOBackground)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, piece)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for n := 0; n < size; n += piece {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("appending a %d-byte file allocated %d bytes", size, got)
	if got > size+simFileChunk {
		t.Errorf("appending a %d-byte file allocated %d bytes, want at most %d", size, got, size+simFileChunk)
	}
	r, err := env.NewRandomAccessFile("/f", IOBackground)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if avg := testing.AllocsPerRun(10, func() {
		if err := r.ReadAt(buf, 0, HintSequential); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("reading the file back allocates %.2f/op, want 0", avg)
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

// TestAllocGateMemtableRecycle gates memtable arena recycling on both
// runtimes over fill-and-flush cycles of ~1 MiB of 400-byte values: a
// memtable filled after a flush carves from the flushed memtable's arena, so
// after the first cycle a fill allocates at most one chunk, one node slab and
// one tower slab (110 592 bytes; 0 measured on OSEnv). Without recycling
// each fill allocates its ~1.1 MiB of chunks and slabs again. The WAL is
// off so that SimEnv's file chunks do not count.
func TestAllocGateMemtableRecycle(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled batches and requests under -race")
	}
	const cycles, entries = 6, 2500
	bound := uint64(arenaChunkSize) + arenaNodeSlab*uint64(unsafe.Sizeof(skipNode{})) +
		arenaTowerSlab*uint64(unsafe.Sizeof(atomic.Pointer[skipNode]{}))
	for _, mode := range []string{"sim", "os"} {
		t.Run(mode, func(t *testing.T) {
			opts := DefaultOptions()
			opts.WriteBufferSize = 4 << 20 // only Flush switches memtables
			opts.DisableAutoCompactions = true
			dir := t.TempDir()
			if mode == "sim" {
				opts.Env, dir = testSimEnv(), "/db"
			}
			db, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			wo := &WriteOptions{DisableWAL: true}
			key, value := make([]byte, 16), bytes.Repeat([]byte{'v'}, 400)
			var before, after runtime.MemStats
			for c := 0; c < cycles; c++ {
				runtime.ReadMemStats(&before)
				for i := 0; i < entries; i++ {
					binary.BigEndian.PutUint64(key[8:], uint64(i*7919%entries))
					if err := db.Put(wo, key, value); err != nil {
						t.Fatal(err)
					}
				}
				runtime.ReadMemStats(&after)
				delta := after.TotalAlloc - before.TotalAlloc
				t.Logf("cycle %d: fill allocated %d bytes", c, delta)
				if c > 0 && delta > bound {
					t.Errorf("cycle %d: fill allocated %d bytes, gate is %d (one chunk and one slab of each kind)", c, delta, bound)
				}
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
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

// TestAllocGateIterator gates a whole scan through the pooled iterator tree:
// NewIteratorCF, Seek, 20 Nexts and Close over a DB holding a memtable, an
// immutable memtable whose flush is paused, two L0 tables and an L1, with
// every block cached. The tree is recycled across scans, so a steady-state
// scan allocates 1, the Iterator handle; building the tree per scan costs
// about 15 more.
func TestAllocGateIterator(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs flushed tables")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops pooled iterator trees under -race")
	}
	db, env := openTableFileDB(t, func(o *Options) { o.WriteBufferSize = 64 << 10 })
	defer db.Close()
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, 500)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%04d", i))
	}
	key := func(i int) []byte { return keys[i%len(keys)] }
	val := bytes.Repeat([]byte{'v'}, 200)
	for run := 0; run < 2; run++ {
		for i := run; i < 500; i += 4 {
			if err := db.Put(nil, key(i), val); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Fill the memtable until it is frozen: its flush pauses on the table's
	// first Append, so the frozen memtable stays while the gate measures.
	env.mu.Lock()
	env.armed = true
	env.mu.Unlock()
	defer close(env.release)
	for i, frozen := 0, 0; frozen < 50; i++ {
		if err := db.Put(nil, key(i*7), val); err != nil {
			t.Fatal(err)
		}
		if n, _ := db.GetProperty("rocksdb.num-immutable-mem-table"); n != "0" {
			frozen++
		}
	}
	<-env.paused
	scan := func(start int) {
		it := db.NewIteratorCF(nil, nil)
		n := 0
		for it.Seek(key(start)); it.Valid() && n < 20; it.Next() {
			n++
		}
		if err := it.Close(); err != nil || n != 20 {
			t.Fatalf("scan from %s read %d keys, err %v", key(start), n, err)
		}
	}
	it := db.NewIteratorCF(nil, nil)
	for it.SeekToFirst(); it.Valid(); it.Next() {
	}
	if len(it.a.mems) != 2 || len(it.a.levels) < 3 {
		t.Fatalf("tree holds %d memtables and %d levels, want 2 and at least 3 (two L0 tables, L1)", len(it.a.mems), len(it.a.levels))
	}
	it.Close()
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		scan(i * 37 % 450)
		i++
	})
	t.Logf("%.2f allocations per scan", avg)
	const limit = 1
	if avg > limit {
		t.Fatalf("Seek + 20 Next scan allocates %.2f, gate is %d", avg, limit)
	}
}

// TestAllocGateBlockCacheInsert gates a block-cache insert into a full
// cache: each insert evicts one block, whose handle (list entry and buffer)
// becomes a spare that the next insert takes, so a steady-state insert
// allocates nothing. 1 per insert means the cache allocates a handle or an
// entry again, 2 that it keeps no spare.
func TestAllocGateBlockCacheInsert(t *testing.T) {
	const blocks = 64
	c := newBlockCache(blocks * (4096 + 64))
	off := uint64(0)
	insert := func() {
		cacheTestInsert(c, 1, off, 4096)
		off += 4096
	}
	for i := 0; i < 4*blocks; i++ {
		insert()
	}
	if avg := testing.AllocsPerRun(1000, insert); avg != 0 {
		t.Fatalf("steady-state blockCache.Insert allocates %.2f/op, want 0", avg)
	}
}

// cacheTestInsert caches an n-byte block the way a miss does: into a spare
// of its shard when one fits, else into new storage, then releases the
// caller's reference.
func cacheTestInsert(c *blockCache, id, off uint64, n int) {
	d := blockDst{spares: c.shard(id, off)}
	b := d.sized(n)
	c.Insert(id, off, d.h, b).release()
}

// TestAllocGateBlockCacheRefill gates the refill after a table deletion:
// EraseID turns a table's blocks into spares (list entries, chain links and
// buffers), and caching as many blocks of another table takes them back, so
// the refill allocates nothing. About 1 per insert means erased blocks'
// entries or buffers are not taken back; 1 per table, a per-table index.
func TestAllocGateBlockCacheRefill(t *testing.T) {
	const blocks = 256
	c := newBlockCache(4 * blocks * (4096 + 64))
	id := uint64(1)
	// Offsets step by a block and its trailer, as in a table; 4096-aligned
	// offsets would put a whole table in one shard.
	const stride = 4096 + blockTrailerSize
	fill := func(id uint64) {
		for off := uint64(0); off < blocks*stride; off += stride {
			cacheTestInsert(c, id, off, 4096)
		}
	}
	for ; id <= 4; id++ {
		fill(id)
	}
	// Each round erases the oldest table and caches a new one in its room.
	avg := testing.AllocsPerRun(20, func() {
		c.EraseID(id - 4)
		fill(id)
		id++
	})
	if perInsert := avg / blocks; perInsert != 0 {
		t.Fatalf("refilling an erased table allocates %.3f per insert (%.1f per table), want 0", perInsert, avg)
	}
}

// TestAllocGateBlockCacheMiss gates a Get that misses into a full cache:
// the block is read and decoded into a spare the cache recycled from a
// block it evicted, so neither the cache nor the codec allocates. Get's one
// allocation is the value it returns.
func TestAllocGateBlockCacheMiss(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs a flushed table")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops pooled buffers under -race")
	}
	db, keys := openAllocBenchDB(t, 8192, func(o *Options) {
		o.BlockCacheSize = 64 << 10 // a few blocks per shard: most Gets miss
		o.Compression = SnappyCompression
	})
	defer db.Close()
	missesBefore := db.stats.Get(TickerBlockCacheMiss)
	i := 0
	avg := testing.AllocsPerRun(500, func() {
		if _, err := db.Get(nil, keys[i*7919%len(keys)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if misses := db.stats.Get(TickerBlockCacheMiss) - missesBefore; misses < int64(i)/2 {
		t.Fatalf("only %d of %d Gets missed the cache", misses, i)
	}
	const limit = 1
	if avg > limit {
		t.Fatalf("Get missing into a full cache allocates %.2f/op, gate is %d (the returned value)", avg, limit)
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
func (discardFile) SyncAsync() error    { return nil }
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
	b := &tableBuilder{w: newFileWriter(w, nil, nil, 0, false), opts: DefaultOptions()}
	h, err := b.writeBlock(raw, comp)
	if err == nil {
		err = b.w.flush()
	}
	if err != nil {
		tb.Fatal(err)
	}
	if err := b.w.close(); err != nil {
		tb.Fatal(err)
	}
	f, err := openFileReader(env, "/block.sst", IOBackground, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { f.close() })
	return &tableReader{f: f, env: env}, h
}

// TestAllocGateBlockCodec gates the snappy block paths: compressing a block
// into the pooled staging buffer allocates nothing, a compaction-style read
// into caller scratch allocates nothing, and a private read (no scratch:
// openTable's index and filter) allocates once, the block itself.
func TestAllocGateBlockCodec(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled buffers under -race")
	}
	raw := valueShapedBlock()
	tb := &tableBuilder{w: newFileWriter(discardFile{}, nil, nil, 0, false), opts: DefaultOptions()}
	defer tb.w.close()
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
	}{{"scratch", scratch, 0}, {"private", nil, 1}} {
		avg := testing.AllocsPerRun(200, func() {
			out, err := r.readBlockRaw(h, HintSequential, &blockDst{scratch: tc.scratch})
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
			tb := &tableBuilder{w: newFileWriter(discardFile{}, nil, nil, 0, false), opts: DefaultOptions()}
			defer tb.w.close()
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
				out, err := r.readBlockRaw(h, HintSequential, &blockDst{scratch: scratch})
				if err != nil {
					b.Fatal(err)
				}
				scratch = out
			}
		})
	}
}
