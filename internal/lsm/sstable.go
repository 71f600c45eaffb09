package lsm

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"
)

// SSTable layout:
//
//	[data block]*            each block: payload ctype(1) crc32(4)
//	[filter block]           bloom over user keys (uncompressed)
//	[index block]            lastInternalKey -> blockHandle
//	[footer]                 handles + entry count + magic, fixed size
//
// blockHandle = varint(offset) varint(payloadLen). ctype: 0 none, 1 DEFLATE,
// 2 snappy (codec.go).
const (
	tableMagic       = 0x6d696e69726f636b // "minirock"
	blockTrailerSize = 5
	footerSize       = 4*binary.MaxVarintLen64 + 8
)

// Compression identifies a block compression codec. There are two codecs
// behind RocksDB's four names, both written on the standard library:
// snappy and lz4 are one codec under two names, a from-scratch snappy
// (cheap: no entropy stage), and zstd and zlib are DEFLATE level 6 (denser,
// several times the CPU).
type Compression int

const (
	// NoCompression stores blocks raw.
	NoCompression Compression = iota
	// SnappyCompression encodes blocks with the snappy block format.
	SnappyCompression
	// LZ4Compression is the same snappy codec as SnappyCompression.
	LZ4Compression
	// ZstdCompression stands in for zstd (and zlib) with DEFLATE level 6.
	ZstdCompression
)

// ParseCompression maps RocksDB compression_type strings.
func ParseCompression(s string) (Compression, error) {
	switch s {
	case "none", "no", "kNoCompression", "disable", "false":
		return NoCompression, nil
	case "snappy", "kSnappyCompression":
		return SnappyCompression, nil
	case "lz4", "kLZ4Compression":
		return LZ4Compression, nil
	case "zstd", "kZSTD", "zlib", "kZlibCompression":
		return ZstdCompression, nil
	default:
		return NoCompression, fmt.Errorf("lsm: unknown compression_type %q", s)
	}
}

// String renders the RocksDB-style name.
func (c Compression) String() string {
	switch c {
	case NoCompression:
		return "none"
	case SnappyCompression:
		return "snappy"
	case LZ4Compression:
		return "lz4"
	case ZstdCompression:
		return "zstd"
	default:
		return fmt.Sprintf("Compression(%d)", int(c))
	}
}

// blockHandle locates a block payload within the file.
type blockHandle struct {
	offset, length uint64
}

func (h blockHandle) encode(dst []byte) []byte {
	var tmp [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], h.offset)
	n += binary.PutUvarint(tmp[n:], h.length)
	return append(dst, tmp[:n]...)
}

func decodeBlockHandle(src []byte) (blockHandle, int, error) {
	off, n1 := binary.Uvarint(src)
	if n1 <= 0 {
		return blockHandle{}, 0, fmt.Errorf("lsm: bad block handle offset")
	}
	length, n2 := binary.Uvarint(src[n1:])
	if n2 <= 0 {
		return blockHandle{}, 0, fmt.Errorf("lsm: bad block handle length")
	}
	return blockHandle{off, length}, n1 + n2, nil
}

// TableProps summarizes a built table.
type TableProps struct {
	NumEntries    int64
	NumDeletions  int64
	RawKeyBytes   int64
	RawValueBytes int64
	DataSize      int64
	FileSize      int64
	SmallestSeq   uint64
	LargestSeq    uint64
}

// tableBuilder lays out an SSTable's blocks and writes them through its
// fileWriter, which the owner creates, syncs and closes.
type tableBuilder struct {
	w           *fileWriter
	opts        *Options
	dataBlock   *blockBuilder
	indexBlock  *blockBuilder
	filter      bloomFilter // disabled (bitsPerKey 0) unless the options ask for one
	offset      uint64
	firstKey    internalKey
	lastKey     internalKey
	props       TableProps
	pendingIdx  bool   // an index entry awaits the next key (or finish)
	pendingKey  []byte // last key of the completed data block
	pendingHndl blockHandle
	hndlBuf     [2 * binary.MaxVarintLen64]byte // pendingHndl's encoding, so no block allocates it
	trailer     [blockTrailerSize]byte          // writeBlock's, here so it does not escape per block
	err         error
}

// newTableBuilder starts building a table with a family's options, writing
// through w.
func newTableBuilder(w *fileWriter, opts *Options) *tableBuilder {
	b := &tableBuilder{dataBlock: newBlockBuilder(0), indexBlock: newBlockBuilder(1)}
	b.reset(w, opts)
	return b
}

// reset starts the next table, written through w with a family's options,
// keeping the block, filter and key buffers the last table grew: the
// tables of one flush or compaction, and of the jobs after it (the DB's
// builders list), share builders.
func (b *tableBuilder) reset(w *fileWriter, opts *Options) {
	b.w, b.opts, b.offset, b.props, b.pendingIdx, b.err = w, opts, 0, TableProps{}, false, nil
	b.firstKey, b.lastKey, b.pendingKey = b.firstKey[:0], b.lastKey[:0], b.pendingKey[:0]
	b.dataBlock.reset()
	b.dataBlock.restartInterval = cmp.Or(max(opts.BlockRestartInterval, 0), 16) // as newBlockBuilder
	b.indexBlock.reset()
	b.filter.reset(opts.BloomBitsPerKey)
}

// add appends an entry; internal keys must arrive in strictly increasing
// internal-key order.
func (b *tableBuilder) add(ikey internalKey, value []byte) error {
	if b.err != nil {
		return b.err
	}
	if b.pendingIdx {
		// Index key: the completed block's last key (no shortening —
		// correctness over the last byte of space).
		b.indexBlock.add(b.pendingKey, b.pendingHndl.encode(b.hndlBuf[:0]))
		b.pendingIdx = false
	}
	if b.props.NumEntries == 0 {
		b.firstKey = append(b.firstKey[:0], ikey...)
	}
	b.lastKey = append(b.lastKey[:0], ikey...)
	if b.filter.bitsPerKey > 0 {
		b.filter.add(ikey.userKey())
	}
	b.dataBlock.add(ikey, value)
	b.props.NumEntries++
	if ikey.kind() == KindDelete {
		b.props.NumDeletions++
	}
	b.props.RawKeyBytes += int64(len(ikey))
	b.props.RawValueBytes += int64(len(value))
	seq := ikey.seq()
	if b.props.SmallestSeq == 0 || seq < b.props.SmallestSeq {
		b.props.SmallestSeq = seq
	}
	if seq > b.props.LargestSeq {
		b.props.LargestSeq = seq
	}
	if b.dataBlock.estimatedSize() >= b.opts.BlockSize {
		b.flushDataBlock()
	}
	return b.err
}

func (b *tableBuilder) flushDataBlock() {
	if b.dataBlock.empty() || b.err != nil {
		return
	}
	raw := b.dataBlock.finish()
	h, err := b.writeBlock(raw, b.opts.Compression)
	if err != nil {
		b.err = err
		return
	}
	b.props.DataSize += int64(h.length)
	b.pendingKey = append(b.pendingKey[:0], b.lastKey...)
	b.pendingHndl = h
	b.pendingIdx = true
	b.dataBlock.reset()
}

// writeBlock compresses (maybe), writes payload+trailer through the writer
// and returns its handle. The staging buffer comes from a pool and is
// released before returning (the writer copies the payload out of it, or
// Append does).
func (b *tableBuilder) writeBlock(raw []byte, comp Compression) (blockHandle, error) {
	buf := getBlockBuf()
	defer putBlockBuf(buf)
	payload, ctype, err := compressBlock(buf, raw, comp)
	if err != nil {
		return blockHandle{}, err
	}
	h := blockHandle{offset: b.offset, length: uint64(len(payload))}
	trailer := b.trailer[:]
	trailer[0] = ctype
	crc := crc32.ChecksumIEEE(payload)
	crc = crc32.Update(crc, crc32.IEEETable, trailer[:1])
	binary.LittleEndian.PutUint32(trailer[1:], crc)
	if err := b.w.write(payload); err != nil {
		return blockHandle{}, err
	}
	if err := b.w.write(trailer); err != nil {
		return blockHandle{}, err
	}
	b.offset += uint64(len(payload)) + blockTrailerSize
	return h, nil
}

// finish flushes remaining blocks, writes filter+index+footer, flushes the
// writer and returns the table properties. The file is not synced or
// closed.
func (b *tableBuilder) finish() (TableProps, error) {
	if b.err != nil {
		return b.props, b.err
	}
	b.flushDataBlock()
	if b.pendingIdx {
		b.indexBlock.add(b.pendingKey, b.pendingHndl.encode(b.hndlBuf[:0]))
		b.pendingIdx = false
	}
	var filterHandle blockHandle
	if data := b.filter.build(); data != nil {
		h, err := b.writeBlock(data, NoCompression)
		if err != nil {
			return b.props, err
		}
		filterHandle = h
	}
	indexHandle, err := b.writeBlock(b.indexBlock.finish(), NoCompression)
	if err != nil {
		return b.props, err
	}
	footer := make([]byte, 0, footerSize)
	footer = filterHandle.encode(footer)
	footer = indexHandle.encode(footer)
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], uint64(b.props.NumEntries))
	footer = append(footer, tmp[:]...)
	for len(footer) < footerSize-8 {
		footer = append(footer, 0)
	}
	binary.LittleEndian.PutUint64(tmp[:], tableMagic)
	footer = append(footer, tmp[:]...)
	if err := b.w.write(footer); err != nil {
		return b.props, err
	}
	if err := b.w.flush(); err != nil {
		return b.props, err
	}
	b.offset += uint64(len(footer))
	b.props.FileSize = int64(b.offset)
	return b.props, nil
}

// smallest and largest internal keys seen (valid after at least one add).
func (b *tableBuilder) smallest() internalKey { return b.firstKey }
func (b *tableBuilder) largest() internalKey  { return b.lastKey }

// estimatedSize reports bytes written so far plus the unflushed block.
func (b *tableBuilder) estimatedSize() int64 {
	return int64(b.offset) + int64(b.dataBlock.estimatedSize())
}

// tableReader serves point lookups and scans from one SSTable.
type tableReader struct {
	f        *fileReader
	env      Env
	cache    *blockCache
	cacheID  uint64
	fileNum  uint64
	indexIt  *blockIter // template; cloned per lookup via reparse
	indexRaw []byte
	filter   []byte
	entries  uint64
	stats    *Statistics
	perf     *PerfContext // per-op attribution (nil for background readers)
	// direct is set while the blocks read are stored raw. A table is written
	// with one codec, so the next block is most likely stored like the last:
	// a raw block is read straight into its destination, and only
	// compressed ones go through the pooled buffer they are decoded out of.
	direct atomic.Bool
	// refs counts the holders of a table-cache reader: the cache while the
	// table is cached, and each Get and iterator reading it. The last unref
	// closes it. Either way a reader goes back to the opener it came from:
	// the table cache unrefs it, and bgOpener (flush and compaction inputs,
	// subcompaction planning) closes it, as do the checks that open one.
	refs atomic.Int32
}

// openTable reads the footer, index and filter blocks of an SSTable through
// f, which the reader then owns: a failed open closes it. perf receives
// block-read/bloom attribution (nil for background jobs); f books the reads.
// The window of f's sequential reads stops at the last data block.
func openTable(env Env, f *fileReader, fileNum uint64, cache *blockCache, stats *Statistics, perf *PerfContext) (_ *tableReader, err error) {
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if f.size < footerSize {
		return nil, fmt.Errorf("%w: table %s too small (%d bytes)", ErrCorruption, f.name, f.size)
	}
	footer := make([]byte, footerSize)
	if err := f.readAt(footer, f.size-footerSize, HintRandom); err != nil {
		return nil, err
	}
	if got := binary.LittleEndian.Uint64(footer[footerSize-8:]); got != tableMagic {
		return nil, fmt.Errorf("%w: bad table magic %#x in %s", ErrCorruption, got, f.name)
	}
	filterHandle, n, err := decodeBlockHandle(footer)
	if err != nil {
		return nil, err
	}
	indexHandle, n2, err := decodeBlockHandle(footer[n:])
	if err != nil {
		return nil, err
	}
	// The filter, when there is one, is written right after the last data
	// block, and the index after it.
	f.limit = int64(indexHandle.offset)
	if filterHandle.length > 0 {
		f.limit = min(f.limit, int64(filterHandle.offset))
	}
	t := &tableReader{
		f:       f,
		env:     env,
		cache:   cache,
		fileNum: fileNum,
		entries: binary.LittleEndian.Uint64(footer[n+n2:]),
		stats:   stats,
		perf:    perf,
	}
	if cache != nil {
		t.cacheID = cache.NewID()
	}
	// No scratch: index and filter are retained for the table's lifetime.
	if t.indexRaw, err = t.readBlockRaw(indexHandle, HintRandom, &blockDst{}); err != nil {
		return nil, err
	}
	if filterHandle.length > 0 {
		if t.filter, err = t.readBlockRaw(filterHandle, HintRandom, &blockDst{}); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// readBlockRaw reads and verifies one block payload, decompressing if
// needed, into storage from dst.
//
// A caller that keeps the result for the table's lifetime (openTable's
// index and filter) passes an empty dst, so the block gets private storage:
// its one allocation. An iterator-style caller passes its scratch buffer
// and recycles it across blocks with no allocation. A cache miss passes the
// block's shard, so the block lands in a buffer the cache recycled. A
// compressed block is read into a pooled buffer and decoded out of it, so
// its payload never aliases the destination (see t.direct).
//
// A HintSequential read comes out of the file reader's window: a raw block
// is returned in place, aliasing it until the next one (dst.window is set).
func (t *tableReader) readBlockRaw(h blockHandle, hint AccessHint, dst *blockDst) ([]byte, error) {
	need := int(h.length) + blockTrailerSize
	seq := hint == HintSequential
	direct := !seq && t.direct.Load()
	var start time.Time
	timed := t.perf.TimeEnabled()
	if timed {
		start = time.Now()
	}
	var buf []byte
	var err error
	switch {
	case seq:
		buf, err = t.f.sequential(int64(h.offset), int64(need))
	case direct:
		buf = dst.sized(need)
		err = t.f.readAt(buf, int64(h.offset), hint)
	default:
		rb := getBlockBuf()
		defer putBlockBuf(rb)
		rb.Grow(need)
		buf = rb.AvailableBuffer()[:need]
		err = t.f.readAt(buf, int64(h.offset), hint)
	}
	if err != nil {
		return nil, err
	}
	t.perf.Add(PerfBlockReadCount, 1)
	t.perf.Add(PerfBlockReadByte, int64(len(buf)))
	if timed {
		t.perf.AddTime(PerfBlockReadTime, time.Since(start))
	}
	payload := buf[:h.length]
	ctype := buf[h.length]
	wantCRC := binary.LittleEndian.Uint32(buf[h.length+1:])
	crc := crc32.ChecksumIEEE(payload)
	crc = crc32.Update(crc, crc32.IEEETable, buf[h.length:h.length+1])
	if crc != wantCRC {
		return nil, fmt.Errorf("%w: block checksum mismatch at offset %d (file %d)", ErrCorruption, h.offset, t.fileNum)
	}
	if raw := ctype == blockRaw; !seq && raw != direct {
		t.direct.Store(raw)
	}
	if ctype == blockRaw && (seq || direct) {
		dst.window = seq
		return payload, nil
	}
	if direct {
		// Mispredicted: the payload sits where the block would go, so the
		// block decodes into new storage.
		dst = &blockDst{}
	}
	out, err := decodeBlock(dst, payload, ctype)
	if err != nil {
		return nil, fmt.Errorf("lsm: decompress block at %d: %w", h.offset, err)
	}
	if t.env != nil {
		t.env.ChargeCPU(simPrices.decode(ctype, len(out)))
	}
	return out, nil
}

// readBlock returns a decoded block and, when the reader has a block cache,
// the cache handle that lends it: the caller must treat the block as
// immutable and release the handle once done reading it (the block may be
// another's after that). A miss decodes into a spare buffer the cache
// recycled from a block that left it, then caches the block. Without a
// cache the handle is nil and the block is private to the caller: it lands
// in *scratch, kept for the next load, or aliases the reader's window.
func (t *tableReader) readBlock(h blockHandle, hint AccessHint, scratch *[]byte) ([]byte, *cacheHandle, error) {
	if t.cache == nil {
		dst := blockDst{scratch: *scratch}
		b, err := t.readBlockRaw(h, hint, &dst)
		if err == nil && !dst.window {
			*scratch = b
		}
		return b, nil, err
	}
	if ch := t.cache.Lookup(t.cacheID, h.offset); ch != nil {
		if t.stats != nil {
			t.stats.Add(TickerBlockCacheHit, 1)
		}
		t.perf.Add(PerfBlockCacheHitCount, 1)
		if t.env != nil {
			t.env.ChargeCPU(simPrices.blockCacheHit.d)
		}
		return ch.b, ch, nil
	}
	if t.stats != nil {
		t.stats.Add(TickerBlockCacheMiss, 1)
	}
	dst := blockDst{spares: t.cache.shard(t.cacheID, h.offset)}
	b, err := t.readBlockRaw(h, hint, &dst)
	if err != nil {
		dst.spares.putSpare(dst.h)
		return nil, nil, err
	}
	return b, t.cache.Insert(t.cacheID, h.offset, dst.h, b), nil
}

// mayContain runs the table's bloom filter for a user key.
func (t *tableReader) mayContain(userKey []byte) bool {
	if t.filter == nil {
		return true
	}
	if t.env != nil {
		t.env.ChargeCPU(simPrices.bloomProbe.d)
	}
	ok := bloomMayContain(t.filter, userKey)
	if t.stats != nil {
		if ok {
			t.stats.Add(TickerBloomChecked, 1)
		} else {
			t.stats.Add(TickerBloomUseful, 1)
		}
	}
	if ok {
		t.perf.Add(PerfBloomSSTHitCount, 1)
	} else {
		t.perf.Add(PerfBloomSSTMissCount, 1)
	}
	return ok
}

// icmp adapts compareInternal to the blockIter comparator signature.
func icmp(a, b []byte) int { return compareInternal(internalKey(a), internalKey(b)) }

// getScratch carries the reusable per-lookup state of tableReader.get: the
// index and data block iterators (whose key buffers amortize across
// lookups) and, for cache-less readers, a private data-block buffer. It is
// pooled because point lookups are the hottest read path.
type getScratch struct {
	idx  blockIter
	data blockIter
	buf  []byte // private block buffer, used only when t.cache == nil
}

var getScratchPool = sync.Pool{
	New: func() any { return new(getScratch) },
}

// get finds the newest entry for ikey's user key at or before ikey's
// sequence. Returns found, deleted, and dst with a live value appended to
// it (dst unchanged otherwise): the value is copied out of the block, so
// nothing handed out aliases pooled or cached storage.
func (t *tableReader) get(dst []byte, ikey internalKey) (_ []byte, found, deleted bool, err error) {
	if !t.mayContain(ikey.userKey()) {
		return dst, false, false, nil
	}
	scr := getScratchPool.Get().(*getScratch)
	defer getScratchPool.Put(scr)
	idx := &scr.idx
	if err := idx.init(t.indexRaw); err != nil {
		return dst, false, false, err
	}
	idx.Seek(ikey, icmp)
	if !idx.Valid() {
		return dst, false, false, idx.Err()
	}
	h, _, err := decodeBlockHandle(idx.Value())
	if err != nil {
		return dst, false, false, err
	}
	data, ch, err := t.readBlock(h, HintRandom, &scr.buf)
	if err != nil {
		return dst, false, false, err
	}
	// The value is copied out before the block's handle goes back.
	defer ch.release()
	it := &scr.data
	if err := it.init(data); err != nil {
		return dst, false, false, err
	}
	if t.env != nil {
		t.env.ChargeCPU(simPrices.blockSeek.d)
	}
	it.Seek(ikey, icmp)
	if !it.Valid() {
		return dst, false, false, it.Err()
	}
	got := internalKey(it.Key())
	if !bytes.Equal(got.userKey(), ikey.userKey()) {
		return dst, false, false, nil
	}
	if got.kind() == KindDelete {
		return dst, true, true, nil
	}
	return append(dst, it.Value()...), true, false, nil
}

// unref drops one reference to a table-cache reader, closing it with the
// last.
func (t *tableReader) unref() {
	if t.refs.Add(-1) == 0 {
		t.close()
	}
}

// close releases the file and evicts the table's cached blocks.
func (t *tableReader) close() error {
	if t.cache != nil {
		t.cache.EraseID(t.cacheID)
	}
	return t.f.close()
}

// tableIter iterates a whole table in internal-key order. The index and
// data block iterators live inside the struct and are re-initialized in
// place per block, and cache-less readers (compaction, verify) decode
// compressed blocks into one private buffer recycled across loads, while a
// raw block read sequentially stays in the file reader's window —
// steady-state iteration allocates nothing. init re-points a tableIter at another table keeping
// those buffers, which is how a level iterator walks its files. With a
// block cache, the iterator holds the handle of the block it is on and
// releases it when it loads the next block, is re-pointed or released.
type tableIter struct {
	t        *tableReader
	idx      *blockIter // points at idxState (nil only on init error)
	data     *blockIter // points at dataState when a block is loaded
	idxState blockIter
	dataSt   blockIter
	h        *cacheHandle // lends dataSt's block (nil without a cache)
	scratch  []byte       // private block buffer, used only when t.cache == nil; never the window
	err      error
	hint     AccessHint
}

// init points the iterator at table t, unpositioned, keeping its block
// iterators' key buffers and its private block buffer.
func (it *tableIter) init(t *tableReader, hint AccessHint) {
	it.h.release()
	it.t, it.hint, it.idx, it.data, it.h = t, hint, nil, nil, nil
	it.err = it.idxState.init(t.indexRaw)
	if it.err == nil {
		it.idx = &it.idxState
	}
}

// release drops every reference the iterator holds into its table and the
// table's blocks, keeping only its own buffers.
func (it *tableIter) release() {
	it.h.release()
	it.t, it.idx, it.data, it.h, it.err = nil, nil, nil, nil, nil
	it.idxState.release()
	it.dataSt.release()
}

// loadDataBlock opens the data block under the current index position.
func (it *tableIter) loadDataBlock() {
	it.h.release()
	it.data, it.h = nil, nil
	if it.err != nil || !it.idx.Valid() {
		return
	}
	h, _, err := decodeBlockHandle(it.idx.Value())
	if err != nil {
		it.err = err
		return
	}
	raw, ch, err := it.t.readBlock(h, it.hint, &it.scratch)
	if err != nil {
		it.err = err
		return
	}
	it.h = ch
	if err := it.dataSt.init(raw); err != nil {
		it.err = err
		return
	}
	it.data = &it.dataSt
}

// SeekToFirst positions at the table's first entry.
func (it *tableIter) SeekToFirst() {
	if it.err != nil {
		return
	}
	it.idx.SeekToFirst()
	it.loadDataBlock()
	if it.data != nil {
		it.data.SeekToFirst()
	}
	it.skipEmptyBlocks()
}

// Seek positions at the first entry >= ikey.
func (it *tableIter) Seek(ikey internalKey) {
	if it.err != nil {
		return
	}
	it.idx.Seek(ikey, icmp)
	it.loadDataBlock()
	if it.data != nil {
		it.data.Seek(ikey, icmp)
	}
	it.skipEmptyBlocks()
}

// Next advances one entry.
func (it *tableIter) Next() {
	if it.data == nil {
		return
	}
	it.data.Next()
	it.skipEmptyBlocks()
}

func (it *tableIter) skipEmptyBlocks() {
	for it.err == nil && (it.data == nil || !it.data.Valid()) {
		if it.data != nil && it.data.Err() != nil {
			it.err = it.data.Err()
			return
		}
		if !it.idx.Valid() {
			it.data = nil
			return
		}
		it.idx.Next()
		if !it.idx.Valid() {
			it.data = nil
			return
		}
		it.loadDataBlock()
		if it.data != nil {
			it.data.SeekToFirst()
		}
	}
}

// Valid reports whether the iterator is on an entry.
func (it *tableIter) Valid() bool { return it.err == nil && it.data != nil && it.data.Valid() }

// Key returns the current internal key.
func (it *tableIter) Key() internalKey { return internalKey(it.data.Key()) }

// Value returns the current value.
func (it *tableIter) Value() []byte { return it.data.Value() }

// Err returns the first error encountered.
func (it *tableIter) Err() error { return it.err }

// verifyTableFile reads a table back end to end in one scanTable pass
// (footer and per-block checksums, strict internal-key ordering) and checks
// what it found against meta, the metadata about to be installed or already
// installed: entry count, file size and key range. It is the
// paranoid_file_checks read-back pass and the core of `ldb verify`. All
// mismatches wrap ErrCorruption.
func verifyTableFile(env Env, name string, meta *FileMeta, bufs *writeBufList) error {
	got, _, err := scanTable(env, name, meta.Number, bufs)
	if err != nil {
		return err
	}
	if got.Entries != meta.Entries {
		return fmt.Errorf("%w: %s holds %d entries, metadata says %d", ErrCorruption, name, got.Entries, meta.Entries)
	}
	if got.Size != meta.Size {
		return fmt.Errorf("%w: %s is %d bytes, metadata says %d", ErrCorruption, name, got.Size, meta.Size)
	}
	if got.Entries > 0 {
		if len(meta.Smallest) > 0 && compareInternal(got.Smallest, meta.Smallest) != 0 {
			return fmt.Errorf("%w: %s smallest key differs from metadata", ErrCorruption, name)
		}
		if len(meta.Largest) > 0 && compareInternal(got.Largest, meta.Largest) != 0 {
			return fmt.Errorf("%w: %s largest key differs from metadata", ErrCorruption, name)
		}
	}
	return nil
}

// indexAnchor is one index-block entry projected to boundary-picking form:
// a candidate split user key plus the approximate bytes of the data block it
// terminates. Subcompaction planning consumes these to cut a compaction's
// input into byte-balanced key ranges without reading any data blocks.
type indexAnchor struct {
	userKey []byte
	bytes   int64
}

// indexAnchors enumerates the table's index block as split candidates. Each
// anchor's user key is the last user key of one data block, so splitting at
// an anchor (exclusive upper bound = the NEXT block's range) keeps whole
// blocks on one side. Keys are copied; the receiver may be closed afterward.
func (t *tableReader) indexAnchors() ([]indexAnchor, error) {
	it, err := newBlockIter(t.indexRaw)
	if err != nil {
		return nil, err
	}
	var anchors []indexAnchor
	for it.SeekToFirst(); it.Valid(); it.Next() {
		h, _, err := decodeBlockHandle(it.Value())
		if err != nil {
			return nil, err
		}
		ik := internalKey(it.Key())
		if !ik.valid() {
			return nil, fmt.Errorf("%w: bad index key in table %d", ErrCorruption, t.fileNum)
		}
		anchors = append(anchors, indexAnchor{
			userKey: append([]byte(nil), ik.userKey()...),
			bytes:   int64(h.length) + blockTrailerSize,
		})
	}
	return anchors, it.Err()
}
