package lsm

import (
	"bytes"
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

// tableBuilder writes an SSTable through a WritableFile.
type tableBuilder struct {
	w           WritableFile
	opts        *Options
	dataBlock   *blockBuilder
	indexBlock  *blockBuilder
	filter      *bloomFilter
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

// newTableBuilder starts building a table with the given options.
func newTableBuilder(w WritableFile, opts *Options) *tableBuilder {
	b := &tableBuilder{
		w:          w,
		opts:       opts,
		dataBlock:  newBlockBuilder(opts.BlockRestartInterval),
		indexBlock: newBlockBuilder(1),
	}
	if opts.BloomBitsPerKey > 0 {
		b.filter = newBloomFilter(opts.BloomBitsPerKey)
	}
	return b
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
	if b.firstKey == nil {
		b.firstKey = append(internalKey(nil), ikey...)
	}
	b.lastKey = append(b.lastKey[:0], ikey...)
	if b.filter != nil {
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

// writeBlock compresses (maybe), appends payload+trailer, returns its handle.
// The staging buffer comes from a pool and is released before returning
// (Append copies the payload into the file).
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
	if err := b.w.Append(payload); err != nil {
		return blockHandle{}, err
	}
	if err := b.w.Append(trailer); err != nil {
		return blockHandle{}, err
	}
	b.offset += uint64(len(payload)) + blockTrailerSize
	return h, nil
}

// finish flushes remaining blocks, writes filter+index+footer, and returns
// the table properties. The file is not synced or closed.
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
	if b.filter != nil {
		if data := b.filter.build(); data != nil {
			h, err := b.writeBlock(data, NoCompression)
			if err != nil {
				return b.props, err
			}
			filterHandle = h
		}
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
	if err := b.w.Append(footer); err != nil {
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
	f        RandomAccessFile
	env      Env
	cache    *blockCache
	cacheID  uint64
	fileNum  uint64
	indexIt  *blockIter // template; cloned per lookup via reparse
	indexRaw []byte
	filter   []byte
	entries  uint64
	size     int64
	stats    *Statistics
	perf     *PerfContext // per-op attribution (nil for background readers)
	// direct is set while the blocks read are stored raw. A table is written
	// with one codec, so the next block is most likely stored like the last:
	// a raw block is read straight into its destination, and only
	// compressed ones go through the pooled buffer they are decoded out of.
	direct atomic.Bool
}

// openTable reads the footer, index and filter blocks of an SSTable. perf
// receives block-read/bloom attribution (nil for background jobs); ios
// receives env-level read traffic via a file wrapper (nil disables).
func openTable(env Env, name string, fileNum uint64, cache *blockCache, stats *Statistics, class IOClass, perf *PerfContext, ios *IOStatsContext) (*tableReader, error) {
	f, err := env.NewRandomAccessFile(name, class)
	if err != nil {
		return nil, err
	}
	f = wrapRandomFile(f, ios)
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, err
	}
	if size < footerSize {
		f.Close()
		return nil, fmt.Errorf("%w: table %s too small (%d bytes)", ErrCorruption, name, size)
	}
	footer := make([]byte, footerSize)
	if err := f.ReadAt(footer, size-footerSize, HintRandom); err != nil {
		f.Close()
		return nil, err
	}
	if got := binary.LittleEndian.Uint64(footer[footerSize-8:]); got != tableMagic {
		f.Close()
		return nil, fmt.Errorf("%w: bad table magic %#x in %s", ErrCorruption, got, name)
	}
	filterHandle, n, err := decodeBlockHandle(footer)
	if err != nil {
		f.Close()
		return nil, err
	}
	indexHandle, n2, err := decodeBlockHandle(footer[n:])
	if err != nil {
		f.Close()
		return nil, err
	}
	entries := binary.LittleEndian.Uint64(footer[n+n2:])
	t := &tableReader{
		f:       f,
		env:     env,
		cache:   cache,
		fileNum: fileNum,
		entries: entries,
		size:    size,
		stats:   stats,
		perf:    perf,
	}
	if cache != nil {
		t.cacheID = cache.NewID()
	}
	// nil scratch: index and filter are retained for the table's lifetime.
	t.indexRaw, err = t.readBlockRaw(indexHandle, HintRandom, nil)
	if err != nil {
		f.Close()
		return nil, err
	}
	if filterHandle.length > 0 {
		t.filter, err = t.readBlockRaw(filterHandle, HintRandom, nil)
		if err != nil {
			f.Close()
			return nil, err
		}
	}
	return t, nil
}

// readBlockRaw reads and verifies one block payload, decompressing if needed.
//
// scratch is an optional caller-owned buffer: when its capacity suffices the
// returned block lives in it, letting iterator-style callers recycle one
// buffer across blocks with no allocation. Callers that retain the result
// indefinitely (the block cache, openTable's index/filter) must pass nil so
// the block gets private, exactly-sized storage: its one allocation. A
// compressed block is read into a pooled buffer and decoded out of it, so
// its payload never aliases the destination (see t.direct).
func (t *tableReader) readBlockRaw(h blockHandle, hint AccessHint, scratch []byte) ([]byte, error) {
	need := int(h.length) + blockTrailerSize
	direct := t.direct.Load()
	var buf []byte
	if direct {
		buf = sized(scratch, need)
	} else {
		rb := getBlockBuf()
		defer putBlockBuf(rb)
		rb.Grow(need)
		buf = rb.AvailableBuffer()[:need]
	}
	var start time.Time
	timed := t.perf.TimeEnabled()
	if timed {
		start = time.Now()
	}
	if err := t.f.ReadAt(buf, int64(h.offset), hint); err != nil {
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
	if raw := ctype == blockRaw; raw != direct {
		t.direct.Store(raw)
	}
	if direct {
		if ctype == blockRaw {
			return payload, nil
		}
		// Mispredicted: the payload sits where the block would go, so the
		// block decodes into new storage.
		scratch = nil
	}
	out, err := decodeBlock(scratch, payload, ctype)
	if err != nil {
		return nil, fmt.Errorf("lsm: decompress block at %d: %w", h.offset, err)
	}
	if t.env != nil {
		t.env.ChargeCPU(simPrices.decode(ctype, len(out)))
	}
	return out, nil
}

// readBlock returns a decoded block, consulting the block cache when one is
// configured. Ownership of the returned slice depends on the reader: with a
// cache the block is shared (freshly read blocks are handed to the cache,
// which retains them — callers must treat them as immutable and must not
// recycle them); without a cache the block is private to the caller and may
// alias scratch, enabling buffer reuse across sequential block loads.
func (t *tableReader) readBlock(h blockHandle, hint AccessHint, scratch []byte) ([]byte, error) {
	if t.cache != nil {
		if v, ok := t.cache.Lookup(t.cacheID, h.offset); ok {
			if t.stats != nil {
				t.stats.Add(TickerBlockCacheHit, 1)
			}
			t.perf.Add(PerfBlockCacheHitCount, 1)
			if t.env != nil {
				t.env.ChargeCPU(simPrices.blockCacheHit.d)
			}
			return v, nil
		}
		if t.stats != nil {
			t.stats.Add(TickerBlockCacheMiss, 1)
		}
		// Cache-bound read: private storage, ownership passes to the cache.
		raw, err := t.readBlockRaw(h, hint, nil)
		if err != nil {
			return nil, err
		}
		t.cache.Insert(t.cacheID, h.offset, raw)
		return raw, nil
	}
	return t.readBlockRaw(h, hint, scratch)
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
// sequence. Returns value, found, deleted. The returned value is always a
// private copy; nothing handed out aliases pooled or cached storage.
func (t *tableReader) get(ikey internalKey) (value []byte, found, deleted bool, err error) {
	if !t.mayContain(ikey.userKey()) {
		return nil, false, false, nil
	}
	scr := getScratchPool.Get().(*getScratch)
	defer getScratchPool.Put(scr)
	idx := &scr.idx
	if err := idx.init(t.indexRaw); err != nil {
		return nil, false, false, err
	}
	idx.Seek(ikey, icmp)
	if !idx.Valid() {
		return nil, false, false, idx.Err()
	}
	h, _, err := decodeBlockHandle(idx.Value())
	if err != nil {
		return nil, false, false, err
	}
	data, err := t.readBlock(h, HintRandom, scr.buf)
	if err != nil {
		return nil, false, false, err
	}
	if t.cache == nil {
		// Private block: keep its buffer for the next pooled lookup.
		scr.buf = data
	}
	it := &scr.data
	if err := it.init(data); err != nil {
		return nil, false, false, err
	}
	if t.env != nil {
		t.env.ChargeCPU(simPrices.blockSeek.d)
	}
	it.Seek(ikey, icmp)
	if !it.Valid() {
		return nil, false, false, it.Err()
	}
	got := internalKey(it.Key())
	if !bytes.Equal(got.userKey(), ikey.userKey()) {
		return nil, false, false, nil
	}
	if got.kind() == KindDelete {
		return nil, true, true, nil
	}
	val := append([]byte(nil), it.Value()...)
	return val, true, false, nil
}

// close releases the file and evicts the table's cached blocks.
func (t *tableReader) close() error {
	if t.cache != nil {
		t.cache.EraseID(t.cacheID)
	}
	return t.f.Close()
}

// tableIter iterates a whole table in internal-key order. The index and
// data block iterators live inside the struct and are re-initialized in
// place per block, and cache-less readers (compaction, verify) recycle one
// private block buffer across sequential loads — steady-state iteration
// allocates nothing.
type tableIter struct {
	t        *tableReader
	idx      *blockIter // points at idxState (nil only on init error)
	data     *blockIter // points at dataState when a block is loaded
	idxState blockIter
	dataSt   blockIter
	scratch  []byte // private block buffer, used only when t.cache == nil
	err      error
	hint     AccessHint
}

// iterator returns an iterator over the table. hint prices block reads.
func (t *tableReader) iterator(hint AccessHint) *tableIter {
	it := &tableIter{t: t, hint: hint}
	it.err = it.idxState.init(t.indexRaw)
	if it.err == nil {
		it.idx = &it.idxState
	}
	return it
}

// loadDataBlock opens the data block under the current index position.
func (it *tableIter) loadDataBlock() {
	it.data = nil
	if it.err != nil || !it.idx.Valid() {
		return
	}
	h, _, err := decodeBlockHandle(it.idx.Value())
	if err != nil {
		it.err = err
		return
	}
	raw, err := it.t.readBlock(h, it.hint, it.scratch)
	if err != nil {
		it.err = err
		return
	}
	if it.t.cache == nil {
		// Private block: keep the buffer so the next load reuses it. Cached
		// blocks are shared and must never land in scratch.
		it.scratch = raw
	}
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

// verifyTableFile reads a table back end to end: footer and per-block
// checksums, strict internal-key ordering, and (when meta is non-nil) the
// entry count, key range and file size of the metadata about to be
// installed. It is the paranoid_file_checks read-back pass and the core of
// `ldb verify`. All mismatches wrap ErrCorruption.
func verifyTableFile(env Env, name string, meta *FileMeta, class IOClass) error {
	var num uint64
	if meta != nil {
		num = meta.Number
	}
	t, err := openTable(env, name, num, nil, nil, class, nil, nil)
	if err != nil {
		return err
	}
	defer t.close()
	it := t.iterator(HintSequential)
	var prev internalKey
	var entries int64
	for it.SeekToFirst(); it.Valid(); it.Next() {
		k := it.Key()
		if prev != nil && compareInternal(prev, k) >= 0 {
			return fmt.Errorf("%w: keys out of order in %s (entry %d)", ErrCorruption, name, entries)
		}
		prev = append(prev[:0], k...)
		entries++
	}
	if err := it.Err(); err != nil {
		return fmt.Errorf("lsm: verify %s: %w", name, err)
	}
	if meta == nil {
		return nil
	}
	if entries != meta.Entries {
		return fmt.Errorf("%w: %s holds %d entries, metadata says %d", ErrCorruption, name, entries, meta.Entries)
	}
	if size, err := env.FileSize(name); err != nil {
		return err
	} else if size != meta.Size {
		return fmt.Errorf("%w: %s is %d bytes, metadata says %d", ErrCorruption, name, size, meta.Size)
	}
	if entries > 0 {
		if len(meta.Smallest) > 0 && compareInternal(t.smallestKey(), meta.Smallest) != 0 {
			return fmt.Errorf("%w: %s smallest key differs from metadata", ErrCorruption, name)
		}
		if len(meta.Largest) > 0 && compareInternal(prev, meta.Largest) != 0 {
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

// smallestKey returns the first internal key in the table (nil when empty).
func (t *tableReader) smallestKey() internalKey {
	it := t.iterator(HintSequential)
	it.SeekToFirst()
	if !it.Valid() {
		return nil
	}
	return append(internalKey(nil), it.Key()...)
}
