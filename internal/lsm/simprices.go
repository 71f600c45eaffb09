package lsm

import "time"

// The simulator's price table. Every CPU and host cost SimEnv charges an
// operation is one row of simPrices: a name (the field), a price, and the
// Benchmark* in this package that measures the real engine doing the same
// work, or unmeasured when none does yet. Call sites read rows as fields and
// keep no price of their own, so re-pricing the simulator is an edit to this
// file alone. On the OS the rows are inert: OSEnv.ChargeCPU and
// OSEnv.ChargeLatency ignore what they are handed.
//
// Device latencies are not rows: internal/device names its profiles the same
// way. Neither are the model's floors (the delayed-write minimum in db.go,
// SimEnv's 1 us background-job floor) or the subcompaction efficiency: they
// bound or shape a modelled quantity, they do not price work.

// simPrice is one row: what the simulator charges for one unit of work.
type simPrice struct {
	d     time.Duration
	bench string // the Benchmark* measuring the real counterpart, or unmeasured
}

// simPercent is a row that scales another row's price instead of adding one.
type simPercent struct {
	pct   int64
	bench string
}

// unmeasured marks a row no benchmark measures yet.
const unmeasured = "unmeasured"

type simPriceTable struct {
	// Foreground reads.
	get           simPrice // per Get, before any table probe
	multiGetKey   simPrice // per MultiGet key; the batch captures its state once
	iterSeek      simPrice // per Iterator Seek or SeekToFirst
	iterNext      simPrice // per Iterator Next
	blockCacheHit simPrice // per block served from the block cache
	bloomProbe    simPrice // per bloom-filter probe of a table
	blockSeek     simPrice // per seek inside a data block on a point lookup

	// The write path (writethread.go), per batch in a group. Their sum is the
	// calibrated write-path cost (db_bench fillrandom on a warmed NVMe box,
	// ~2-3 us/op before stall effects), split into WAL framing and memtable
	// insert.
	walBatch         simPrice   // WAL framing
	walKiB           simPrice   // WAL framing, per whole KiB of the batch
	memtableBatch    simPrice   // memtable insert
	memtableEntry    simPrice   // memtable insert, per entry of the batch
	concurrentInsert simPercent // a concurrent insert's price against an exclusive one: CAS retries and cache-line traffic
	writeWake        simPrice   // futex wake + scheduler delay of a queued writer that blocked instead of spinning

	// Background jobs, per entry written, before compression.
	flushEntry   simPrice
	compactEntry simPrice // comparisons and copies of the merge

	// Block codecs. zstd keeps the DEFLATE prices the cost model has always
	// charged every codec; snappy's are those prices scaled by what the two
	// block benchmarks measure for it against the DEFLATE level 1 it
	// replaced, on value-shaped blocks: 11.5x faster to encode, 13x to decode.
	snappyEncodeEntry simPrice // compressing, per entry a flush or compaction writes (snappy, lz4)
	zstdEncodeEntry   simPrice // the same for zstd and zlib
	snappyDecodeKB    simPrice // decompressing, per 1000 bytes of output (block type 2)
	zstdDecodeKB      simPrice // the same for DEFLATE blocks (block type 1)

	// The host.
	memCopy    simPrice // DRAM copy of a page-cache hit or a foreground append, per call
	memCopyKiB simPrice // the same, per whole KiB copied
	syncAsync  simPrice // handing a file's dirty bytes to kernel writeback
	harnessOp  simPrice // the benchmark harness's own cost per operation (internal/bench)
}

var simPrices = simPriceTable{
	get:           simPrice{1300 * time.Nanosecond, "BenchmarkGetSSTCacheHit"},
	multiGetKey:   simPrice{1100 * time.Nanosecond, unmeasured},
	iterSeek:      simPrice{2 * time.Microsecond, "BenchmarkIteratorSeekNext"},
	iterNext:      simPrice{300 * time.Nanosecond, "BenchmarkIteratorSeekNext"},
	blockCacheHit: simPrice{200 * time.Nanosecond, unmeasured},
	bloomProbe:    simPrice{120 * time.Nanosecond, "BenchmarkBloomMayContain"},
	blockSeek:     simPrice{400 * time.Nanosecond, unmeasured},

	walBatch:         simPrice{500 * time.Nanosecond, unmeasured},
	walKiB:           simPrice{200 * time.Nanosecond, unmeasured},
	memtableBatch:    simPrice{400 * time.Nanosecond, unmeasured},
	memtableEntry:    simPrice{1100 * time.Nanosecond, unmeasured},
	concurrentInsert: simPercent{115, unmeasured},
	writeWake:        simPrice{5 * time.Microsecond, unmeasured},

	flushEntry:   simPrice{300 * time.Nanosecond, unmeasured},
	compactEntry: simPrice{350 * time.Nanosecond, "BenchmarkCompactionDrain"},

	snappyEncodeEntry: simPrice{26 * time.Nanosecond, "BenchmarkWriteBlockCompressed"},
	zstdEncodeEntry:   simPrice{300 * time.Nanosecond, "BenchmarkWriteBlockCompressed"},
	snappyDecodeKB:    simPrice{154 * time.Nanosecond, "BenchmarkReadBlockCompressed"},
	zstdDecodeKB:      simPrice{2000 * time.Nanosecond, "BenchmarkReadBlockCompressed"},

	memCopy:    simPrice{250 * time.Nanosecond, unmeasured},
	memCopyKiB: simPrice{80 * time.Nanosecond, unmeasured},
	syncAsync:  simPrice{2 * time.Microsecond, unmeasured},
	harnessOp:  simPrice{150 * time.Nanosecond, unmeasured},
}

// encodeEntry is the price of compressing one written entry with c (free
// for NoCompression or an out-of-range value).
func (p *simPriceTable) encodeEntry(c Compression) time.Duration {
	switch c {
	case SnappyCompression, LZ4Compression:
		return p.snappyEncodeEntry.d
	case ZstdCompression:
		return p.zstdEncodeEntry.d
	default:
		return 0
	}
}

// decode is the price of decoding n bytes of output from a block of type
// ctype.
func (p *simPriceTable) decode(ctype byte, n int) time.Duration {
	var perKB time.Duration
	switch ctype {
	case blockFlate:
		perKB = p.zstdDecodeKB.d
	case blockSnappy:
		perKB = p.snappyDecodeKB.d
	}
	return time.Duration(int64(n) * int64(perKB) / 1000)
}

// copyMem is the price of copying n bytes through DRAM.
func (p *simPriceTable) copyMem(n int64) time.Duration {
	return p.memCopy.d + time.Duration(n>>10)*p.memCopyKiB.d
}

// SimHarnessOpPrice is the virtual time a simulated benchmark run adds to
// every operation for the harness itself, on top of what the engine charged.
func SimHarnessOpPrice() time.Duration { return simPrices.harnessOp.d }
