package lsm

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Ticker identifies a monotonically increasing counter, in the spirit of
// rocksdb::Tickers.
type Ticker int

const (
	TickerBlockCacheHit Ticker = iota
	TickerBlockCacheMiss
	TickerBloomChecked // bloom passed (table probed)
	TickerBloomUseful  // bloom excluded a table
	TickerMemtableHit
	TickerMemtableMiss
	TickerGetHit
	TickerGetMiss
	TickerBytesWritten
	TickerBytesRead
	TickerWALBytes
	TickerWALSyncs
	TickerFlushCount
	TickerFlushBytes
	TickerCompactCount
	TickerCompactReadBytes
	TickerCompactWriteBytes
	TickerStallMicros
	TickerSlowdownWrites
	TickerStoppedWrites
	TickerSeekCount
	TickerNextCount
	TickerTableCacheHit
	TickerTableCacheMiss
	TickerBlockCacheAdd
	TickerBlockCacheEvict
	TickerWriteDoneBySelf    // writes committed as a group leader
	TickerWriteDoneByOther   // writes committed by another thread's group
	TickerBgError            // background errors raised (flush/compaction/WAL)
	TickerErrorRecoveryCount // successful background-error recoveries
	TickerWALCorruptRecords  // WAL records dropped as corrupt during replay
	TickerMultiGetCalls      // MultiGet invocations
	TickerMultiGetKeysRead   // keys looked up through MultiGet
	TickerMultiGetBytesRead  // value bytes returned by MultiGet
	// TickerSubcompactionScheduled counts range-partitioned compaction
	// slices (an unsplit compaction counts one), so slices/compactions
	// reveals how far max_subcompactions actually splits jobs.
	TickerSubcompactionScheduled
	numTickers
)

var tickerNames = map[Ticker]string{
	TickerBlockCacheHit:      "rocksdb.block.cache.hit",
	TickerBlockCacheMiss:     "rocksdb.block.cache.miss",
	TickerBloomChecked:       "rocksdb.bloom.filter.checked",
	TickerBloomUseful:        "rocksdb.bloom.filter.useful",
	TickerMemtableHit:        "rocksdb.memtable.hit",
	TickerMemtableMiss:       "rocksdb.memtable.miss",
	TickerGetHit:             "rocksdb.get.hit",
	TickerGetMiss:            "rocksdb.get.miss",
	TickerBytesWritten:       "rocksdb.bytes.written",
	TickerBytesRead:          "rocksdb.bytes.read",
	TickerWALBytes:           "rocksdb.wal.bytes",
	TickerWALSyncs:           "rocksdb.wal.synced",
	TickerFlushCount:         "rocksdb.flush.count",
	TickerFlushBytes:         "rocksdb.flush.write.bytes",
	TickerCompactCount:       "rocksdb.compaction.count",
	TickerCompactReadBytes:   "rocksdb.compact.read.bytes",
	TickerCompactWriteBytes:  "rocksdb.compact.write.bytes",
	TickerStallMicros:        "rocksdb.stall.micros",
	TickerSlowdownWrites:     "rocksdb.stall.slowdown.writes",
	TickerStoppedWrites:      "rocksdb.stall.stopped.writes",
	TickerSeekCount:          "rocksdb.number.db.seek",
	TickerNextCount:          "rocksdb.number.db.next",
	TickerTableCacheHit:      "rocksdb.table.cache.hit",
	TickerTableCacheMiss:     "rocksdb.table.cache.miss",
	TickerBlockCacheAdd:      "rocksdb.block.cache.add",
	TickerBlockCacheEvict:    "rocksdb.block.cache.evict",
	TickerWriteDoneBySelf:    "rocksdb.write.self",
	TickerWriteDoneByOther:   "rocksdb.write.other",
	TickerBgError:            "rocksdb.bg.error",
	TickerErrorRecoveryCount: "rocksdb.error.recovery.count",
	TickerWALCorruptRecords:  "rocksdb.wal.corrupt.records",
	TickerMultiGetCalls:      "rocksdb.number.multiget.get",
	TickerMultiGetKeysRead:   "rocksdb.number.multiget.keys.read",
	TickerMultiGetBytesRead:  "rocksdb.number.multiget.bytes.read",

	TickerSubcompactionScheduled: "rocksdb.subcompaction.scheduled",
}

// String returns the RocksDB-style ticker name.
func (t Ticker) String() string {
	if s, ok := tickerNames[t]; ok {
		return s
	}
	return fmt.Sprintf("ticker(%d)", int(t))
}

// Statistics is a set of atomic counters shared across the engine.
type Statistics struct {
	tickers [numTickers]atomic.Int64
}

// NewStatistics returns zeroed statistics.
func NewStatistics() *Statistics { return &Statistics{} }

// Add increments a ticker (nil-safe).
func (s *Statistics) Add(t Ticker, delta int64) {
	if s == nil {
		return
	}
	s.tickers[t].Add(delta)
}

// Get reads a ticker (nil-safe).
func (s *Statistics) Get(t Ticker) int64 {
	if s == nil {
		return 0
	}
	return s.tickers[t].Load()
}

// Each calls fn for every ticker (including zero-valued ones) in declaration
// order, keyed by the RocksDB-style name. Used by exporters that must emit a
// stable series set.
func (s *Statistics) Each(fn func(name string, value int64)) {
	if s == nil {
		return
	}
	for t := Ticker(0); t < numTickers; t++ {
		fn(t.String(), s.tickers[t].Load())
	}
}

// Snapshot returns all non-zero tickers keyed by RocksDB-style names.
func (s *Statistics) Snapshot() map[string]int64 {
	out := make(map[string]int64)
	if s == nil {
		return out
	}
	for t := Ticker(0); t < numTickers; t++ {
		if v := s.tickers[t].Load(); v != 0 {
			out[t.String()] = v
		}
	}
	return out
}

// String renders non-zero counters sorted by name, one per line.
func (s *Statistics) String() string {
	var b strings.Builder
	writeTickerLines(&b, s.Snapshot())
	return b.String()
}

// writeTickerLines renders tickers sorted by name, one
// "<name> COUNT : <value>" line each.
func writeTickerLines(b *strings.Builder, tickers map[string]int64) {
	keys := make([]string, 0, len(tickers))
	for k := range tickers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, "%s COUNT : %d\n", k, tickers[k])
	}
}
