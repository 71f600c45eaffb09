package lsm

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// This file implements the engine's per-operation profiling layer, in the
// spirit of rocksdb::PerfContext and rocksdb::IOStatsContext. Unlike the
// cumulative tickers (stats.go), these counters attribute cost to the
// operation *phase* that paid it: how much of a Get was spent in the
// memtable versus reading SST blocks, how much of a write went to the WAL
// versus the memtable versus write-controller delays.
//
// RocksDB keeps these contexts thread-local. Go has no thread-local
// storage, so the engine aggregates into one DB-wide atomic context; the
// per-op profile is derived by dividing totals by the operation counts the
// tickers and histograms already record. Collection is gated by perf_level:
//
//	disable       no counters are touched (one atomic load per site)
//	enable_count  counts only (no clock reads)
//	enable_time   counts plus wall-clock timing
//
// In a simulation environment the *count* counters are exact and
// deterministic; the *_time counters measure real compute time of the
// simulated work (small but nonzero), not virtual time.

// PerfLevel controls how much the perf/IO-stats contexts collect.
type PerfLevel int32

const (
	// PerfDisable turns collection off entirely.
	PerfDisable PerfLevel = iota
	// PerfEnableCount collects counts but never reads the clock.
	PerfEnableCount
	// PerfEnableTime collects counts and wall-clock timings.
	PerfEnableTime
)

// String renders the registry enum value.
func (l PerfLevel) String() string {
	switch l {
	case PerfDisable:
		return "disable"
	case PerfEnableCount:
		return "enable_count"
	case PerfEnableTime:
		return "enable_time"
	default:
		return fmt.Sprintf("PerfLevel(%d)", int32(l))
	}
}

// ParsePerfLevel parses a perf_level option value. The RocksDB C++ enum
// names (kDisable, kEnableCount, kEnableTimeExceptForMutex, kEnableTime)
// are accepted as aliases.
func ParsePerfLevel(s string) (PerfLevel, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "disable", "kdisable", "0":
		return PerfDisable, nil
	case "enable_count", "kenablecount", "1":
		return PerfEnableCount, nil
	case "enable_time", "kenabletime", "kenabletimeexceptformutex", "2":
		return PerfEnableTime, nil
	}
	return PerfDisable, fmt.Errorf("lsm: invalid perf_level %q (disable, enable_count, enable_time)", s)
}

// PerfMetric identifies one PerfContext counter.
type PerfMetric int

const (
	PerfGetFromMemtableTime PerfMetric = iota
	PerfGetFromMemtableCount
	PerfGetFromOutputFilesTime
	PerfBlockReadCount
	PerfBlockReadByte
	PerfBlockReadTime
	PerfBlockCacheHitCount
	PerfBloomSSTHitCount
	PerfBloomSSTMissCount
	PerfWriteWALTime
	PerfWriteMemtableTime
	PerfWriteDelayTime
	PerfSeekOnMemtableCount
	PerfSeekChildSeekCount
	PerfSeekInternalSeekTime
	PerfDBMutexLockNanos
	numPerfMetrics
)

// perfMetricNames are the RocksDB PerfContext field names. Time counters
// are in nanoseconds.
var perfMetricNames = [numPerfMetrics]string{
	PerfGetFromMemtableTime:    "get_from_memtable_time",
	PerfGetFromMemtableCount:   "get_from_memtable_count",
	PerfGetFromOutputFilesTime: "get_from_output_files_time",
	PerfBlockReadCount:         "block_read_count",
	PerfBlockReadByte:          "block_read_byte",
	PerfBlockReadTime:          "block_read_time",
	PerfBlockCacheHitCount:     "block_cache_hit_count",
	PerfBloomSSTHitCount:       "bloom_sst_hit_count",
	PerfBloomSSTMissCount:      "bloom_sst_miss_count",
	PerfWriteWALTime:           "write_wal_time",
	PerfWriteMemtableTime:      "write_memtable_time",
	PerfWriteDelayTime:         "write_delay_time",
	PerfSeekOnMemtableCount:    "seek_on_memtable_count",
	PerfSeekChildSeekCount:     "seek_child_seek_count",
	PerfSeekInternalSeekTime:   "seek_internal_seek_time",
	PerfDBMutexLockNanos:       "db_mutex_lock_nanos",
}

// String returns the RocksDB PerfContext field name.
func (m PerfMetric) String() string {
	if m >= 0 && m < numPerfMetrics {
		return perfMetricNames[m]
	}
	return fmt.Sprintf("perf_metric(%d)", int(m))
}

// PerfContext aggregates per-operation-phase counters. All methods are
// nil-safe and safe for concurrent use. The zero value starts disabled.
type PerfContext struct {
	level    atomic.Int32
	counters [numPerfMetrics]atomic.Int64
}

// Level returns the current collection level.
func (p *PerfContext) Level() PerfLevel {
	if p == nil {
		return PerfDisable
	}
	return PerfLevel(p.level.Load())
}

// SetLevel switches the collection level (mutable at runtime, like
// rocksdb::SetPerfLevel).
func (p *PerfContext) SetLevel(l PerfLevel) {
	if p != nil {
		p.level.Store(int32(l))
	}
}

// CountEnabled reports whether count counters are collected.
func (p *PerfContext) CountEnabled() bool { return p.Level() >= PerfEnableCount }

// TimeEnabled reports whether timing counters are collected.
func (p *PerfContext) TimeEnabled() bool { return p.Level() >= PerfEnableTime }

// Add increments a count metric when collection is at enable_count or above.
func (p *PerfContext) Add(m PerfMetric, v int64) {
	if p == nil || p.level.Load() < int32(PerfEnableCount) {
		return
	}
	p.counters[m].Add(v)
}

// AddTime adds a duration to a time metric when collection is at
// enable_time. Callers should only read the clock after checking
// TimeEnabled, so a disabled run pays no timer cost.
func (p *PerfContext) AddTime(m PerfMetric, d time.Duration) {
	if p == nil || p.level.Load() < int32(PerfEnableTime) {
		return
	}
	p.counters[m].Add(int64(d))
}

// Get returns one counter's value.
func (p *PerfContext) Get(m PerfMetric) int64 {
	if p == nil || m < 0 || m >= numPerfMetrics {
		return 0
	}
	return p.counters[m].Load()
}

// Reset zeroes every counter (the level is unchanged).
func (p *PerfContext) Reset() {
	if p == nil {
		return
	}
	for i := range p.counters {
		p.counters[i].Store(0)
	}
}

// Snapshot returns every counter keyed by its RocksDB name.
func (p *PerfContext) Snapshot() map[string]int64 {
	out := make(map[string]int64, numPerfMetrics)
	if p == nil {
		return out
	}
	for m := PerfMetric(0); m < numPerfMetrics; m++ {
		out[perfMetricNames[m]] = p.counters[m].Load()
	}
	return out
}

// String renders the context in the RocksDB ToString style:
// "name = value, ..." with one counter per line, zeros included.
func (p *PerfContext) String() string {
	var b strings.Builder
	for m := PerfMetric(0); m < numPerfMetrics; m++ {
		fmt.Fprintf(&b, "%s = %d\n", perfMetricNames[m], p.Get(m))
	}
	return b.String()
}

// IOStatsContext aggregates environment-level I/O attribution: bytes moved
// and time spent in read/write/fsync calls, regardless of which Env
// implementation (OS, fault-injection, simulation) performed them. All
// methods are nil-safe and safe for concurrent use.
type IOStatsContext struct {
	level        atomic.Int32
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	readNanos    atomic.Int64
	writeNanos   atomic.Int64
	fsyncNanos   atomic.Int64
}

// SetLevel switches the collection level (shared scale with PerfLevel).
func (io *IOStatsContext) SetLevel(l PerfLevel) {
	if io != nil {
		io.level.Store(int32(l))
	}
}

// enabled reports whether any collection happens.
func (io *IOStatsContext) enabled() bool {
	return io != nil && io.level.Load() >= int32(PerfEnableCount)
}

// timeEnabled reports whether call durations are measured.
func (io *IOStatsContext) timeEnabled() bool {
	return io != nil && io.level.Load() >= int32(PerfEnableTime)
}

// BytesRead returns cumulative bytes read.
func (io *IOStatsContext) BytesRead() int64 {
	if io == nil {
		return 0
	}
	return io.bytesRead.Load()
}

// BytesWritten returns cumulative bytes written.
func (io *IOStatsContext) BytesWritten() int64 {
	if io == nil {
		return 0
	}
	return io.bytesWritten.Load()
}

// FsyncNanos returns cumulative time spent in Sync calls.
func (io *IOStatsContext) FsyncNanos() int64 {
	if io == nil {
		return 0
	}
	return io.fsyncNanos.Load()
}

// start returns the wall clock at the start of a call to be booked, or zero
// when call times are not collected.
func (io *IOStatsContext) start() time.Time {
	if !io.timeEnabled() {
		return time.Time{}
	}
	return time.Now()
}

// elapsed is the time since start in nanoseconds, 0 for an untimed call.
func elapsed(start time.Time) int64 {
	if start.IsZero() {
		return 0
	}
	return int64(time.Since(start))
}

// addRead books one read call of n bytes, timed from start (see start).
func (io *IOStatsContext) addRead(n int64, start time.Time) {
	if io.enabled() {
		io.bytesRead.Add(n)
		io.readNanos.Add(elapsed(start))
	}
}

// addWrite books one write call of n bytes, timed from start.
func (io *IOStatsContext) addWrite(n int64, start time.Time) {
	if io.enabled() {
		io.bytesWritten.Add(n)
		io.writeNanos.Add(elapsed(start))
	}
}

// merge folds another context's totals into io (used to publish a
// background job's I/O when report_bg_io_stats is set).
func (io *IOStatsContext) merge(other *IOStatsContext) {
	if io == nil || other == nil {
		return
	}
	io.bytesRead.Add(other.bytesRead.Load())
	io.bytesWritten.Add(other.bytesWritten.Load())
	io.readNanos.Add(other.readNanos.Load())
	io.writeNanos.Add(other.writeNanos.Load())
	io.fsyncNanos.Add(other.fsyncNanos.Load())
}

// Snapshot returns the counters keyed by their RocksDB IOStatsContext
// field names.
func (io *IOStatsContext) Snapshot() map[string]int64 {
	out := make(map[string]int64, 5)
	if io == nil {
		return out
	}
	out["bytes_read"] = io.bytesRead.Load()
	out["bytes_written"] = io.bytesWritten.Load()
	out["read_nanos"] = io.readNanos.Load()
	out["write_nanos"] = io.writeNanos.Load()
	out["fsync_nanos"] = io.fsyncNanos.Load()
	return out
}

// String renders the context one "name = value" per line, sorted.
func (io *IOStatsContext) String() string {
	snap := io.Snapshot()
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "%s = %d\n", k, snap[k])
	}
	return b.String()
}

// newBGIOStats builds a per-job I/O context for one flush or compaction:
// full timing when the family sets report_bg_io_stats, otherwise mirroring
// the DB-wide collection level so bytes are still attributed whenever
// profiling is on. The job's totals merge into the DB context (and, under
// report_bg_io_stats, into the per-level cfstats columns) at install.
func (db *DB) newBGIOStats(cfOpts *Options) *IOStatsContext {
	io := &IOStatsContext{}
	if cfOpts.ReportBgIOStats {
		io.SetLevel(PerfEnableTime)
	} else {
		io.SetLevel(PerfLevel(db.iostats.level.Load()))
	}
	return io
}
