package lsm

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// CompactionStyle selects the engine's compaction algorithm.
type CompactionStyle int

const (
	// CompactionStyleLevel is RocksDB's leveled compaction (default).
	CompactionStyleLevel CompactionStyle = iota
	// CompactionStyleUniversal is size-tiered/universal compaction.
	CompactionStyleUniversal
	// CompactionStyleFIFO drops the oldest files past a size budget.
	CompactionStyleFIFO
)

// ParseCompactionStyle maps RocksDB names.
func ParseCompactionStyle(s string) (CompactionStyle, error) {
	switch s {
	case "level", "kCompactionStyleLevel":
		return CompactionStyleLevel, nil
	case "universal", "kCompactionStyleUniversal":
		return CompactionStyleUniversal, nil
	case "fifo", "kCompactionStyleFIFO":
		return CompactionStyleFIFO, nil
	default:
		return CompactionStyleLevel, fmt.Errorf("lsm: unknown compaction_style %q", s)
	}
}

// String renders the RocksDB-style name.
func (c CompactionStyle) String() string {
	switch c {
	case CompactionStyleLevel:
		return "level"
	case CompactionStyleUniversal:
		return "universal"
	case CompactionStyleFIFO:
		return "fifo"
	default:
		return fmt.Sprintf("CompactionStyle(%d)", int(c))
	}
}

// WALRecoveryMode controls how WAL corruption is handled at recovery, after
// rocksdb::WALRecoveryMode.
type WALRecoveryMode int

const (
	// WALRecoverTolerateCorruptedTailRecords (default) drops the corrupted
	// tail of the newest WAL — the expected shape of a torn write after
	// power loss — but still surfaces mid-file corruption under
	// paranoid_checks.
	WALRecoverTolerateCorruptedTailRecords WALRecoveryMode = iota
	// WALRecoverAbsoluteConsistency fails recovery on any corrupt or torn
	// record, even a clean tail.
	WALRecoverAbsoluteConsistency
	// WALRecoverPointInTime stops replaying at the first corruption and
	// ignores everything after it (later WALs included), yielding a
	// consistent point-in-time view.
	WALRecoverPointInTime
)

// ParseWALRecoveryMode maps RocksDB names.
func ParseWALRecoveryMode(s string) (WALRecoveryMode, error) {
	switch s {
	case "kTolerateCorruptedTailRecords", "tolerate_corrupted_tail_records":
		return WALRecoverTolerateCorruptedTailRecords, nil
	case "kAbsoluteConsistency", "absolute_consistency":
		return WALRecoverAbsoluteConsistency, nil
	case "kPointInTimeRecovery", "point_in_time":
		return WALRecoverPointInTime, nil
	default:
		return WALRecoverTolerateCorruptedTailRecords, fmt.Errorf("lsm: unknown wal_recovery_mode %q", s)
	}
}

// String renders the RocksDB-style name.
func (m WALRecoveryMode) String() string {
	switch m {
	case WALRecoverTolerateCorruptedTailRecords:
		return "kTolerateCorruptedTailRecords"
	case WALRecoverAbsoluteConsistency:
		return "kAbsoluteConsistency"
	case WALRecoverPointInTime:
		return "kPointInTimeRecovery"
	default:
		return fmt.Sprintf("WALRecoveryMode(%d)", int(m))
	}
}

// Options configures a DB. Field names follow RocksDB's option names (see
// registry.go for the string-keyed surface the tuning framework uses).
// The zero value is not usable; start from DefaultOptions.
type Options struct {
	// Env supplies the filesystem and clock. Defaults to NewOSEnv().
	Env Env
	// Stats receives engine counters; nil disables collection.
	Stats *Statistics
	// DisableInfoLog suppresses the built-in RocksDB-style LOG file the DB
	// writes into its directory.
	DisableInfoLog bool
	// Seed drives deterministic internal randomness (skiplists).
	Seed int64

	// --- DBOptions ---
	CreateIfMissing bool
	ErrorIfExists   bool
	ParanoidChecks  bool
	// ParanoidFileChecks reads back and verifies every SSTable immediately
	// after flush or compaction writes it (checksums, ordering, entry count)
	// before it is installed in the version.
	ParanoidFileChecks bool
	// WALRecoveryMode controls how WAL corruption is treated at open.
	WALRecoveryMode WALRecoveryMode
	// MaxBgErrorResumeCount bounds automatic background-error recovery
	// attempts for recoverable (transient) errors; 0 disables auto-resume.
	MaxBgErrorResumeCount int
	// BgErrorResumeRetryInterval is the base delay in microseconds between
	// automatic resume attempts (doubled per attempt, capped at 10x).
	BgErrorResumeRetryInterval int64
	// MaxBackgroundJobs bounds flushes+compactions together; RocksDB splits
	// it 1/4 flushes, 3/4 compactions when the specific limits are -1.
	MaxBackgroundJobs        int
	MaxBackgroundCompactions int // -1 = derive from MaxBackgroundJobs
	MaxBackgroundFlushes     int // -1 = derive from MaxBackgroundJobs
	MaxSubcompactions        int
	BytesPerSync             int64 // incremental sync of SST writes; 0 = off
	WALBytesPerSync          int64 // incremental sync of WAL; 0 = off
	StrictBytesPerSync       bool
	CompactionReadaheadSize  int64
	// EnablePipelinedWrite overlaps the WAL stage of one write group with
	// the memtable stage of the previous group (two pipeline stages instead
	// of one exclusive write slot).
	EnablePipelinedWrite bool
	// AllowConcurrentMemtableWrite lets write-group followers insert their
	// own batches into the memtable in parallel with the leader instead of
	// the leader applying every batch serially.
	AllowConcurrentMemtableWrite bool
	// EnableWriteThreadAdaptiveYield makes queued writers spin (yielding the
	// processor) for up to WriteThreadMaxYieldUsec before blocking; when a
	// single yield takes longer than WriteThreadSlowYieldUsec repeatedly the
	// cores are oversubscribed and the writer blocks immediately.
	EnableWriteThreadAdaptiveYield bool
	WriteThreadMaxYieldUsec        int
	WriteThreadSlowYieldUsec       int
	// UseDirectIOForFlushAndCompaction routes background I/O around the OS
	// page cache, preventing compactions from evicting hot read pages.
	UseDirectIOForFlushAndCompaction bool
	MaxOpenFiles                     int   // -1 = unlimited
	DelayedWriteRate                 int64 // bytes/s during slowdown; 0 = default 16MB/s
	RateLimiterBytesPerSec           int64 // background I/O rate limit; 0 = off
	MaxTotalWALSize                  int64 // 0 = derived
	StatsDumpPeriodSec               int
	// StatsPersistPeriodSec is the interval between automatic snapshots of
	// tickers+histograms into the in-memory stats history; 0 disables.
	StatsPersistPeriodSec int
	// StatsHistoryBufferSize bounds the stats history's memory footprint in
	// bytes; the oldest snapshots are evicted past it.
	StatsHistoryBufferSize int64
	// PerfLevel is the initial per-operation profiling level ("disable",
	// "enable_count", "enable_time"); mutable at runtime via DB.SetPerfLevel.
	PerfLevel                string
	AvoidFlushDuringShutdown bool
	DisableWAL               bool // blacklisted from tuning (durability)

	// --- CFOptions ---
	WriteBufferSize                  int64
	MaxWriteBufferNumber             int
	MinWriteBufferNumberToMerge      int
	Level0FileNumCompactionTrigger   int
	Level0SlowdownWritesTrigger      int
	Level0StopWritesTrigger          int
	NumLevels                        int
	TargetFileSizeBase               int64
	TargetFileSizeMultiplier         int
	MaxBytesForLevelBase             int64
	MaxBytesForLevelMultiplier       float64
	LevelCompactionDynamicLevelBytes bool
	CompactionStyle                  CompactionStyle
	Compression                      Compression
	MaxCompactionBytes               int64
	DisableAutoCompactions           bool
	SoftPendingCompactionBytesLimit  int64
	HardPendingCompactionBytesLimit  int64
	// ReportBgIOStats measures background (flush/compaction) read/write/fsync
	// time per level, renders it in rocksdb.cfstats, and folds it into the
	// DB's IOStatsContext totals.
	ReportBgIOStats bool

	// --- TableOptions/BlockBasedTable ---
	BlockSize            int
	BlockRestartInterval int
	BlockCacheSize       int64
	BloomBitsPerKey      int // filter_policy bloomfilter bits; 0 = none
	NoBlockCache         bool

	// Extra holds recognized options the engine accepts but does not act
	// on (the long tail of the RocksDB surface). They round-trip through
	// OPTIONS files and are visible to the tuning loop.
	Extra map[string]string

	rng *rand.Rand // lazily built from Seed
}

// DefaultOptions mirrors RocksDB 8.x defaults (the paper's baseline is
// db_bench's defaults, which are these plus a 10-bit bloom filter and an
// 8 MiB block cache — see DBBenchDefaults).
func DefaultOptions() *Options {
	return &Options{
		CreateIfMissing:                true,
		WALRecoveryMode:                WALRecoverTolerateCorruptedTailRecords,
		MaxBgErrorResumeCount:          2147483647,
		BgErrorResumeRetryInterval:     1000000,
		MaxBackgroundJobs:              2,
		MaxBackgroundCompactions:       -1,
		MaxBackgroundFlushes:           -1,
		MaxSubcompactions:              1,
		BytesPerSync:                   0,
		WALBytesPerSync:                0,
		StrictBytesPerSync:             false,
		CompactionReadaheadSize:        2 * 1024 * 1024,
		EnablePipelinedWrite:           false,
		AllowConcurrentMemtableWrite:   true,
		EnableWriteThreadAdaptiveYield: true,
		WriteThreadMaxYieldUsec:        100,
		WriteThreadSlowYieldUsec:       3,
		MaxOpenFiles:                   -1,
		DelayedWriteRate:               0, // 16 MiB/s effective
		MaxTotalWALSize:                0,
		StatsDumpPeriodSec:             600,
		StatsPersistPeriodSec:          600,
		StatsHistoryBufferSize:         1 << 20,
		PerfLevel:                      "disable",

		WriteBufferSize:                 64 << 20,
		MaxWriteBufferNumber:            2,
		MinWriteBufferNumberToMerge:     1,
		Level0FileNumCompactionTrigger:  4,
		Level0SlowdownWritesTrigger:     20,
		Level0StopWritesTrigger:         36,
		NumLevels:                       7,
		TargetFileSizeBase:              64 << 20,
		TargetFileSizeMultiplier:        1,
		MaxBytesForLevelBase:            256 << 20,
		MaxBytesForLevelMultiplier:      10,
		CompactionStyle:                 CompactionStyleLevel,
		Compression:                     NoCompression,
		MaxCompactionBytes:              64 << 20 * 25,
		SoftPendingCompactionBytesLimit: 64 << 30,
		HardPendingCompactionBytesLimit: 256 << 30,

		BlockSize:            4096,
		BlockRestartInterval: 16,
		BlockCacheSize:       32 << 20,
		BloomBitsPerKey:      0,

		Extra: make(map[string]string),
	}
}

// DBBenchDefaults returns the db_bench out-of-box configuration the paper
// uses as Iteration 0: RocksDB defaults plus db_bench's own flag defaults —
// notably no bloom filter (-bloom_bits=-1) and a small 8 MiB block cache,
// which is why default random-read performance is so poor in the paper's
// Tables 3/4.
func DBBenchDefaults() *Options {
	o := DefaultOptions()
	o.BloomBitsPerKey = 0
	o.BlockCacheSize = 8 << 20
	return o
}

// Clone returns a deep copy (Env and Stats are shared by reference).
func (o *Options) Clone() *Options {
	c := *o
	c.Extra = make(map[string]string, len(o.Extra))
	for k, v := range o.Extra {
		c.Extra[k] = v
	}
	c.rng = nil
	return &c
}

// backgroundFlushSlots resolves MaxBackgroundFlushes.
func (o *Options) backgroundFlushSlots() int {
	if o.MaxBackgroundFlushes > 0 {
		return o.MaxBackgroundFlushes
	}
	n := o.MaxBackgroundJobs / 4
	if n < 1 {
		n = 1
	}
	return n
}

// backgroundCompactionSlots resolves MaxBackgroundCompactions.
func (o *Options) backgroundCompactionSlots() int {
	if o.MaxBackgroundCompactions > 0 {
		return o.MaxBackgroundCompactions
	}
	n := o.MaxBackgroundJobs - o.backgroundFlushSlots()
	if n < 1 {
		n = 1
	}
	return n
}

// delayedWriteRate resolves the slowdown write rate in bytes/s.
func (o *Options) delayedWriteRate() int64 {
	if o.DelayedWriteRate > 0 {
		return o.DelayedWriteRate
	}
	return 16 << 20
}

// maxTotalWALSize resolves the WAL size cap that forces memtable flushes.
func (o *Options) maxTotalWALSize() int64 {
	if o.MaxTotalWALSize > 0 {
		return o.MaxTotalWALSize
	}
	return int64(o.MaxWriteBufferNumber) * o.WriteBufferSize * 4
}

// maxNumLevels is the largest num_levels the engine accepts.
const maxNumLevels = 12

// Validate checks cross-field invariants the engine depends on.
func (o *Options) Validate() error {
	if o.WriteBufferSize < 1<<16 {
		return fmt.Errorf("lsm: write_buffer_size %d too small (min 64KiB)", o.WriteBufferSize)
	}
	if o.MaxWriteBufferNumber < 1 {
		return fmt.Errorf("lsm: max_write_buffer_number must be >= 1")
	}
	if o.MinWriteBufferNumberToMerge < 1 || o.MinWriteBufferNumberToMerge > o.MaxWriteBufferNumber {
		return fmt.Errorf("lsm: min_write_buffer_number_to_merge %d out of range [1,%d]",
			o.MinWriteBufferNumberToMerge, o.MaxWriteBufferNumber)
	}
	if o.NumLevels < 2 || o.NumLevels > maxNumLevels {
		return fmt.Errorf("lsm: num_levels %d out of range [2,%d]", o.NumLevels, maxNumLevels)
	}
	if o.Level0FileNumCompactionTrigger < 1 {
		return fmt.Errorf("lsm: level0_file_num_compaction_trigger must be >= 1")
	}
	if o.Level0SlowdownWritesTrigger < o.Level0FileNumCompactionTrigger {
		return fmt.Errorf("lsm: level0_slowdown_writes_trigger %d below compaction trigger %d",
			o.Level0SlowdownWritesTrigger, o.Level0FileNumCompactionTrigger)
	}
	if o.Level0StopWritesTrigger < o.Level0SlowdownWritesTrigger {
		return fmt.Errorf("lsm: level0_stop_writes_trigger %d below slowdown trigger %d",
			o.Level0StopWritesTrigger, o.Level0SlowdownWritesTrigger)
	}
	if o.TargetFileSizeBase < 1<<16 {
		return fmt.Errorf("lsm: target_file_size_base %d too small", o.TargetFileSizeBase)
	}
	if o.MaxBytesForLevelBase < o.TargetFileSizeBase {
		return fmt.Errorf("lsm: max_bytes_for_level_base %d below target_file_size_base %d",
			o.MaxBytesForLevelBase, o.TargetFileSizeBase)
	}
	// Written so that NaN, which compares false against any bound, fails.
	if m := o.MaxBytesForLevelMultiplier; !(m >= 1.001) || math.IsInf(m, 0) {
		return fmt.Errorf("lsm: max_bytes_for_level_multiplier %v must be a finite number above 1", m)
	}
	if o.BlockSize < 256 || o.BlockSize > 16<<20 {
		return fmt.Errorf("lsm: block_size %d out of range [256, 16MiB]", o.BlockSize)
	}
	if o.MaxBackgroundJobs < 1 {
		return fmt.Errorf("lsm: max_background_jobs must be >= 1")
	}
	if o.WriteThreadMaxYieldUsec < 0 || o.WriteThreadSlowYieldUsec < 0 {
		return fmt.Errorf("lsm: write thread yield budgets must be >= 0")
	}
	if o.PerfLevel != "" {
		if _, err := ParsePerfLevel(o.PerfLevel); err != nil {
			return err
		}
	}
	if o.StatsPersistPeriodSec < 0 {
		return fmt.Errorf("lsm: stats_persist_period_sec must be >= 0")
	}
	if o.StatsHistoryBufferSize < 0 {
		return fmt.Errorf("lsm: stats_history_buffer_size must be >= 0")
	}
	return nil
}

// statsDumpEvery resolves stats_dump_period_sec as a duration (0 = off).
func (o *Options) statsDumpEvery() time.Duration {
	if o.StatsDumpPeriodSec <= 0 {
		return 0
	}
	return time.Duration(o.StatsDumpPeriodSec) * time.Second
}

// statsPersistEvery resolves stats_persist_period_sec as a duration (0 = off).
func (o *Options) statsPersistEvery() time.Duration {
	if o.StatsPersistPeriodSec <= 0 {
		return 0
	}
	return time.Duration(o.StatsPersistPeriodSec) * time.Second
}

// perfLevel resolves the configured perf level ("" = disable).
func (o *Options) perfLevel() PerfLevel {
	if o.PerfLevel == "" {
		return PerfDisable
	}
	l, err := ParsePerfLevel(o.PerfLevel)
	if err != nil {
		return PerfDisable
	}
	return l
}
