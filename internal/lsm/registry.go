package lsm

import (
	"fmt"
	"math"
	"sort"
	"strconv"
)

// OptionType classifies an option's value syntax.
type OptionType int

const (
	// TypeBool is true/false (also accepts 1/0).
	TypeBool OptionType = iota
	// TypeInt is a signed integer (sizes in bytes, counts, ...).
	TypeInt
	// TypeFloat is a decimal number.
	TypeFloat
	// TypeEnum is one of a fixed set of strings.
	TypeEnum
	// TypeString is free-form.
	TypeString
)

// Option sections, mirroring RocksDB OPTIONS file structure. SectionCF and
// SectionTable name the default family's sections; SectionCFName and
// SectionTableName build the headers for any family.
const (
	SectionDB    = "DBOptions"
	SectionCF    = `CFOptions "default"`
	SectionTable = `TableOptions/BlockBasedTable "default"`
)

// SectionCFName returns the CFOptions section header for a family.
func SectionCFName(name string) string {
	return fmt.Sprintf("CFOptions %q", name)
}

// SectionTableName returns the TableOptions section header for a family.
func SectionTableName(name string) string {
	return fmt.Sprintf("TableOptions/BlockBasedTable %q", name)
}

// OptionSpec describes one named option: its syntax, bounds, and — through
// its accessors — whether the engine acts on it (Honored) or merely records it
// (the long tail RocksDB exposes — still valid to set, visible in OPTIONS
// files, and therefore tunable surface for the LLM). Mutable marks the dynamic
// subset that DB.SetOptions may change on a running database
// without a reopen (RocksDB's dynamically-changeable options); everything
// else is fixed at Open.
type OptionSpec struct {
	Name       string
	Section    string
	Type       OptionType
	Default    string  // of an honored option: rendered from DefaultOptions()
	Min, Max   float64 // numeric bounds; both zero = unbounded
	Enum       []string
	Mutable    bool
	Deprecated bool
	Help       string

	// get and set bind the option to the Options field the engine reads; set
	// receives a value checkValue has normalized. An option without them is
	// recorded-only: its value lives in Options.Extra.
	get func(*Options) string
	set func(*Options, string) error
}

// Honored reports whether the engine acts on the option. It is not declared
// but follows from the option having accessors onto an Options field (which
// TestHonoredFieldsAreRead requires engine code to read).
func (s OptionSpec) Honored() bool { return s.get != nil }

// bounded reports whether numeric bounds apply.
func (s OptionSpec) bounded() bool { return !(s.Min == 0 && s.Max == 0) }

// mutable marks a row as changeable on a running database: every consumer of
// such an option re-reads the current options snapshot, so a swap takes effect
// at the next decision point (flush sizing, compaction pick, stall check,
// cache insert, stats tick).
func (s OptionSpec) mutable() OptionSpec {
	s.Mutable = true
	return s
}

// spec and specB declare recorded-only options.
func spec(name, section string, t OptionType, def, help string) OptionSpec {
	return OptionSpec{Name: name, Section: section, Type: t, Default: def, Help: help}
}

func specB(name, section string, t OptionType, def string, min, max float64, help string) OptionSpec {
	return OptionSpec{Name: name, Section: section, Type: t, Default: def, Min: min, Max: max, Help: help}
}

// bind makes s an honored option: field picks the Options field the engine
// reads, which the string-keyed surface renders with format and assigns from
// parse (leaving it alone on error).
func bind[T any](s OptionSpec, field func(*Options) *T, format func(T) string, parse func(string) (T, error)) OptionSpec {
	s.get = func(o *Options) string { return format(*field(o)) }
	s.set = func(o *Options, v string) error {
		x, err := parse(v)
		if err == nil {
			*field(o) = x
		}
		return err
	}
	return s
}

func boolOpt(name, section, help string, field func(*Options) *bool) OptionSpec {
	return bind(OptionSpec{Name: name, Section: section, Type: TypeBool, Help: help},
		field, strconv.FormatBool, parseBool)
}

func intOpt[T int | int64](name, section string, min, max float64, help string, field func(*Options) *T) OptionSpec {
	return bind(OptionSpec{Name: name, Section: section, Type: TypeInt, Min: min, Max: max, Help: help}, field,
		func(n T) string { return strconv.FormatInt(int64(n), 10) },
		func(v string) (T, error) {
			n, err := strconv.ParseInt(v, 10, 64)
			return T(n), err
		})
}

func floatOpt(name, section string, min, max float64, help string, field func(*Options) *float64) OptionSpec {
	return bind(OptionSpec{Name: name, Section: section, Type: TypeFloat, Min: min, Max: max, Help: help}, field,
		func(f float64) string { return strconv.FormatFloat(f, 'f', 6, 64) },
		func(v string) (float64, error) { return strconv.ParseFloat(v, 64) })
}

func enumOpt[T fmt.Stringer](name, section string, enum []string, help string, parse func(string) (T, error), field func(*Options) *T) OptionSpec {
	return bind(OptionSpec{Name: name, Section: section, Type: TypeEnum, Enum: enum, Help: help},
		field, T.String, parse)
}

// optionSpecs is the option registry: one row per option, each declared
// exactly once, in OPTIONS-file order (testdata/options_*.ini pin the order).
var optionSpecs = []OptionSpec{
	// --- DBOptions ---
	boolOpt("create_if_missing", SectionDB, "create the DB directory when absent", func(o *Options) *bool { return &o.CreateIfMissing }),
	boolOpt("error_if_exists", SectionDB, "fail Open when the DB already exists", func(o *Options) *bool { return &o.ErrorIfExists }),
	boolOpt("paranoid_checks", SectionDB, "verify checksums aggressively", func(o *Options) *bool { return &o.ParanoidChecks }),
	intOpt("max_background_jobs", SectionDB, 1, 64, "total background flush+compaction slots", func(o *Options) *int { return &o.MaxBackgroundJobs }).mutable(),
	intOpt("max_background_compactions", SectionDB, -1, 64, "compaction slots (-1 derives from max_background_jobs)", func(o *Options) *int { return &o.MaxBackgroundCompactions }).mutable(),
	intOpt("max_background_flushes", SectionDB, -1, 64, "flush slots (-1 derives from max_background_jobs)", func(o *Options) *int { return &o.MaxBackgroundFlushes }).mutable(),
	intOpt("max_subcompactions", SectionDB, 1, 32, "parallel ranges per compaction", func(o *Options) *int { return &o.MaxSubcompactions }).mutable(),
	intOpt("bytes_per_sync", SectionDB, 0, 1<<40, "incrementally sync SST writes every N bytes (0 off)", func(o *Options) *int64 { return &o.BytesPerSync }).mutable(),
	intOpt("wal_bytes_per_sync", SectionDB, 0, 1<<40, "incrementally sync WAL every N bytes (0 off)", func(o *Options) *int64 { return &o.WALBytesPerSync }).mutable(),
	boolOpt("strict_bytes_per_sync", SectionDB, "block writes until pending sync completes", func(o *Options) *bool { return &o.StrictBytesPerSync }),
	intOpt("compaction_readahead_size", SectionDB, 0, 1<<32, "readahead for compaction input scans", func(o *Options) *int64 { return &o.CompactionReadaheadSize }).mutable(),
	boolOpt("enable_pipelined_write", SectionDB, "separate WAL and memtable write stages", func(o *Options) *bool { return &o.EnablePipelinedWrite }),
	spec("use_direct_reads", SectionDB, TypeBool, "false", "bypass OS page cache for user reads"),
	boolOpt("use_direct_io_for_flush_and_compaction", SectionDB, "O_DIRECT for background IO (no page-cache pollution)", func(o *Options) *bool { return &o.UseDirectIOForFlushAndCompaction }),
	intOpt("max_open_files", SectionDB, -1, 1<<20, "table-cache capacity (-1 unlimited)", func(o *Options) *int { return &o.MaxOpenFiles }),
	specB("table_cache_numshardbits", SectionDB, TypeInt, "6", 0, 19, "table cache shard bits"),
	intOpt("delayed_write_rate", SectionDB, 0, 1<<40, "write rate during slowdown (0 = 16MiB/s)", func(o *Options) *int64 { return &o.DelayedWriteRate }).mutable(),
	intOpt("rate_limiter_bytes_per_sec", SectionDB, 0, 1<<40, "background I/O rate limit (0 off)", func(o *Options) *int64 { return &o.RateLimiterBytesPerSec }).mutable(),
	intOpt("max_total_wal_size", SectionDB, 0, 1<<44, "force flush when WALs exceed this", func(o *Options) *int64 { return &o.MaxTotalWALSize }).mutable(),
	specB("db_write_buffer_size", SectionDB, TypeInt, "0", 0, 1<<44, "global memtable budget across CFs (0 off)"),
	spec("dump_malloc_stats", SectionDB, TypeBool, "false", "include allocator stats in LOG dumps").mutable(),
	intOpt("stats_dump_period_sec", SectionDB, 0, 1<<32, "period of stats dumps to LOG", func(o *Options) *int { return &o.StatsDumpPeriodSec }).mutable(),
	intOpt("stats_persist_period_sec", SectionDB, 0, 1<<32, "period of stats-history snapshots (0 off)", func(o *Options) *int { return &o.StatsPersistPeriodSec }).mutable(),
	intOpt("stats_history_buffer_size", SectionDB, 0, 1<<40, "memory bound for the stats history ring", func(o *Options) *int64 { return &o.StatsHistoryBufferSize }).mutable(),
	{Name: "perf_level", Section: SectionDB, Type: TypeEnum, Mutable: true,
		Enum: []string{"disable", "enable_count", "enable_time", "kDisable", "kEnableCount", "kEnableTime", "kEnableTimeExceptForMutex"},
		Help: "per-operation PerfContext/IOStatsContext collection level",
		get:  func(o *Options) string { return o.perfLevel().String() },
		set: func(o *Options, v string) error {
			l, err := ParsePerfLevel(v)
			if err == nil {
				o.PerfLevel = l.String()
			}
			return err
		}},
	spec("manual_wal_flush", SectionDB, TypeBool, "false", "only flush WAL on explicit request"),
	boolOpt("avoid_flush_during_shutdown", SectionDB, "skip final flush on Close", func(o *Options) *bool { return &o.AvoidFlushDuringShutdown }),
	spec("use_fsync", SectionDB, TypeBool, "false", "use fsync instead of fdatasync"),
	spec("wal_dir", SectionDB, TypeString, "", "directory for WAL files (empty = DB dir)"),

	spec("advise_random_on_open", SectionDB, TypeBool, "true", "fadvise random on file open"),
	boolOpt("allow_concurrent_memtable_write", SectionDB, "write-group followers insert into the memtable concurrently", func(o *Options) *bool { return &o.AllowConcurrentMemtableWrite }),
	spec("allow_fallocate", SectionDB, TypeBool, "true", "preallocate file space"),
	spec("allow_mmap_reads", SectionDB, TypeBool, "false", "mmap SST files for reads"),
	spec("allow_mmap_writes", SectionDB, TypeBool, "false", "mmap files for writes"),
	spec("atomic_flush", SectionDB, TypeBool, "false", "flush CFs atomically"),
	spec("avoid_flush_during_recovery", SectionDB, TypeBool, "false", "skip flush while recovering"),
	spec("avoid_unnecessary_blocking_io", SectionDB, TypeBool, "false", "defer blocking IO to background"),
	intOpt("bgerror_resume_retry_interval", SectionDB, 0, 1<<40, "microseconds between auto-resume retries", func(o *Options) *int64 { return &o.BgErrorResumeRetryInterval }),
	spec("best_efforts_recovery", SectionDB, TypeBool, "false", "recover as much data as possible"),
	specB("compaction_job_stats_dump_period_sec", SectionDB, TypeInt, "0", 0, 1<<32, "compaction stats dump period"),
	specB("delete_obsolete_files_period_micros", SectionDB, TypeInt, "21600000000", 0, 1<<50, "obsolete file GC period"),
	spec("enable_thread_tracking", SectionDB, TypeBool, "false", "track thread status"),
	boolOpt("enable_write_thread_adaptive_yield", SectionDB, "spin before blocking in write queue", func(o *Options) *bool { return &o.EnableWriteThreadAdaptiveYield }),
	spec("fail_if_options_file_error", SectionDB, TypeBool, "false", "fail Open on OPTIONS write error"),
	spec("flush_verify_memtable_count", SectionDB, TypeBool, "true", "verify memtable count at flush"),
	spec("is_fd_close_on_exec", SectionDB, TypeBool, "true", "set FD_CLOEXEC"),
	specB("keep_log_file_num", SectionDB, TypeInt, "1000", 1, 1<<32, "info LOG files retained"),
	specB("log_file_time_to_roll", SectionDB, TypeInt, "0", 0, 1<<40, "seconds before rolling LOG"),
	specB("log_readahead_size", SectionDB, TypeInt, "0", 0, 1<<32, "readahead when replaying logs"),
	spec("info_log_level", SectionDB, TypeEnum, "INFO_LEVEL", "LOG verbosity"),
	intOpt("max_bgerror_resume_count", SectionDB, 0, 1<<40, "auto-resume attempts after bg error", func(o *Options) *int { return &o.MaxBgErrorResumeCount }),
	specB("max_file_opening_threads", SectionDB, TypeInt, "16", 1, 512, "threads opening files at startup"),
	specB("max_log_file_size", SectionDB, TypeInt, "0", 0, 1<<40, "info LOG size before rolling"),
	specB("max_manifest_file_size", SectionDB, TypeInt, "1073741824", 1<<10, 1<<50, "MANIFEST rollover size"),
	boolOpt("paranoid_file_checks", SectionDB, "read back and verify every SST after writing it", func(o *Options) *bool { return &o.ParanoidFileChecks }).mutable(),
	spec("persist_stats_to_disk", SectionDB, TypeBool, "false", "persist statistics"),
	specB("random_access_max_buffer_size", SectionDB, TypeInt, "1048576", 0, 1<<32, "windows random buffer max"),
	specB("recycle_log_file_num", SectionDB, TypeInt, "0", 0, 1<<20, "reuse WAL files"),
	spec("skip_checking_sst_file_sizes_on_db_open", SectionDB, TypeBool, "false", "skip SST size checks at open"),
	spec("skip_stats_update_on_db_open", SectionDB, TypeBool, "false", "skip stats update at open"),
	spec("track_and_verify_wals_in_manifest", SectionDB, TypeBool, "false", "track WALs in MANIFEST"),
	spec("two_write_queues", SectionDB, TypeBool, "false", "separate WAL write queue"),
	spec("unordered_write", SectionDB, TypeBool, "false", "relax write ordering for throughput"),
	spec("use_adaptive_mutex", SectionDB, TypeBool, "false", "adaptive mutexes"),

	enumOpt("wal_recovery_mode", SectionDB, []string{"kTolerateCorruptedTailRecords", "kAbsoluteConsistency", "kPointInTimeRecovery",
		"tolerate_corrupted_tail_records", "absolute_consistency", "point_in_time"},
		"WAL recovery strictness", ParseWALRecoveryMode, func(o *Options) *WALRecoveryMode { return &o.WALRecoveryMode }),
	specB("wal_size_limit_mb", SectionDB, TypeInt, "0", 0, 1<<40, "archived WAL size limit"),
	specB("wal_ttl_seconds", SectionDB, TypeInt, "0", 0, 1<<40, "archived WAL TTL"),
	specB("writable_file_max_buffer_size", SectionDB, TypeInt, "1048576", 0, 1<<32, "write buffer for file appends"),
	spec("write_dbid_to_manifest", SectionDB, TypeBool, "false", "record DB id in MANIFEST"),
	intOpt("write_thread_max_yield_usec", SectionDB, 0, 1<<32, "microseconds a queued writer spins before blocking", func(o *Options) *int { return &o.WriteThreadMaxYieldUsec }),
	intOpt("write_thread_slow_yield_usec", SectionDB, 0, 1<<32, "yield slower than this signals core oversubscription", func(o *Options) *int { return &o.WriteThreadSlowYieldUsec }),
	spec("access_hint_on_compaction_start", SectionDB, TypeEnum, "NORMAL", "fadvise hint for compaction inputs"),

	// --- CFOptions ---
	intOpt("write_buffer_size", SectionCF, 1<<16, 1<<40, "memtable size before flush", func(o *Options) *int64 { return &o.WriteBufferSize }).mutable(),
	intOpt("max_write_buffer_number", SectionCF, 1, 64, "memtables held in memory", func(o *Options) *int { return &o.MaxWriteBufferNumber }).mutable(),
	intOpt("min_write_buffer_number_to_merge", SectionCF, 1, 64, "memtables merged per flush", func(o *Options) *int { return &o.MinWriteBufferNumberToMerge }).mutable(),
	intOpt("level0_file_num_compaction_trigger", SectionCF, 1, 256, "L0 files triggering compaction", func(o *Options) *int { return &o.Level0FileNumCompactionTrigger }).mutable(),
	intOpt("level0_slowdown_writes_trigger", SectionCF, 1, 1024, "L0 files triggering write slowdown", func(o *Options) *int { return &o.Level0SlowdownWritesTrigger }).mutable(),
	intOpt("level0_stop_writes_trigger", SectionCF, 1, 4096, "L0 files stopping writes", func(o *Options) *int { return &o.Level0StopWritesTrigger }).mutable(),
	intOpt("num_levels", SectionCF, 2, maxNumLevels, "LSM tree depth", func(o *Options) *int { return &o.NumLevels }),
	intOpt("target_file_size_base", SectionCF, 1<<16, 1<<40, "L1 SST file size", func(o *Options) *int64 { return &o.TargetFileSizeBase }).mutable(),
	intOpt("target_file_size_multiplier", SectionCF, 1, 100, "per-level file size growth", func(o *Options) *int { return &o.TargetFileSizeMultiplier }).mutable(),
	intOpt("max_bytes_for_level_base", SectionCF, 1<<20, 1<<44, "L1 capacity", func(o *Options) *int64 { return &o.MaxBytesForLevelBase }).mutable(),
	floatOpt("max_bytes_for_level_multiplier", SectionCF, 1.001, 1000, "per-level capacity growth", func(o *Options) *float64 { return &o.MaxBytesForLevelMultiplier }).mutable(),
	boolOpt("level_compaction_dynamic_level_bytes", SectionCF, "size levels from last level up", func(o *Options) *bool { return &o.LevelCompactionDynamicLevelBytes }).mutable(),
	enumOpt("compaction_style", SectionCF, []string{"level", "universal", "fifo", "kCompactionStyleLevel", "kCompactionStyleUniversal", "kCompactionStyleFIFO"},
		"compaction algorithm", ParseCompactionStyle, func(o *Options) *CompactionStyle { return &o.CompactionStyle }),
	enumOpt("compression", SectionCF, []string{"none", "no", "false", "disable", "snappy", "lz4", "zstd", "zlib", "kNoCompression", "kSnappyCompression", "kLZ4Compression", "kZSTD", "kZlibCompression"},
		"SST block compression: snappy and lz4 are one codec (a from-scratch snappy, no entropy stage), zstd and zlib are DEFLATE level 6", ParseCompression, func(o *Options) *Compression { return &o.Compression }).mutable(),
	intOpt("max_compaction_bytes", SectionCF, 1<<20, 1<<44, "max bytes in one compaction", func(o *Options) *int64 { return &o.MaxCompactionBytes }).mutable(),
	boolOpt("disable_auto_compactions", SectionCF, "disable background compaction", func(o *Options) *bool { return &o.DisableAutoCompactions }).mutable(),
	intOpt("soft_pending_compaction_bytes_limit", SectionCF, 0, 1<<50, "pending compaction bytes causing slowdown", func(o *Options) *int64 { return &o.SoftPendingCompactionBytesLimit }).mutable(),
	intOpt("hard_pending_compaction_bytes_limit", SectionCF, 0, 1<<50, "pending compaction bytes stopping writes", func(o *Options) *int64 { return &o.HardPendingCompactionBytesLimit }).mutable(),
	specB("memtable_prefix_bloom_size_ratio", SectionCF, TypeFloat, "0.000000", 0, 0.25, "memtable bloom size ratio"),
	spec("optimize_filters_for_hits", SectionCF, TypeBool, "false", "skip last-level filters"),

	specB("arena_block_size", SectionCF, TypeInt, "1048576", 0, 1<<32, "memtable arena block"),
	specB("bloom_locality", SectionCF, TypeInt, "0", 0, 1, "cache-local bloom probes"),
	spec("bottommost_compression", SectionCF, TypeEnum, "kDisableCompressionOption", "last level compression"),
	spec("compaction_pri", SectionCF, TypeEnum, "kMinOverlappingRatio", "compaction input priority"),
	specB("compression_opts_level", SectionCF, TypeInt, "32767", -1, 32767, "codec level"),
	spec("force_consistency_checks", SectionCF, TypeBool, "true", "verify LSM invariants"),
	specB("hard_rate_limit", SectionCF, TypeFloat, "0.000000", 0, 100, "deprecated write rate limit"),
	spec("inplace_update_support", SectionCF, TypeBool, "false", "update values in place"),
	specB("inplace_update_num_locks", SectionCF, TypeInt, "10000", 0, 1<<32, "locks for inplace updates"),
	specB("max_sequential_skip_in_iterations", SectionCF, TypeInt, "8", 0, 1<<32, "iterator reseek threshold"),
	specB("max_successive_merges", SectionCF, TypeInt, "0", 0, 1<<32, "merge operands folded at write"),
	specB("max_write_buffer_size_to_maintain", SectionCF, TypeInt, "0", 0, 1<<44, "history memtable budget"),
	specB("memtable_huge_page_size", SectionCF, TypeInt, "0", 0, 1<<40, "memtable hugepage size"),
	spec("memtable_whole_key_filtering", SectionCF, TypeBool, "false", "whole-key memtable bloom"),
	specB("min_partial_merge_operands", SectionCF, TypeInt, "2", 0, 1<<20, "deprecated merge threshold"),
	spec("merge_operator", SectionCF, TypeString, "nullptr", "merge operator name"),
	spec("prefix_extractor", SectionCF, TypeString, "nullptr", "prefix extractor for prefix seeks"),
	specB("periodic_compaction_seconds", SectionCF, TypeInt, "0", 0, 1<<40, "age-triggered compaction"),
	boolOpt("report_bg_io_stats", SectionCF, "measure flush/compaction read/write/fsync time per level", func(o *Options) *bool { return &o.ReportBgIOStats }).mutable(),
	specB("soft_rate_limit", SectionCF, TypeFloat, "0.000000", 0, 100, "deprecated soft rate limit"),
	specB("ttl", SectionCF, TypeInt, "2592000", 0, 1<<40, "data TTL seconds"),
	spec("enable_blob_files", SectionCF, TypeBool, "false", "separate large values into blobs"),
	specB("min_blob_size", SectionCF, TypeInt, "0", 0, 1<<40, "value size for blob separation"),
	specB("blob_file_size", SectionCF, TypeInt, "268435456", 0, 1<<44, "blob file size"),
	spec("blob_compression_type", SectionCF, TypeEnum, "kNoCompression", "blob compression"),
	specB("sample_for_compression", SectionCF, TypeInt, "0", 0, 1<<32, "compression sampling rate"),
	spec("disable_write_stall", SectionCF, TypeBool, "false", "ignore stall conditions (dangerous)"),

	// Deprecated options the paper notes LLMs fixate on (e.g. "Flush Job
	// Count"): kept so suggestions against them parse and get flagged.
	{Name: "max_mem_compaction_level", Section: SectionCF, Type: TypeInt, Default: "0", Deprecated: true, Help: "deprecated: push L0 output level"},
	{Name: "purge_redundant_kvs_while_flush", Section: SectionCF, Type: TypeBool, Default: "true", Deprecated: true, Help: "deprecated flush dedup"},
	{Name: "rate_limit_delay_max_milliseconds", Section: SectionCF, Type: TypeInt, Default: "100", Deprecated: true, Help: "deprecated rate limit delay"},
	{Name: "skip_log_error_on_recovery", Section: SectionDB, Type: TypeBool, Default: "false", Deprecated: true, Help: "deprecated recovery flag"},
	{Name: "db_stats_log_interval", Section: SectionDB, Type: TypeInt, Default: "1800", Deprecated: true, Help: "deprecated stats logging"},

	// --- TableOptions/BlockBasedTable ---
	intOpt("block_size", SectionTable, 256, 16<<20, "uncompressed data block size", func(o *Options) *int { return &o.BlockSize }),
	intOpt("block_restart_interval", SectionTable, 1, 256, "keys between restart points", func(o *Options) *int { return &o.BlockRestartInterval }),
	intOpt("block_cache", SectionTable, 0, 1<<44, "block cache bytes", func(o *Options) *int64 { return &o.BlockCacheSize }).mutable(),
	spec("cache_index_and_filter_blocks", SectionTable, TypeBool, "false", "index/filter through block cache"),
	bind(OptionSpec{Name: "filter_policy", Section: SectionTable, Type: TypeString, Help: "bloomfilter:<bits>:<block_based>"},
		func(o *Options) *int { return &o.BloomBitsPerKey }, formatFilterPolicy, parseFilterPolicy),
	spec("whole_key_filtering", SectionTable, TypeBool, "true", "bloom over whole keys"),
	boolOpt("no_block_cache", SectionTable, "disable the block cache", func(o *Options) *bool { return &o.NoBlockCache }),

	spec("block_align", SectionTable, TypeBool, "false", "align blocks to pages"),
	specB("block_size_deviation", SectionTable, TypeInt, "10", 0, 100, "block size tolerance pct"),
	spec("checksum", SectionTable, TypeEnum, "kCRC32c", "block checksum kind"),
	spec("data_block_index_type", SectionTable, TypeEnum, "kDataBlockBinarySearch", "in-block index"),
	specB("data_block_hash_table_util_ratio", SectionTable, TypeFloat, "0.750000", 0, 1, "hash index load factor"),
	spec("enable_index_compression", SectionTable, TypeBool, "true", "compress index blocks"),
	specB("format_version", SectionTable, TypeInt, "5", 0, 6, "table format version"),
	spec("index_type", SectionTable, TypeEnum, "kBinarySearch", "index structure"),
	specB("index_block_restart_interval", SectionTable, TypeInt, "1", 1, 256, "index restart interval"),
	specB("metadata_block_size", SectionTable, TypeInt, "4096", 256, 1<<24, "partitioned meta block size"),
	spec("partition_filters", SectionTable, TypeBool, "false", "partition filter blocks"),
	spec("pin_l0_filter_and_index_blocks_in_cache", SectionTable, TypeBool, "false", "pin L0 meta blocks"),
	spec("pin_top_level_index_and_filter", SectionTable, TypeBool, "true", "pin top-level meta"),
	specB("read_amp_bytes_per_bit", SectionTable, TypeInt, "0", 0, 32, "read-amp bitmap granularity"),
	spec("use_delta_encoding", SectionTable, TypeBool, "true", "delta-encode keys"),
	spec("verify_compression", SectionTable, TypeBool, "false", "verify after compression"),
	spec("cache_index_and_filter_blocks_with_high_priority", SectionTable, TypeBool, "true", "meta blocks high priority"),
}

// optionAliases maps accepted alternate names to canonical registry names.
// The filter_policy aliases take bare bit counts, which parseFilterPolicy
// accepts.
var optionAliases = map[string]string{
	"bloom_bits_per_key":        "filter_policy",
	"bloom_filter_bits_per_key": "filter_policy",
	"block_cache_size":          "block_cache",
	"max_background_jobs_total": "max_background_jobs",
}

// specIndex resolves canonical names to rows, and fills every honored row's
// Default from DefaultOptions through the row's own getter.
var specIndex = func() map[string]*OptionSpec {
	def := DefaultOptions()
	m := make(map[string]*OptionSpec, len(optionSpecs))
	for i := range optionSpecs {
		s := &optionSpecs[i]
		if s.get != nil {
			s.Default = s.get(def)
		}
		m[s.Name] = s
	}
	return m
}()

// lookupSpec resolves an option name (or alias) to its registry row.
func lookupSpec(name string) (*OptionSpec, error) {
	if canonical, ok := optionAliases[name]; ok {
		name = canonical
	}
	s, ok := specIndex[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownOption, name)
	}
	return s, nil
}

// LookupOption resolves an option name (or alias) to its spec.
func LookupOption(name string) (OptionSpec, bool) {
	s, err := lookupSpec(name)
	if err != nil {
		return OptionSpec{}, false
	}
	return *s, true
}

// AllOptionSpecs returns the registry in OPTIONS-file order.
func AllOptionSpecs() []OptionSpec {
	out := make([]OptionSpec, len(optionSpecs))
	copy(out, optionSpecs)
	return out
}

// optionNames returns the sorted names of the rows keep selects.
func optionNames(keep func(*OptionSpec) bool) []string {
	var out []string
	for i := range optionSpecs {
		if keep(&optionSpecs[i]) {
			out = append(out, optionSpecs[i].Name)
		}
	}
	sort.Strings(out)
	return out
}

// HonoredOptionNames returns the honored option names, sorted.
func HonoredOptionNames() []string {
	return optionNames(func(s *OptionSpec) bool { return s.Honored() })
}

// MutableOptionNames returns the names of the dynamically-changeable
// options, sorted.
func MutableOptionNames() []string {
	return optionNames(func(s *OptionSpec) bool { return s.Mutable })
}

// IsMutableOption reports whether the named option (or alias) may be changed
// on a running database via SetOptions. Unknown names are not
// mutable.
func IsMutableOption(name string) bool {
	s, err := lookupSpec(name)
	return err == nil && s.Mutable
}

func parseBool(v string) (bool, error) {
	switch v {
	case "true", "1", "True", "TRUE":
		return true, nil
	case "false", "0", "False", "FALSE":
		return false, nil
	default:
		return false, fmt.Errorf("lsm: bad bool %q", v)
	}
}

// checkValue validates v against the spec's type, bounds and enum. It
// returns a normalized value.
func checkValue(s *OptionSpec, v string) (string, error) {
	switch s.Type {
	case TypeBool:
		b, err := parseBool(v)
		if err != nil {
			return "", fmt.Errorf("option %s: %v", s.Name, err)
		}
		return strconv.FormatBool(b), nil
	case TypeInt:
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return "", fmt.Errorf("option %s: bad integer %q", s.Name, v)
		}
		if s.bounded() && (float64(n) < s.Min || float64(n) > s.Max) {
			return "", fmt.Errorf("option %s: value %d out of range [%v, %v]", s.Name, n, s.Min, s.Max)
		}
		return strconv.FormatInt(n, 10), nil
	case TypeFloat:
		f, err := strconv.ParseFloat(v, 64)
		// NaN compares false against any bound, so it must be named.
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return "", fmt.Errorf("option %s: bad number %q", s.Name, v)
		}
		if s.bounded() && (f < s.Min || f > s.Max) {
			return "", fmt.Errorf("option %s: value %v out of range [%v, %v]", s.Name, f, s.Min, s.Max)
		}
		return v, nil
	case TypeEnum:
		if len(s.Enum) == 0 {
			return v, nil // enum set unrestricted for recorded options
		}
		for _, e := range s.Enum {
			if e == v {
				return v, nil
			}
		}
		return "", fmt.Errorf("option %s: invalid value %q (want one of %v)", s.Name, v, s.Enum)
	default:
		return v, nil
	}
}

// ErrUnknownOption is returned (wrapped) by SetByName for names outside the
// registry — the hallucination signal the Safeguard Enforcer keys on.
var ErrUnknownOption = fmt.Errorf("unknown option")

// ErrImmutableOption is returned (wrapped) by SetOptions when a
// change targets an option the registry does not mark Mutable — such knobs
// only take effect through a close+reopen cycle.
var ErrImmutableOption = fmt.Errorf("option is immutable at runtime")

// SetByName assigns a string-keyed option onto the typed Options, validating
// syntax and bounds. Unknown names return an error wrapping
// ErrUnknownOption. Recorded-only options land in Extra.
func (o *Options) SetByName(name, value string) error {
	s, err := lookupSpec(name)
	if err != nil {
		return err
	}
	norm, err := checkValue(s, value)
	if err != nil {
		return err
	}
	if s.set != nil {
		return s.set(o, norm)
	}
	if o.Extra == nil {
		o.Extra = make(map[string]string)
	}
	o.Extra[s.Name] = norm
	return nil
}

// parseFilterPolicy accepts "nullptr", "bloomfilter:<bits>:<block_based>",
// or a bare integer bit count.
func parseFilterPolicy(v string) (int, error) {
	if v == "nullptr" || v == "" || v == "none" {
		return 0, nil
	}
	var bits int
	var blockBased string
	if _, err := fmt.Sscanf(v, "bloomfilter:%d:%s", &bits, &blockBased); err == nil {
		if bits < 0 || bits > 64 {
			return 0, fmt.Errorf("lsm: filter_policy bits %d out of range [0,64]", bits)
		}
		return bits, nil
	}
	if n, err := strconv.Atoi(v); err == nil && n >= 0 && n <= 64 {
		return n, nil
	}
	return 0, fmt.Errorf("lsm: bad filter_policy %q", v)
}

// formatFilterPolicy renders a bloom bit count the way parseFilterPolicy
// reads it.
func formatFilterPolicy(bits int) string {
	if bits <= 0 {
		return "nullptr"
	}
	return fmt.Sprintf("bloomfilter:%d:false", bits)
}

// GetByName returns the current value of a named option as a string.
func (o *Options) GetByName(name string) (string, error) {
	s, err := lookupSpec(name)
	if err != nil {
		return "", err
	}
	return s.value(o), nil
}

// value renders the option's current value in o.
func (s *OptionSpec) value(o *Options) string {
	if s.get != nil {
		return s.get(o)
	}
	if v, ok := o.Extra[s.Name]; ok {
		return v
	}
	return s.Default
}
