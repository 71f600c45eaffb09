package lsm

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/ini"
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

// OptionSpec describes one named option: its syntax, bounds, and whether the
// engine honors it mechanically (Honored) or merely records it (the long
// tail RocksDB exposes — still valid to set, visible in OPTIONS files, and
// therefore tunable surface for the LLM). Mutable marks the dynamic subset
// that DB.SetOptions/SetDBOptions may change on a running database without a
// reopen (RocksDB's dynamically-changeable options); everything else is
// fixed at Open.
type OptionSpec struct {
	Name       string
	Section    string
	Type       OptionType
	Default    string
	Min, Max   float64 // numeric bounds; both zero = unbounded
	Enum       []string
	Honored    bool
	Mutable    bool
	Deprecated bool
	Help       string
}

// bounded reports whether numeric bounds apply.
func (s OptionSpec) bounded() bool { return !(s.Min == 0 && s.Max == 0) }

func spec(name, section string, t OptionType, def string, honored bool, help string) OptionSpec {
	return OptionSpec{Name: name, Section: section, Type: t, Default: def, Honored: honored, Help: help}
}

func specB(name, section string, t OptionType, def string, min, max float64, honored bool, help string) OptionSpec {
	return OptionSpec{Name: name, Section: section, Type: t, Default: def, Min: min, Max: max, Honored: honored, Help: help}
}

// optionSpecs is the full option registry, in OPTIONS-file order.
var optionSpecs = []OptionSpec{
	// --- DBOptions: honored ---
	spec("create_if_missing", SectionDB, TypeBool, "true", true, "create the DB directory when absent"),
	spec("error_if_exists", SectionDB, TypeBool, "false", true, "fail Open when the DB already exists"),
	spec("paranoid_checks", SectionDB, TypeBool, "false", true, "verify checksums aggressively"),
	specB("max_background_jobs", SectionDB, TypeInt, "2", 1, 64, true, "total background flush+compaction slots"),
	specB("max_background_compactions", SectionDB, TypeInt, "-1", -1, 64, true, "compaction slots (-1 derives from max_background_jobs)"),
	specB("max_background_flushes", SectionDB, TypeInt, "-1", -1, 64, true, "flush slots (-1 derives from max_background_jobs)"),
	specB("max_subcompactions", SectionDB, TypeInt, "1", 1, 32, true, "parallel ranges per compaction"),
	specB("bytes_per_sync", SectionDB, TypeInt, "0", 0, 1<<40, true, "incrementally sync SST writes every N bytes (0 off)"),
	specB("wal_bytes_per_sync", SectionDB, TypeInt, "0", 0, 1<<40, true, "incrementally sync WAL every N bytes (0 off)"),
	spec("strict_bytes_per_sync", SectionDB, TypeBool, "false", true, "block writes until pending sync completes"),
	specB("compaction_readahead_size", SectionDB, TypeInt, "2097152", 0, 1<<32, true, "readahead for compaction input scans"),
	spec("enable_pipelined_write", SectionDB, TypeBool, "false", true, "separate WAL and memtable write stages"),
	spec("use_direct_reads", SectionDB, TypeBool, "false", true, "bypass OS page cache for user reads"),
	spec("use_direct_io_for_flush_and_compaction", SectionDB, TypeBool, "false", true, "O_DIRECT for background IO (no page-cache pollution)"),
	specB("max_open_files", SectionDB, TypeInt, "-1", -1, 1<<20, true, "table-cache capacity (-1 unlimited)"),
	specB("table_cache_numshardbits", SectionDB, TypeInt, "6", 0, 19, true, "table cache shard bits"),
	specB("delayed_write_rate", SectionDB, TypeInt, "0", 0, 1<<40, true, "write rate during slowdown (0 = 16MiB/s)"),
	specB("rate_limiter_bytes_per_sec", SectionDB, TypeInt, "0", 0, 1<<40, true, "background I/O rate limit (0 off)"),
	specB("max_total_wal_size", SectionDB, TypeInt, "0", 0, 1<<44, true, "force flush when WALs exceed this"),
	specB("db_write_buffer_size", SectionDB, TypeInt, "0", 0, 1<<44, true, "global memtable budget across CFs (0 off)"),
	spec("dump_malloc_stats", SectionDB, TypeBool, "false", true, "include allocator stats in LOG dumps"),
	specB("stats_dump_period_sec", SectionDB, TypeInt, "600", 0, 1<<32, true, "period of stats dumps to LOG"),
	specB("stats_persist_period_sec", SectionDB, TypeInt, "600", 0, 1<<32, true, "period of stats-history snapshots (0 off)"),
	specB("stats_history_buffer_size", SectionDB, TypeInt, "1048576", 0, 1<<40, true, "memory bound for the stats history ring"),
	{Name: "perf_level", Section: SectionDB, Type: TypeEnum, Default: "disable",
		Enum:    []string{"disable", "enable_count", "enable_time", "kDisable", "kEnableCount", "kEnableTime", "kEnableTimeExceptForMutex"},
		Honored: true, Help: "per-operation PerfContext/IOStatsContext collection level"},
	spec("manual_wal_flush", SectionDB, TypeBool, "false", true, "only flush WAL on explicit request"),
	spec("avoid_flush_during_shutdown", SectionDB, TypeBool, "false", true, "skip final flush on Close"),
	spec("use_fsync", SectionDB, TypeBool, "false", true, "use fsync instead of fdatasync"),
	spec("wal_dir", SectionDB, TypeString, "", true, "directory for WAL files (empty = DB dir)"),

	// --- DBOptions: recorded (inert mechanically, valid surface) ---
	spec("advise_random_on_open", SectionDB, TypeBool, "true", false, "fadvise random on file open"),
	spec("allow_concurrent_memtable_write", SectionDB, TypeBool, "true", true, "write-group followers insert into the memtable concurrently"),
	spec("allow_fallocate", SectionDB, TypeBool, "true", false, "preallocate file space"),
	spec("allow_mmap_reads", SectionDB, TypeBool, "false", false, "mmap SST files for reads"),
	spec("allow_mmap_writes", SectionDB, TypeBool, "false", false, "mmap files for writes"),
	spec("atomic_flush", SectionDB, TypeBool, "false", false, "flush CFs atomically"),
	spec("avoid_flush_during_recovery", SectionDB, TypeBool, "false", false, "skip flush while recovering"),
	spec("avoid_unnecessary_blocking_io", SectionDB, TypeBool, "false", false, "defer blocking IO to background"),
	specB("bgerror_resume_retry_interval", SectionDB, TypeInt, "1000000", 0, 1<<40, true, "microseconds between auto-resume retries"),
	spec("best_efforts_recovery", SectionDB, TypeBool, "false", false, "recover as much data as possible"),
	specB("compaction_job_stats_dump_period_sec", SectionDB, TypeInt, "0", 0, 1<<32, false, "compaction stats dump period"),
	specB("delete_obsolete_files_period_micros", SectionDB, TypeInt, "21600000000", 0, 1<<50, false, "obsolete file GC period"),
	spec("enable_thread_tracking", SectionDB, TypeBool, "false", false, "track thread status"),
	spec("enable_write_thread_adaptive_yield", SectionDB, TypeBool, "true", true, "spin before blocking in write queue"),
	spec("fail_if_options_file_error", SectionDB, TypeBool, "false", false, "fail Open on OPTIONS write error"),
	spec("flush_verify_memtable_count", SectionDB, TypeBool, "true", false, "verify memtable count at flush"),
	spec("is_fd_close_on_exec", SectionDB, TypeBool, "true", false, "set FD_CLOEXEC"),
	specB("keep_log_file_num", SectionDB, TypeInt, "1000", 1, 1<<32, false, "info LOG files retained"),
	specB("log_file_time_to_roll", SectionDB, TypeInt, "0", 0, 1<<40, false, "seconds before rolling LOG"),
	specB("log_readahead_size", SectionDB, TypeInt, "0", 0, 1<<32, false, "readahead when replaying logs"),
	spec("info_log_level", SectionDB, TypeEnum, "INFO_LEVEL", false, "LOG verbosity"),
	specB("max_bgerror_resume_count", SectionDB, TypeInt, "2147483647", 0, 1<<40, true, "auto-resume attempts after bg error"),
	specB("max_file_opening_threads", SectionDB, TypeInt, "16", 1, 512, false, "threads opening files at startup"),
	specB("max_log_file_size", SectionDB, TypeInt, "0", 0, 1<<40, false, "info LOG size before rolling"),
	specB("max_manifest_file_size", SectionDB, TypeInt, "1073741824", 1<<10, 1<<50, false, "MANIFEST rollover size"),
	spec("paranoid_file_checks", SectionDB, TypeBool, "false", true, "read back and verify every SST after writing it"),
	spec("persist_stats_to_disk", SectionDB, TypeBool, "false", false, "persist statistics"),
	specB("random_access_max_buffer_size", SectionDB, TypeInt, "1048576", 0, 1<<32, false, "windows random buffer max"),
	specB("recycle_log_file_num", SectionDB, TypeInt, "0", 0, 1<<20, false, "reuse WAL files"),
	spec("skip_checking_sst_file_sizes_on_db_open", SectionDB, TypeBool, "false", false, "skip SST size checks at open"),
	spec("skip_stats_update_on_db_open", SectionDB, TypeBool, "false", false, "skip stats update at open"),
	spec("track_and_verify_wals_in_manifest", SectionDB, TypeBool, "false", false, "track WALs in MANIFEST"),
	spec("two_write_queues", SectionDB, TypeBool, "false", false, "separate WAL write queue"),
	spec("unordered_write", SectionDB, TypeBool, "false", false, "relax write ordering for throughput"),
	spec("use_adaptive_mutex", SectionDB, TypeBool, "false", false, "adaptive mutexes"),

	{Name: "wal_recovery_mode", Section: SectionDB, Type: TypeEnum, Default: "kTolerateCorruptedTailRecords",
		Enum: []string{"kTolerateCorruptedTailRecords", "kAbsoluteConsistency", "kPointInTimeRecovery",
			"tolerate_corrupted_tail_records", "absolute_consistency", "point_in_time"},
		Honored: true, Help: "WAL recovery strictness"},
	specB("wal_size_limit_mb", SectionDB, TypeInt, "0", 0, 1<<40, false, "archived WAL size limit"),
	specB("wal_ttl_seconds", SectionDB, TypeInt, "0", 0, 1<<40, false, "archived WAL TTL"),
	specB("writable_file_max_buffer_size", SectionDB, TypeInt, "1048576", 0, 1<<32, false, "write buffer for file appends"),
	spec("write_dbid_to_manifest", SectionDB, TypeBool, "false", false, "record DB id in MANIFEST"),
	specB("write_thread_max_yield_usec", SectionDB, TypeInt, "100", 0, 1<<32, true, "microseconds a queued writer spins before blocking"),
	specB("write_thread_slow_yield_usec", SectionDB, TypeInt, "3", 0, 1<<32, true, "yield slower than this signals core oversubscription"),
	spec("access_hint_on_compaction_start", SectionDB, TypeEnum, "NORMAL", false, "fadvise hint for compaction inputs"),

	// --- CFOptions: honored ---
	specB("write_buffer_size", SectionCF, TypeInt, "67108864", 1<<16, 1<<40, true, "memtable size before flush"),
	specB("max_write_buffer_number", SectionCF, TypeInt, "2", 1, 64, true, "memtables held in memory"),
	specB("min_write_buffer_number_to_merge", SectionCF, TypeInt, "1", 1, 64, true, "memtables merged per flush"),
	specB("level0_file_num_compaction_trigger", SectionCF, TypeInt, "4", 1, 256, true, "L0 files triggering compaction"),
	specB("level0_slowdown_writes_trigger", SectionCF, TypeInt, "20", 1, 1024, true, "L0 files triggering write slowdown"),
	specB("level0_stop_writes_trigger", SectionCF, TypeInt, "36", 1, 4096, true, "L0 files stopping writes"),
	specB("num_levels", SectionCF, TypeInt, "7", 2, 12, true, "LSM tree depth"),
	specB("target_file_size_base", SectionCF, TypeInt, "67108864", 1<<16, 1<<40, true, "L1 SST file size"),
	specB("target_file_size_multiplier", SectionCF, TypeInt, "1", 1, 100, true, "per-level file size growth"),
	specB("max_bytes_for_level_base", SectionCF, TypeInt, "268435456", 1<<20, 1<<44, true, "L1 capacity"),
	specB("max_bytes_for_level_multiplier", SectionCF, TypeFloat, "10.000000", 1.001, 1000, true, "per-level capacity growth"),
	spec("level_compaction_dynamic_level_bytes", SectionCF, TypeBool, "false", true, "size levels from last level up"),
	{Name: "compaction_style", Section: SectionCF, Type: TypeEnum, Default: "level",
		Enum:    []string{"level", "universal", "fifo", "kCompactionStyleLevel", "kCompactionStyleUniversal", "kCompactionStyleFIFO"},
		Honored: true, Help: "compaction algorithm"},
	{Name: "compression", Section: SectionCF, Type: TypeEnum, Default: "none",
		Enum:    []string{"none", "no", "false", "disable", "snappy", "lz4", "zstd", "zlib", "kNoCompression", "kSnappyCompression", "kLZ4Compression", "kZSTD", "kZlibCompression"},
		Honored: true, Help: "SST block compression"},
	specB("max_compaction_bytes", SectionCF, TypeInt, "1677721600", 1<<20, 1<<44, true, "max bytes in one compaction"),
	spec("disable_auto_compactions", SectionCF, TypeBool, "false", true, "disable background compaction"),
	specB("soft_pending_compaction_bytes_limit", SectionCF, TypeInt, "68719476736", 0, 1<<50, true, "pending compaction bytes causing slowdown"),
	specB("hard_pending_compaction_bytes_limit", SectionCF, TypeInt, "274877906944", 0, 1<<50, true, "pending compaction bytes stopping writes"),
	specB("memtable_prefix_bloom_size_ratio", SectionCF, TypeFloat, "0.000000", 0, 0.25, true, "memtable bloom size ratio"),
	spec("optimize_filters_for_hits", SectionCF, TypeBool, "false", true, "skip last-level filters"),

	// --- CFOptions: recorded ---
	specB("arena_block_size", SectionCF, TypeInt, "1048576", 0, 1<<32, false, "memtable arena block"),
	specB("bloom_locality", SectionCF, TypeInt, "0", 0, 1, false, "cache-local bloom probes"),
	spec("bottommost_compression", SectionCF, TypeEnum, "kDisableCompressionOption", false, "last level compression"),
	spec("compaction_pri", SectionCF, TypeEnum, "kMinOverlappingRatio", false, "compaction input priority"),
	specB("compression_opts_level", SectionCF, TypeInt, "32767", -1, 32767, false, "codec level"),
	spec("force_consistency_checks", SectionCF, TypeBool, "true", false, "verify LSM invariants"),
	specB("hard_rate_limit", SectionCF, TypeFloat, "0.000000", 0, 100, false, "deprecated write rate limit"),
	spec("inplace_update_support", SectionCF, TypeBool, "false", false, "update values in place"),
	specB("inplace_update_num_locks", SectionCF, TypeInt, "10000", 0, 1<<32, false, "locks for inplace updates"),
	specB("max_sequential_skip_in_iterations", SectionCF, TypeInt, "8", 0, 1<<32, false, "iterator reseek threshold"),
	specB("max_successive_merges", SectionCF, TypeInt, "0", 0, 1<<32, false, "merge operands folded at write"),
	specB("max_write_buffer_size_to_maintain", SectionCF, TypeInt, "0", 0, 1<<44, false, "history memtable budget"),
	specB("memtable_huge_page_size", SectionCF, TypeInt, "0", 0, 1<<40, false, "memtable hugepage size"),
	spec("memtable_whole_key_filtering", SectionCF, TypeBool, "false", false, "whole-key memtable bloom"),
	specB("min_partial_merge_operands", SectionCF, TypeInt, "2", 0, 1<<20, false, "deprecated merge threshold"),
	spec("merge_operator", SectionCF, TypeString, "nullptr", false, "merge operator name"),
	spec("prefix_extractor", SectionCF, TypeString, "nullptr", false, "prefix extractor for prefix seeks"),
	specB("periodic_compaction_seconds", SectionCF, TypeInt, "0", 0, 1<<40, false, "age-triggered compaction"),
	spec("report_bg_io_stats", SectionCF, TypeBool, "false", true, "measure flush/compaction read/write/fsync time per level"),
	specB("soft_rate_limit", SectionCF, TypeFloat, "0.000000", 0, 100, false, "deprecated soft rate limit"),
	specB("ttl", SectionCF, TypeInt, "2592000", 0, 1<<40, false, "data TTL seconds"),
	spec("enable_blob_files", SectionCF, TypeBool, "false", false, "separate large values into blobs"),
	specB("min_blob_size", SectionCF, TypeInt, "0", 0, 1<<40, false, "value size for blob separation"),
	specB("blob_file_size", SectionCF, TypeInt, "268435456", 0, 1<<44, false, "blob file size"),
	spec("blob_compression_type", SectionCF, TypeEnum, "kNoCompression", false, "blob compression"),
	specB("sample_for_compression", SectionCF, TypeInt, "0", 0, 1<<32, false, "compression sampling rate"),
	spec("disable_write_stall", SectionCF, TypeBool, "false", false, "ignore stall conditions (dangerous)"),

	// Deprecated options the paper notes LLMs fixate on (e.g. "Flush Job
	// Count"): kept so suggestions against them parse and get flagged.
	{Name: "max_mem_compaction_level", Section: SectionCF, Type: TypeInt, Default: "0", Honored: false, Deprecated: true, Help: "deprecated: push L0 output level"},
	{Name: "purge_redundant_kvs_while_flush", Section: SectionCF, Type: TypeBool, Default: "true", Honored: false, Deprecated: true, Help: "deprecated flush dedup"},
	{Name: "rate_limit_delay_max_milliseconds", Section: SectionCF, Type: TypeInt, Default: "100", Honored: false, Deprecated: true, Help: "deprecated rate limit delay"},
	{Name: "skip_log_error_on_recovery", Section: SectionDB, Type: TypeBool, Default: "false", Honored: false, Deprecated: true, Help: "deprecated recovery flag"},
	{Name: "db_stats_log_interval", Section: SectionDB, Type: TypeInt, Default: "1800", Honored: false, Deprecated: true, Help: "deprecated stats logging"},

	// --- TableOptions/BlockBasedTable: honored ---
	specB("block_size", SectionTable, TypeInt, "4096", 256, 16<<20, true, "uncompressed data block size"),
	specB("block_restart_interval", SectionTable, TypeInt, "16", 1, 256, true, "keys between restart points"),
	specB("block_cache", SectionTable, TypeInt, "33554432", 0, 1<<44, true, "block cache bytes"),
	spec("cache_index_and_filter_blocks", SectionTable, TypeBool, "false", true, "index/filter through block cache"),
	spec("filter_policy", SectionTable, TypeString, "nullptr", true, "bloomfilter:<bits>:<block_based>"),
	spec("whole_key_filtering", SectionTable, TypeBool, "true", true, "bloom over whole keys"),
	spec("no_block_cache", SectionTable, TypeBool, "false", true, "disable the block cache"),

	// --- TableOptions: recorded ---
	spec("block_align", SectionTable, TypeBool, "false", false, "align blocks to pages"),
	specB("block_size_deviation", SectionTable, TypeInt, "10", 0, 100, false, "block size tolerance pct"),
	spec("checksum", SectionTable, TypeEnum, "kCRC32c", false, "block checksum kind"),
	spec("data_block_index_type", SectionTable, TypeEnum, "kDataBlockBinarySearch", false, "in-block index"),
	specB("data_block_hash_table_util_ratio", SectionTable, TypeFloat, "0.750000", 0, 1, false, "hash index load factor"),
	spec("enable_index_compression", SectionTable, TypeBool, "true", false, "compress index blocks"),
	specB("format_version", SectionTable, TypeInt, "5", 0, 6, false, "table format version"),
	spec("index_type", SectionTable, TypeEnum, "kBinarySearch", false, "index structure"),
	specB("index_block_restart_interval", SectionTable, TypeInt, "1", 1, 256, false, "index restart interval"),
	specB("metadata_block_size", SectionTable, TypeInt, "4096", 256, 1<<24, false, "partitioned meta block size"),
	spec("partition_filters", SectionTable, TypeBool, "false", false, "partition filter blocks"),
	spec("pin_l0_filter_and_index_blocks_in_cache", SectionTable, TypeBool, "false", false, "pin L0 meta blocks"),
	spec("pin_top_level_index_and_filter", SectionTable, TypeBool, "true", false, "pin top-level meta"),
	specB("read_amp_bytes_per_bit", SectionTable, TypeInt, "0", 0, 32, false, "read-amp bitmap granularity"),
	spec("use_delta_encoding", SectionTable, TypeBool, "true", false, "delta-encode keys"),
	spec("verify_compression", SectionTable, TypeBool, "false", false, "verify after compression"),
	specB("cache_index_and_filter_blocks_with_high_priority", SectionTable, TypeBool, "true", 0, 0, false, "meta blocks high priority"),
}

// optionAliases maps accepted alternate names to canonical registry names.
var optionAliases = map[string]string{
	"bloom_bits_per_key":        "filter_policy",
	"bloom_filter_bits_per_key": "filter_policy",
	"block_cache_size":          "block_cache",
	"max_background_jobs_total": "max_background_jobs",
}

// mutableOptionNames is the dynamic subset: options DB.SetOptions /
// DB.SetDBOptions may change on a running database without a reopen. It
// mirrors RocksDB's dynamically-changeable set restricted to knobs this
// engine honors mechanically — every consumer of these re-reads the current
// options snapshot, so a swap takes effect at the next decision point
// (flush sizing, compaction pick, stall check, cache insert, stats tick).
var mutableOptionNames = map[string]bool{
	// DBOptions (SetDBOptions scope).
	"max_background_jobs":        true,
	"max_background_compactions": true,
	"max_background_flushes":     true,
	"max_subcompactions":         true,
	"bytes_per_sync":             true,
	"wal_bytes_per_sync":         true,
	"compaction_readahead_size":  true,
	"delayed_write_rate":         true,
	"rate_limiter_bytes_per_sec": true,
	"max_total_wal_size":         true,
	"dump_malloc_stats":          true,
	"stats_dump_period_sec":      true,
	"stats_persist_period_sec":   true,
	"stats_history_buffer_size":  true,
	"perf_level":                 true,
	// CFOptions (SetOptions scope).
	"write_buffer_size":                    true,
	"max_write_buffer_number":              true,
	"min_write_buffer_number_to_merge":     true,
	"level0_file_num_compaction_trigger":   true,
	"level0_slowdown_writes_trigger":       true,
	"level0_stop_writes_trigger":           true,
	"target_file_size_base":                true,
	"target_file_size_multiplier":          true,
	"max_bytes_for_level_base":             true,
	"max_bytes_for_level_multiplier":       true,
	"max_compaction_bytes":                 true,
	"disable_auto_compactions":             true,
	"soft_pending_compaction_bytes_limit":  true,
	"hard_pending_compaction_bytes_limit":  true,
	"report_bg_io_stats":                   true,
	"compression":                          true,
	"level_compaction_dynamic_level_bytes": true,
	"paranoid_file_checks":                 true,
	// TableOptions: block-cache capacity resizes live with eviction.
	"block_cache": true,
}

var specIndex = func() map[string]*OptionSpec {
	m := make(map[string]*OptionSpec, len(optionSpecs))
	for i := range optionSpecs {
		if mutableOptionNames[optionSpecs[i].Name] {
			optionSpecs[i].Mutable = true
		}
		m[optionSpecs[i].Name] = &optionSpecs[i]
	}
	return m
}()

// LookupOption resolves an option name (or alias) to its spec.
func LookupOption(name string) (OptionSpec, bool) {
	if canonical, ok := optionAliases[name]; ok {
		name = canonical
	}
	s, ok := specIndex[name]
	if !ok {
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

// HonoredOptionNames returns the honored option names, sorted.
func HonoredOptionNames() []string {
	var out []string
	for _, s := range optionSpecs {
		if s.Honored {
			out = append(out, s.Name)
		}
	}
	sort.Strings(out)
	return out
}

// MutableOptionNames returns the names of the dynamically-changeable
// options, sorted.
func MutableOptionNames() []string {
	var out []string
	for _, s := range optionSpecs {
		if s.Mutable {
			out = append(out, s.Name)
		}
	}
	sort.Strings(out)
	return out
}

// IsMutableOption reports whether the named option (or alias) may be changed
// on a running database via SetOptions/SetDBOptions. Unknown names are not
// mutable.
func IsMutableOption(name string) bool {
	s, ok := LookupOption(name)
	return ok && s.Mutable
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
func checkValue(s OptionSpec, v string) (string, error) {
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
		if err != nil {
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

// ErrImmutableOption is returned (wrapped) by SetOptions/SetDBOptions when a
// change targets an option the registry does not mark Mutable — such knobs
// only take effect through a close+reopen cycle.
var ErrImmutableOption = fmt.Errorf("option is immutable at runtime")

// SetByName assigns a string-keyed option onto the typed Options, validating
// syntax and bounds. Unknown names return an error wrapping
// ErrUnknownOption. Recorded-only options land in Extra.
func (o *Options) SetByName(name, value string) error {
	if canonical, ok := optionAliases[name]; ok {
		// filter_policy aliases take bare bit counts.
		if canonical == "filter_policy" {
			if _, err := strconv.Atoi(value); err == nil {
				value = "bloomfilter:" + value + ":false"
			}
		}
		name = canonical
	}
	s, ok := specIndex[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownOption, name)
	}
	norm, err := checkValue(*s, value)
	if err != nil {
		return err
	}
	if !s.Honored {
		if o.Extra == nil {
			o.Extra = make(map[string]string)
		}
		o.Extra[name] = norm
		return nil
	}
	return o.applyHonored(name, norm)
}

// atoi64 parses a validated integer.
func atoi64(v string) int64 {
	n, _ := strconv.ParseInt(v, 10, 64)
	return n
}

func atoiInt(v string) int { return int(atoi64(v)) }

func atob(v string) bool { return v == "true" }

// applyHonored maps a validated value onto the typed field.
func (o *Options) applyHonored(name, v string) error {
	switch name {
	case "create_if_missing":
		o.CreateIfMissing = atob(v)
	case "error_if_exists":
		o.ErrorIfExists = atob(v)
	case "paranoid_checks":
		o.ParanoidChecks = atob(v)
	case "paranoid_file_checks":
		o.ParanoidFileChecks = atob(v)
	case "wal_recovery_mode":
		m, err := ParseWALRecoveryMode(v)
		if err != nil {
			return err
		}
		o.WALRecoveryMode = m
	case "max_bgerror_resume_count":
		o.MaxBgErrorResumeCount = atoiInt(v)
	case "bgerror_resume_retry_interval":
		o.BgErrorResumeRetryInterval = atoi64(v)
	case "max_background_jobs":
		o.MaxBackgroundJobs = atoiInt(v)
	case "max_background_compactions":
		o.MaxBackgroundCompactions = atoiInt(v)
	case "max_background_flushes":
		o.MaxBackgroundFlushes = atoiInt(v)
	case "max_subcompactions":
		o.MaxSubcompactions = atoiInt(v)
	case "bytes_per_sync":
		o.BytesPerSync = atoi64(v)
	case "wal_bytes_per_sync":
		o.WALBytesPerSync = atoi64(v)
	case "strict_bytes_per_sync":
		o.StrictBytesPerSync = atob(v)
	case "compaction_readahead_size":
		o.CompactionReadaheadSize = atoi64(v)
	case "enable_pipelined_write":
		o.EnablePipelinedWrite = atob(v)
	case "allow_concurrent_memtable_write":
		o.AllowConcurrentMemtableWrite = atob(v)
	case "enable_write_thread_adaptive_yield":
		o.EnableWriteThreadAdaptiveYield = atob(v)
	case "write_thread_max_yield_usec":
		o.WriteThreadMaxYieldUsec = atoiInt(v)
	case "write_thread_slow_yield_usec":
		o.WriteThreadSlowYieldUsec = atoiInt(v)
	case "use_direct_reads":
		o.UseDirectReads = atob(v)
	case "use_direct_io_for_flush_and_compaction":
		o.UseDirectIOForFlushAndCompaction = atob(v)
	case "max_open_files":
		o.MaxOpenFiles = atoiInt(v)
	case "table_cache_numshardbits":
		o.TableCacheNumshardbits = atoiInt(v)
	case "delayed_write_rate":
		o.DelayedWriteRate = atoi64(v)
	case "rate_limiter_bytes_per_sec":
		o.RateLimiterBytesPerSec = atoi64(v)
	case "max_total_wal_size":
		o.MaxTotalWALSize = atoi64(v)
	case "db_write_buffer_size":
		o.DBWriteBufferSize = atoi64(v)
	case "dump_malloc_stats":
		o.DumpMallocStats = atob(v)
	case "stats_dump_period_sec":
		o.StatsDumpPeriodSec = atoiInt(v)
	case "stats_persist_period_sec":
		o.StatsPersistPeriodSec = atoiInt(v)
	case "stats_history_buffer_size":
		o.StatsHistoryBufferSize = atoi64(v)
	case "perf_level":
		l, err := ParsePerfLevel(v)
		if err != nil {
			return err
		}
		o.PerfLevel = l.String()
	case "manual_wal_flush":
		o.ManualWALFlush = atob(v)
	case "avoid_flush_during_shutdown":
		o.AvoidFlushDuringShutdown = atob(v)
	case "use_fsync":
		o.UseFsync = atob(v)
	case "wal_dir":
		o.WALDir = v
	case "write_buffer_size":
		o.WriteBufferSize = atoi64(v)
	case "max_write_buffer_number":
		o.MaxWriteBufferNumber = atoiInt(v)
	case "min_write_buffer_number_to_merge":
		o.MinWriteBufferNumberToMerge = atoiInt(v)
	case "level0_file_num_compaction_trigger":
		o.Level0FileNumCompactionTrigger = atoiInt(v)
	case "level0_slowdown_writes_trigger":
		o.Level0SlowdownWritesTrigger = atoiInt(v)
	case "level0_stop_writes_trigger":
		o.Level0StopWritesTrigger = atoiInt(v)
	case "num_levels":
		o.NumLevels = atoiInt(v)
	case "target_file_size_base":
		o.TargetFileSizeBase = atoi64(v)
	case "target_file_size_multiplier":
		o.TargetFileSizeMultiplier = atoiInt(v)
	case "max_bytes_for_level_base":
		o.MaxBytesForLevelBase = atoi64(v)
	case "max_bytes_for_level_multiplier":
		f, _ := strconv.ParseFloat(v, 64)
		o.MaxBytesForLevelMultiplier = f
	case "level_compaction_dynamic_level_bytes":
		o.LevelCompactionDynamicLevelBytes = atob(v)
	case "compaction_style":
		cs, err := ParseCompactionStyle(v)
		if err != nil {
			return err
		}
		o.CompactionStyle = cs
	case "compression":
		c, err := ParseCompression(v)
		if err != nil {
			return err
		}
		o.Compression = c
	case "max_compaction_bytes":
		o.MaxCompactionBytes = atoi64(v)
	case "disable_auto_compactions":
		o.DisableAutoCompactions = atob(v)
	case "soft_pending_compaction_bytes_limit":
		o.SoftPendingCompactionBytesLimit = atoi64(v)
	case "hard_pending_compaction_bytes_limit":
		o.HardPendingCompactionBytesLimit = atoi64(v)
	case "memtable_prefix_bloom_size_ratio":
		f, _ := strconv.ParseFloat(v, 64)
		o.MemtablePrefixBloomSizeRatio = f
	case "optimize_filters_for_hits":
		o.OptimizeFiltersForHits = atob(v)
	case "report_bg_io_stats":
		o.ReportBgIOStats = atob(v)
	case "block_size":
		o.BlockSize = atoiInt(v)
	case "block_restart_interval":
		o.BlockRestartInterval = atoiInt(v)
	case "block_cache":
		o.BlockCacheSize = atoi64(v)
	case "cache_index_and_filter_blocks":
		o.CacheIndexAndFilterBlocks = atob(v)
	case "whole_key_filtering":
		o.WholeKeyFiltering = atob(v)
	case "no_block_cache":
		o.NoBlockCache = atob(v)
	case "filter_policy":
		bits, err := parseFilterPolicy(v)
		if err != nil {
			return err
		}
		o.BloomBitsPerKey = bits
	default:
		return fmt.Errorf("lsm: honored option %q has no setter (registry bug)", name)
	}
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

// GetByName returns the current value of a named option as a string.
func (o *Options) GetByName(name string) (string, error) {
	if canonical, ok := optionAliases[name]; ok {
		name = canonical
	}
	s, ok := specIndex[name]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownOption, name)
	}
	if !s.Honored {
		if v, ok := o.Extra[name]; ok {
			return v, nil
		}
		return s.Default, nil
	}
	switch name {
	case "create_if_missing":
		return strconv.FormatBool(o.CreateIfMissing), nil
	case "error_if_exists":
		return strconv.FormatBool(o.ErrorIfExists), nil
	case "paranoid_checks":
		return strconv.FormatBool(o.ParanoidChecks), nil
	case "paranoid_file_checks":
		return strconv.FormatBool(o.ParanoidFileChecks), nil
	case "wal_recovery_mode":
		return o.WALRecoveryMode.String(), nil
	case "max_bgerror_resume_count":
		return strconv.Itoa(o.MaxBgErrorResumeCount), nil
	case "bgerror_resume_retry_interval":
		return strconv.FormatInt(o.BgErrorResumeRetryInterval, 10), nil
	case "max_background_jobs":
		return strconv.Itoa(o.MaxBackgroundJobs), nil
	case "max_background_compactions":
		return strconv.Itoa(o.MaxBackgroundCompactions), nil
	case "max_background_flushes":
		return strconv.Itoa(o.MaxBackgroundFlushes), nil
	case "max_subcompactions":
		return strconv.Itoa(o.MaxSubcompactions), nil
	case "bytes_per_sync":
		return strconv.FormatInt(o.BytesPerSync, 10), nil
	case "wal_bytes_per_sync":
		return strconv.FormatInt(o.WALBytesPerSync, 10), nil
	case "strict_bytes_per_sync":
		return strconv.FormatBool(o.StrictBytesPerSync), nil
	case "compaction_readahead_size":
		return strconv.FormatInt(o.CompactionReadaheadSize, 10), nil
	case "enable_pipelined_write":
		return strconv.FormatBool(o.EnablePipelinedWrite), nil
	case "allow_concurrent_memtable_write":
		return strconv.FormatBool(o.AllowConcurrentMemtableWrite), nil
	case "enable_write_thread_adaptive_yield":
		return strconv.FormatBool(o.EnableWriteThreadAdaptiveYield), nil
	case "write_thread_max_yield_usec":
		return strconv.Itoa(o.WriteThreadMaxYieldUsec), nil
	case "write_thread_slow_yield_usec":
		return strconv.Itoa(o.WriteThreadSlowYieldUsec), nil
	case "use_direct_reads":
		return strconv.FormatBool(o.UseDirectReads), nil
	case "use_direct_io_for_flush_and_compaction":
		return strconv.FormatBool(o.UseDirectIOForFlushAndCompaction), nil
	case "max_open_files":
		return strconv.Itoa(o.MaxOpenFiles), nil
	case "table_cache_numshardbits":
		return strconv.Itoa(o.TableCacheNumshardbits), nil
	case "delayed_write_rate":
		return strconv.FormatInt(o.DelayedWriteRate, 10), nil
	case "rate_limiter_bytes_per_sec":
		return strconv.FormatInt(o.RateLimiterBytesPerSec, 10), nil
	case "max_total_wal_size":
		return strconv.FormatInt(o.MaxTotalWALSize, 10), nil
	case "db_write_buffer_size":
		return strconv.FormatInt(o.DBWriteBufferSize, 10), nil
	case "dump_malloc_stats":
		return strconv.FormatBool(o.DumpMallocStats), nil
	case "stats_dump_period_sec":
		return strconv.Itoa(o.StatsDumpPeriodSec), nil
	case "stats_persist_period_sec":
		return strconv.Itoa(o.StatsPersistPeriodSec), nil
	case "stats_history_buffer_size":
		return strconv.FormatInt(o.StatsHistoryBufferSize, 10), nil
	case "perf_level":
		return o.perfLevel().String(), nil
	case "manual_wal_flush":
		return strconv.FormatBool(o.ManualWALFlush), nil
	case "avoid_flush_during_shutdown":
		return strconv.FormatBool(o.AvoidFlushDuringShutdown), nil
	case "use_fsync":
		return strconv.FormatBool(o.UseFsync), nil
	case "wal_dir":
		return o.WALDir, nil
	case "write_buffer_size":
		return strconv.FormatInt(o.WriteBufferSize, 10), nil
	case "max_write_buffer_number":
		return strconv.Itoa(o.MaxWriteBufferNumber), nil
	case "min_write_buffer_number_to_merge":
		return strconv.Itoa(o.MinWriteBufferNumberToMerge), nil
	case "level0_file_num_compaction_trigger":
		return strconv.Itoa(o.Level0FileNumCompactionTrigger), nil
	case "level0_slowdown_writes_trigger":
		return strconv.Itoa(o.Level0SlowdownWritesTrigger), nil
	case "level0_stop_writes_trigger":
		return strconv.Itoa(o.Level0StopWritesTrigger), nil
	case "num_levels":
		return strconv.Itoa(o.NumLevels), nil
	case "target_file_size_base":
		return strconv.FormatInt(o.TargetFileSizeBase, 10), nil
	case "target_file_size_multiplier":
		return strconv.Itoa(o.TargetFileSizeMultiplier), nil
	case "max_bytes_for_level_base":
		return strconv.FormatInt(o.MaxBytesForLevelBase, 10), nil
	case "max_bytes_for_level_multiplier":
		return strconv.FormatFloat(o.MaxBytesForLevelMultiplier, 'f', 6, 64), nil
	case "level_compaction_dynamic_level_bytes":
		return strconv.FormatBool(o.LevelCompactionDynamicLevelBytes), nil
	case "compaction_style":
		return o.CompactionStyle.String(), nil
	case "compression":
		return o.Compression.String(), nil
	case "max_compaction_bytes":
		return strconv.FormatInt(o.MaxCompactionBytes, 10), nil
	case "disable_auto_compactions":
		return strconv.FormatBool(o.DisableAutoCompactions), nil
	case "soft_pending_compaction_bytes_limit":
		return strconv.FormatInt(o.SoftPendingCompactionBytesLimit, 10), nil
	case "hard_pending_compaction_bytes_limit":
		return strconv.FormatInt(o.HardPendingCompactionBytesLimit, 10), nil
	case "memtable_prefix_bloom_size_ratio":
		return strconv.FormatFloat(o.MemtablePrefixBloomSizeRatio, 'f', 6, 64), nil
	case "optimize_filters_for_hits":
		return strconv.FormatBool(o.OptimizeFiltersForHits), nil
	case "report_bg_io_stats":
		return strconv.FormatBool(o.ReportBgIOStats), nil
	case "block_size":
		return strconv.Itoa(o.BlockSize), nil
	case "block_restart_interval":
		return strconv.Itoa(o.BlockRestartInterval), nil
	case "block_cache":
		return strconv.FormatInt(o.BlockCacheSize, 10), nil
	case "cache_index_and_filter_blocks":
		return strconv.FormatBool(o.CacheIndexAndFilterBlocks), nil
	case "whole_key_filtering":
		return strconv.FormatBool(o.WholeKeyFiltering), nil
	case "no_block_cache":
		return strconv.FormatBool(o.NoBlockCache), nil
	case "filter_policy":
		if o.BloomBitsPerKey <= 0 {
			return "nullptr", nil
		}
		return fmt.Sprintf("bloomfilter:%d:false", o.BloomBitsPerKey), nil
	default:
		return "", fmt.Errorf("lsm: honored option %q has no getter (registry bug)", name)
	}
}

// ToINI renders the full option surface as a RocksDB-style OPTIONS document.
func (o *Options) ToINI() *ini.File {
	f := ini.NewFile()
	ver := f.Section("Version")
	ver.Set("rocksdb_version", "8.8.1")
	ver.Set("options_file_version", "1.1")
	for _, s := range optionSpecs {
		v, err := o.GetByName(s.Name)
		if err != nil {
			continue
		}
		f.Section(s.Section).Set(s.Name, v)
	}
	return f
}

// FromINI builds Options from an OPTIONS document, starting from defaults.
// Unknown keys are returned in unknown (not an error: real RocksDB files may
// carry options outside this registry).
func FromINI(f *ini.File) (o *Options, unknown []string, err error) {
	o = DefaultOptions()
	for _, secName := range f.SectionNames() {
		if secName == "Version" || secName == "" {
			continue
		}
		sec := f.Section(secName)
		for _, k := range sec.Keys() {
			v, _ := sec.Get(k)
			if setErr := o.SetByName(k, v); setErr != nil {
				if errors.Is(setErr, ErrUnknownOption) {
					unknown = append(unknown, k)
					continue
				}
				return nil, unknown, setErr
			}
		}
	}
	return o, unknown, nil
}
