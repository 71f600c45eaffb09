package lsm

import (
	"container/list"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrNotFound is returned by Get when the key does not exist.
var ErrNotFound = errors.New("lsm: not found")

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("lsm: database closed")

// WriteOptions controls one write.
type WriteOptions struct {
	// Sync forces WAL durability before returning.
	Sync bool
	// DisableWAL skips the write-ahead log (data loss on crash).
	DisableWAL bool
}

// ReadOptions controls one read.
type ReadOptions struct {
	// FillCache controls whether read blocks enter the block cache.
	FillCache bool
	// VerifyChecksums is accepted for API parity (checksums are always
	// verified on block read in this implementation).
	VerifyChecksums bool
	// Snapshot pins the read to a point-in-time view (nil = latest).
	Snapshot *Snapshot
}

// DefaultWriteOptions matches db_bench defaults (async WAL writes).
func DefaultWriteOptions() *WriteOptions { return &WriteOptions{} }

// DefaultReadOptions fills the cache.
func DefaultReadOptions() *ReadOptions { return &ReadOptions{FillCache: true} }

// defaultReadOptions is the shared instance used when a caller passes nil,
// so the per-op paths don't allocate one. Never mutated.
var defaultReadOptions = &ReadOptions{FillCache: true}

// levelIOStats accumulates cumulative background I/O per level (flush
// writes land on L0; compaction reads/writes land on the output level).
// Guarded by db.mu.
type levelIOStats struct {
	readBytes  int64
	writeBytes int64
	count      int64
	duration   time.Duration
	// Background I/O call timing, collected only under report_bg_io_stats
	// (rendered as extra rocksdb.cfstats columns).
	bgReadNanos  int64
	bgWriteNanos int64
	bgFsyncNanos int64
}

// DB is a log-structured merge-tree key-value store. Per-keyspace state
// (memtables, levels, flush/compaction bookkeeping, effective options) lives
// in columnFamily structs; the DB owns what is genuinely shared: the WAL (one
// log, records tagged with CF ids), the write thread, the block/table caches,
// and the manifest.
type DB struct {
	env       Env
	rt        engineRuntime // how jobs run, waits pass, groups form and time is read (runtime.go)
	dir       string
	stats     *Statistics
	hists     *HistogramStats
	listeners []EventListener
	infoLog   *logListener

	// commitMu serializes the write-group WAL stage (which runs outside
	// db.mu) against memtable/WAL switches from Flush and Close. Lock order:
	// commitMu before mu.
	commitMu sync.Mutex
	// publishedSeq is the last sequence visible to reads. Write groups
	// allocate sequences under mu but publish them in order, after their
	// memtable inserts land, via publishMu/publishCond.
	publishedSeq atomic.Uint64
	publishMu    sync.Mutex
	publishCond  *sync.Cond

	mu      sync.Mutex
	bgCond  *sync.Cond
	wal     *walWriter // shared WAL: batches tagged with CF ids
	walNum  uint64     // file number of the live WAL
	vs      *versionSet
	bcache  *blockCache
	tcache  *tableCache
	memSeed int64

	// Column families. cfs/cfNames/cfOrder are guarded by mu; cfSnap is a
	// lock-free snapshot of cfOrder for engineMemory.
	cfs       map[uint32]*columnFamily
	cfNames   map[string]*columnFamily
	cfOrder   []*columnFamily // ascending id; defaultCF first
	defaultCF *columnFamily
	cfSnap    atomic.Pointer[[]*columnFamily]
	cfg       *ConfigSet // effective multi-family configuration

	flushActive   int
	compactActive int
	stallCond     StallCondition
	busyFiles     map[uint64]bool
	// refVersions holds every version a reader (Get capture or open
	// iterator) may still be scanning. deleteObsoleteFilesLocked treats
	// their files as live and prunes entries whose refcount has drained.
	refVersions map[*Version]struct{}
	bgErr       error
	recovering  bool // auto-resume goroutine active
	closed      bool
	snapMu      sync.Mutex
	snapshots   *list.List // live *Snapshot, oldest first

	manualWaiters int

	// Per-operation profiling (perfcontext.go). perf attributes operation
	// phases; iostats attributes env-level I/O through the file wrappers.
	perf    *PerfContext
	iostats *IOStatsContext

	// Persistent stats history and periodic LOG dumps (statshistory.go).
	// The deadlines are env-clock times guarded by mu; the runtime fires them.
	history          *statsHistory
	nextStatsDump    time.Duration
	nextStatsPersist time.Duration

	// wl holds the workload-characterization window state.
	wl workloadState
}

// options returns the DB-scoped effective-options snapshot: the default
// family's current options (the two are one pointer, swapped together by
// SetDBOptions). Lock-free; safe from any goroutine once Open has installed
// the default family.
func (db *DB) options() *Options { return db.defaultCF.options() }

// Open opens (creating if allowed) the database in dir with a single set of
// options shared by the default family. Families already in the manifest are
// adopted with a clone of opts; use OpenConfig to give them their own.
func Open(dir string, opts *Options) (*DB, error) {
	var cfg *ConfigSet
	if opts != nil {
		cfg = NewConfigSet(opts.Clone())
	}
	return OpenConfig(dir, cfg)
}

// OpenConfig opens the database with a full multi-family configuration:
// cfg.Default carries the DB-scoped knobs and the default family's options;
// each entry in cfg.Others names another family with its own effective
// options. Families named in cfg that do not exist yet are created; families
// in the manifest but absent from cfg are adopted with a clone of the default
// options (unlike RocksDB, which refuses to open them).
func OpenConfig(dir string, cfg *ConfigSet) (*DB, error) {
	if cfg == nil {
		cfg = NewConfigSet(nil)
	}
	cfg = cfg.Clone()
	opts := cfg.Default
	if opts.Env == nil {
		opts.Env = NewOSEnv()
	}
	if opts.Stats == nil {
		opts.Stats = NewStatistics()
	}
	// Every family shares the DB's env and stats sink.
	for _, c := range cfg.Others {
		c.Options.Env = opts.Env
		c.Options.Stats = opts.Stats
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	env := opts.Env
	db := &DB{
		cfg:         cfg,
		env:         env,
		dir:         dir,
		stats:       opts.Stats,
		hists:       NewHistogramStats(),
		listeners:   append([]EventListener(nil), opts.Listeners...),
		busyFiles:   make(map[uint64]bool),
		refVersions: make(map[*Version]struct{}),
		memSeed:     opts.Seed + 1,
		cfs:         make(map[uint32]*columnFamily),
		cfNames:     make(map[string]*columnFamily),
	}
	if se, ok := env.(*SimEnv); ok {
		db.rt = &simRuntime{db: db, env: se}
	} else {
		db.rt = newOSRuntime(db)
	}
	db.perf = &PerfContext{}
	db.iostats = &IOStatsContext{}
	db.perf.SetLevel(opts.perfLevel())
	db.iostats.SetLevel(opts.perfLevel())
	db.history = newStatsHistory(opts.StatsHistoryBufferSize)
	db.bgCond = sync.NewCond(&db.mu)
	db.publishCond = sync.NewCond(&db.publishMu)
	if err := env.MkdirAll(dir); err != nil {
		return nil, err
	}
	cacheSize := opts.BlockCacheSize
	if opts.NoBlockCache {
		cacheSize = 0
	}
	if cacheSize > 0 {
		db.bcache = newBlockCache(cacheSize)
		db.bcache.setStats(db.stats)
	}
	if !opts.DisableInfoLog {
		db.infoLog = newLogListener(env, dir)
		if db.infoLog != nil {
			db.listeners = append(db.listeners, db.infoLog)
		}
	}
	db.tcache = newTableCache(env, dir, db.bcache, db.stats, opts.MaxOpenFiles)
	db.tcache.perf = db.perf
	db.tcache.ios = db.iostats
	db.vs = newVersionSet(env, dir, opts)

	exists := env.FileExists(currentFileName(dir))
	switch {
	case exists && opts.ErrorIfExists:
		return nil, fmt.Errorf("lsm: database %q already exists", dir)
	case !exists && !opts.CreateIfMissing:
		return nil, fmt.Errorf("lsm: database %q does not exist", dir)
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	if exists {
		if err := db.vs.recover(); err != nil {
			return nil, err
		}
		// Materialize a columnFamily for every family the manifest holds.
		for _, id := range db.vs.cfIDsInOrder() {
			st := db.vs.cfs[id]
			cfOpts := cfg.Lookup(st.name)
			if cfOpts == nil {
				cfOpts = opts.Clone()
				cfg.Others = append(cfg.Others, CFConfig{Name: st.name, Options: cfOpts})
			}
			cf := &columnFamily{
				id:      id,
				name:    st.name,
				levelIO: make([]levelIOStats, st.current.NumLevels()),
			}
			cf.opts.Store(cfOpts)
			if id == 0 {
				db.defaultCF = cf
			}
			db.registerCFLocked(cf)
		}
		if err := db.replayWALsLocked(); err != nil {
			return nil, err
		}
	} else {
		if err := db.vs.createNew(); err != nil {
			return nil, err
		}
		cf := &columnFamily{
			id:      0,
			name:    DefaultColumnFamilyName,
			levelIO: make([]levelIOStats, opts.NumLevels),
		}
		cf.opts.Store(opts)
		db.defaultCF = cf
		db.registerCFLocked(cf)
		if err := db.rotateWALLocked(); err != nil {
			return nil, err
		}
		db.newMemtableLocked(cf)
	}
	// Families requested in cfg but not on disk yet: create them now so an
	// OPTIONS file with several CFOptions sections fully describes the DB.
	for _, c := range cfg.Others {
		if db.cfNames[c.Name] == nil {
			if _, err := db.createColumnFamilyLocked(c.Name, c.Options); err != nil {
				return nil, err
			}
		}
	}
	db.publishedSeq.Store(db.vs.lastSeq)
	// Persist the effective options, RocksDB-style: one CFOptions section per
	// family. Best effort: the file is a record, nothing reads it back.
	if w, err := env.NewWritableFile(optionsFileName(dir, db.vs.newFileNumber()), IOBackground); err == nil {
		_ = w.Append([]byte(db.cfg.ToINI().String()))
		w.Close()
	}
	db.deleteObsoleteFilesLocked()
	now := db.armStatsTimersLocked(opts)
	db.rt.start()
	db.wl.base = db.readWorkloadCounters(now)
	db.infoLog.logf("[db] open %s (families=%d write_buffer_size=%d block_cache_size=%d compaction_style=%s num_levels=%d)",
		dir, len(db.cfOrder), opts.WriteBufferSize, cacheSize, opts.CompactionStyle, opts.NumLevels)
	return db, nil
}

// bgIOClass returns the IO class for flush/compaction files under the
// direct-I/O option.
func (db *DB) bgIOClass() IOClass {
	if db.options().UseDirectIOForFlushAndCompaction {
		return IOBackgroundDirect
	}
	return IOBackground
}

// engineMemory reports the engine's memory footprint (memtables + caches)
// for the simulation's page-cache pressure model.
func (db *DB) engineMemory() int64 {
	// Called from the env under db operations; avoid taking db.mu (the
	// caller may hold it). Reads are racy-but-monotonic estimates.
	var m int64
	if snap := db.cfSnap.Load(); snap != nil {
		for _, cf := range *snap {
			m += int64(1+len(cf.imm)) * cf.options().WriteBufferSize
		}
	}
	if !db.options().NoBlockCache {
		m += db.options().BlockCacheSize
	}
	return m
}

// rotateWALLocked starts a fresh shared WAL file; every family's new
// memtables log there from now on. The caller retires the old writer.
func (db *DB) rotateWALLocked() error {
	logNum := db.vs.newFileNumber()
	f, err := db.env.NewWritableFile(logFileName(db.dir, logNum), IOForeground)
	if err != nil {
		return err
	}
	db.wal = newWALWriter(wrapWritableFile(f, db.iostats), db.options())
	db.wal.onSync, db.wal.stopwatch = db.notifyWALSync, db.rt.stopwatch
	db.walNum = logNum
	return nil
}

// newMemtableLocked installs a fresh memtable for the family, backed by the
// live shared WAL.
func (db *DB) newMemtableLocked(cf *columnFamily) {
	db.memSeed++
	cf.mem = newMemtable(db.memSeed, db.walNum)
}

// replayWALsLocked replays live WAL files into fresh per-family memtables at
// open, routing each record to the family its batch entry names. Records for
// families whose WAL floor is above the log (already flushed) or that no
// longer exist (dropped) are skipped.
func (db *DB) replayWALsLocked() error {
	names, err := db.env.List(db.dir)
	if err != nil {
		return err
	}
	minLog := db.vs.minLogNumber()
	var logs []uint64
	for _, name := range names {
		kind, num := parseFileName(name)
		if kind == fileKindLog && num >= minLog {
			logs = append(logs, num)
		}
	}
	sort.Slice(logs, func(i, j int) bool { return logs[i] < logs[j] })
	if err := db.rotateWALLocked(); err != nil {
		return err
	}
	for _, cf := range db.cfOrder {
		db.newMemtableLocked(cf)
	}
	maxSeq := db.vs.lastSeq
	for i, num := range logs {
		logNum := num
		name := logFileName(db.dir, num)
		info, err := walReplayMode(db.env, name, db.options().WALRecoveryMode,
			db.options().ParanoidChecks, db.stats, func(payload []byte) error {
				return decodeBatch(payload, func(seq uint64, cfID uint32, kind ValueKind, key, value []byte) error {
					if seq > maxSeq {
						maxSeq = seq
					}
					cf := db.cfs[cfID]
					if cf == nil {
						return nil // dropped family's residue
					}
					if st := db.vs.cfs[cfID]; st != nil && logNum < st.logNumber {
						return nil // already flushed for this family
					}
					cf.mem.add(seq, kind, key, value) // add copies
					return nil
				})
			})
		if err != nil {
			return err
		}
		if info.droppedBytes > 0 {
			db.infoLog.logf("[wal] %s: replayed %d records, dropped %d bytes (%d corrupt records)",
				name, info.records, info.droppedBytes, info.corruptRecords)
		}
		if db.options().WALRecoveryMode == WALRecoverPointInTime && info.droppedBytes > 0 && i < len(logs)-1 {
			// Point-in-time recovery: nothing after the first damage is
			// replayed, including later log files.
			db.infoLog.logf("[wal] point-in-time recovery stops at %s; ignoring %d later log(s)",
				name, len(logs)-1-i)
			break
		}
	}
	db.vs.lastSeq = maxSeq
	for _, cf := range db.cfOrder {
		if !cf.mem.empty() {
			// Flush the recovered memtable synchronously so the old WALs can
			// be retired.
			mems := []*memtable{cf.mem}
			res, err := db.runFlush(cf, mems)
			if err != nil {
				return err
			}
			if err := db.applyFlushLocked(cf, res, db.walNum, mems); err != nil {
				return err
			}
			db.newMemtableLocked(cf)
		} else if db.vs.cfs[cf.id] != nil && db.vs.cfs[cf.id].logNumber < db.walNum {
			// Nothing to replay for this family: advance its floor so the old
			// WALs do not stay pinned.
			edit := &versionEdit{cfID: cf.id, hasLogNumber: true, logNumber: db.walNum}
			if err := db.vs.logAndApply(edit); err != nil {
				return err
			}
		}
	}
	return nil
}

// Put inserts or overwrites a key in the default column family.
func (db *DB) Put(wo *WriteOptions, key, value []byte) error {
	b := NewWriteBatch()
	b.Put(key, value)
	return db.Write(wo, b)
}

// Delete removes a key (writing a tombstone) in the default column family.
func (db *DB) Delete(wo *WriteOptions, key []byte) error {
	b := NewWriteBatch()
	b.Delete(key)
	return db.Write(wo, b)
}

// Write applies a batch atomically through the group-commit write pipeline
// (writethread.go): on the OS concurrent writers form groups behind a
// leader; in simulation the groups are modeled deterministically on the
// virtual clock. A batch may span column families; the whole batch commits
// atomically through the shared WAL.
func (db *DB) Write(wo *WriteOptions, batch *WriteBatch) error {
	if wo == nil {
		wo = DefaultWriteOptions()
	}
	if batch.Count() == 0 {
		return nil
	}
	defer db.recordSince(HistWriteMicros, db.rt.stopwatch())
	err := db.commit(wo, batch)
	if err == nil {
		db.bookWriteTraffic(batch)
	}
	return err
}

// recordSince books the time since a stopwatch reading into a latency
// histogram; `defer db.recordSince(h, db.rt.stopwatch())` times a function.
func (db *DB) recordSince(h HistogramType, start time.Duration) {
	db.hists.Record(h, db.rt.stopwatch()-start)
}

// bookWriteTraffic attributes a committed batch's entries to the touched
// families' workload counters, splitting the entry count evenly across the
// touched set (per-entry attribution would mean re-decoding the batch).
func (db *DB) bookWriteTraffic(batch *WriteBatch) {
	snapPtr := db.cfSnap.Load()
	if snapPtr == nil || len(batch.cfIDs) == 0 {
		return
	}
	per := int64(batch.Count()) / int64(len(batch.cfIDs))
	if per < 1 {
		per = 1
	}
	for _, id := range batch.cfIDs {
		for _, cf := range *snapPtr {
			if cf.id == id {
				cf.writeOps.Add(per)
				break
			}
		}
	}
}

// Get returns the value stored for key in the default column family, or
// ErrNotFound.
func (db *DB) Get(ro *ReadOptions, key []byte) ([]byte, error) {
	return db.GetCF(ro, nil, key)
}

// makeRoomForWriteLocked enforces the write controller for one family:
// memtable switching, slowdowns (delayed write rate) and stops (L0 / pending
// compaction debt), all judged against the family's own options and version.
func (db *DB) makeRoomForWriteLocked(cf *columnFamily, batchBytes int64) error {
	delayed := false
	for {
		db.rt.poll()
		if db.bgErr != nil {
			return db.bgErr
		}
		v := db.vs.head(cf.id)
		if v == nil {
			return fmt.Errorf("%w: id %d", ErrColumnFamilyNotFound, cf.id)
		}
		// One snapshot per controller decision: a concurrent SetOptions swap
		// takes effect on the next loop iteration, never mid-judgment.
		o := cf.options()
		l0 := v.NumLevelFiles(0)
		pending := v.pendingCompactionBytes(o)
		auto := !o.DisableAutoCompactions

		// Hard stops.
		if auto && (l0 >= o.Level0StopWritesTrigger ||
			(o.HardPendingCompactionBytesLimit > 0 && pending >= o.HardPendingCompactionBytesLimit)) {
			db.setStallConditionLocked(StallStopped, l0, pending)
			db.stats.Add(TickerStoppedWrites, 1)
			if err := db.waitForBackgroundLocked(); err != nil {
				return err
			}
			continue
		}
		// Slowdown: writes proceed at delayed_write_rate (applied once).
		if auto && !delayed &&
			(l0 >= o.Level0SlowdownWritesTrigger ||
				(o.SoftPendingCompactionBytesLimit > 0 && pending >= o.SoftPendingCompactionBytesLimit)) {
			db.setStallConditionLocked(StallDelayed, l0, pending)
			delay := time.Duration(float64(batchBytes) / float64(db.options().delayedWriteRate()) * 1e9)
			if delay < 50*time.Microsecond {
				delay = 50 * time.Microsecond
			}
			db.env.ChargeStall(delay)
			db.perf.AddTime(PerfWriteDelayTime, delay)
			db.stats.Add(TickerSlowdownWrites, 1)
			db.stats.Add(TickerStallMicros, int64(delay/time.Microsecond))
			delayed = true
			continue
		}
		if cf.mem.approximateBytes() < o.WriteBufferSize && db.wal.size() < db.options().maxTotalWALSize() {
			db.setStallConditionLocked(StallNormal, l0, pending)
			return nil
		}
		// Memtable full (or the shared WAL outgrew its cap): switch, unless
		// the buffer count limit stalls us.
		if len(cf.imm)+1 >= o.MaxWriteBufferNumber {
			db.setStallConditionLocked(StallStopped, l0, pending)
			db.stats.Add(TickerStoppedWrites, 1)
			db.maybeScheduleFlushLocked(true)
			if err := db.waitForBackgroundLocked(); err != nil {
				return err
			}
			continue
		}
		if err := db.switchMemtableLocked(cf); err != nil {
			return err
		}
		db.maybeScheduleFlushLocked(false)
	}
}

// switchMemtableLocked freezes the family's active memtable, rotates the
// shared WAL (every family starts logging to the new file; floors advance as
// families flush), and starts a fresh memtable.
func (db *DB) switchMemtableLocked(cf *columnFamily) error {
	old := db.wal
	cf.imm = append(cf.imm, cf.mem)
	if err := db.rotateWALLocked(); err != nil {
		return err
	}
	db.newMemtableLocked(cf)
	// The old WAL is retired once every family's floor passes it; close the
	// writer now (contents are complete).
	return old.close()
}

// effectiveMinMerge bounds min_write_buffer_number_to_merge so a flush can
// always eventually run.
func effectiveMinMerge(o *Options) int {
	min := o.MinWriteBufferNumberToMerge
	if cap := o.MaxWriteBufferNumber - 1; min > cap && cap >= 1 {
		min = cap
	}
	if min < 1 {
		min = 1
	}
	return min
}

// maybeScheduleFlushLocked starts flushes for families with enough immutable
// memtables waiting (or any, when force is set) while slots are free.
func (db *DB) maybeScheduleFlushLocked(force bool) {
	if db.bgErr != nil || db.closed {
		return
	}
	for _, cf := range db.cfOrder {
		if db.flushActive >= db.options().backgroundFlushSlots() {
			return
		}
		avail := len(cf.imm) - cf.flushingCount
		need := effectiveMinMerge(cf.options())
		if force {
			need = 1
		}
		if avail < need {
			continue
		}
		mems := cf.imm[cf.flushingCount : cf.flushingCount+avail]
		cf.flushingCount += avail
		db.flushActive++
		db.rt.run(
			func() (*compactionResult, error) { return db.runFlush(cf, mems) },
			func(res *compactionResult, err error) { db.installFlushLocked(cf, mems, res, err) })
	}
}

// rateFloor returns the minimum job duration under the background rate
// limiter.
func (db *DB) rateFloor(bytes int64) time.Duration {
	if db.options().RateLimiterBytesPerSec <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / float64(db.options().RateLimiterBytesPerSec) * 1e9)
}

// installFlushLocked applies a completed flush, releases its memtables and
// schedules follow-up work. The family's WAL floor rises to its oldest
// surviving memtable.
func (db *DB) installFlushLocked(cf *columnFamily, mems []*memtable, res *compactionResult, err error) {
	db.flushActive--
	if err == nil {
		oldest := cf.mem.logNum
		if len(cf.imm) > len(mems) {
			oldest = cf.imm[len(mems)].logNum
		}
		err = db.applyFlushLocked(cf, res, oldest, mems)
	}
	cf.flushingCount -= len(mems)
	if err != nil {
		// The memtables stay on cf.imm: Resume re-schedules the flush.
		db.setBGErrorLocked(err, "flush")
		db.notifyFlush(FlushInfo{ColumnFamily: cf.name, MemtablesMerged: len(mems), Err: err})
		return
	}
	cf.imm = cf.imm[len(mems):]
	db.deleteObsoleteFilesLocked()
	db.maybeScheduleFlushLocked(false)
	db.maybeScheduleCompactionLocked()
}

// applyFlushLocked installs the edit of a flush of mems, raising the
// family's WAL floor to logNum, and books it: the flush tickers, the L0
// cfstats row, the flush histogram and the listeners. Both the background
// flush and the recovery flush at open install through it.
func (db *DB) applyFlushLocked(cf *columnFamily, res *compactionResult, logNum uint64, mems []*memtable) error {
	res.edit.cfID = cf.id
	res.edit.hasLogNumber = true
	res.edit.logNumber = logNum
	if err := db.vs.logAndApply(res.edit); err != nil {
		return err
	}
	db.stats.Add(TickerFlushCount, 1)
	db.stats.Add(TickerFlushBytes, res.writeBytes)
	db.recordLevelIOLocked(cf, 0, res)
	db.hists.Record(HistFlushMicros, res.dur)
	info := FlushInfo{ColumnFamily: cf.name, Bytes: res.writeBytes, MemtablesMerged: len(mems), Duration: res.dur}
	if len(res.edit.newFiles) > 0 {
		info.OutputFileNumber = res.edit.newFiles[0].meta.Number
	}
	db.notifyFlush(info)
	return nil
}

// recordLevelIOLocked books a finished job into its output level's cfstats
// row (bytes, count, duration) and folds its I/O attribution into the
// DB-wide IOStatsContext; under report_bg_io_stats the call timings also
// land in the level's row.
func (db *DB) recordLevelIOLocked(cf *columnFamily, level int, res *compactionResult) {
	var lio *levelIOStats
	if level >= 0 && level < len(cf.levelIO) {
		lio = &cf.levelIO[level]
		lio.readBytes += res.readBytes
		lio.writeBytes += res.writeBytes
		lio.count++
		lio.duration += res.dur
	}
	if res.ios == nil {
		return
	}
	db.iostats.merge(res.ios)
	if lio == nil || !cf.options().ReportBgIOStats {
		return
	}
	lio.bgReadNanos += res.ios.readNanos.Load()
	lio.bgWriteNanos += res.ios.writeNanos.Load()
	lio.bgFsyncNanos += res.ios.fsyncNanos.Load()
}

// recordCompactionLocked books a finished compaction (auto, manual or fifo):
// on success the compaction tickers, the output level's cfstats row and the
// compaction histograms; always the listeners.
func (db *DB) recordCompactionLocked(cf *columnFamily, c *compaction, res *compactionResult, reason string, err error) {
	if err != nil {
		db.notifyCompaction(CompactionInfo{
			ColumnFamily: cf.name,
			InputLevel:   c.level,
			OutputLevel:  c.outputLevel,
			InputFiles:   len(c.allInputs()),
			Reason:       reason,
			Err:          err,
		})
		return
	}
	db.stats.Add(TickerCompactCount, 1)
	db.stats.Add(TickerCompactReadBytes, res.readBytes)
	db.stats.Add(TickerCompactWriteBytes, res.writeBytes)
	db.recordLevelIOLocked(cf, c.outputLevel, res)
	db.hists.Record(HistCompactionMicros, res.dur)
	// Subcompaction accounting: the ticker counts range slices (an unsplit
	// job counts 1, so ticker == compaction count means the knob never
	// split anything), and the histogram records each slice's wall time so
	// the tuner can see skew between slices.
	slices := res.slices
	if slices < 1 {
		slices = 1
	}
	db.stats.Add(TickerSubcompactionScheduled, int64(slices))
	for _, d := range res.sliceDurs {
		db.hists.Record(HistSubcompactionMicros, d)
	}
	db.notifyCompaction(CompactionInfo{
		ColumnFamily:   cf.name,
		InputLevel:     c.level,
		OutputLevel:    c.outputLevel,
		InputFiles:     len(c.allInputs()),
		OutputFiles:    len(res.edit.newFiles),
		ReadBytes:      res.readBytes,
		WriteBytes:     res.writeBytes,
		Duration:       res.dur,
		Reason:         reason,
		Subcompactions: slices,
	})
}

// maybeScheduleCompactionLocked starts compactions while slots and work
// remain, visiting families round-robin so one hot family cannot starve the
// rest.
func (db *DB) maybeScheduleCompactionLocked() {
	if db.bgErr != nil || db.closed {
		return
	}
	for db.compactActive < db.options().backgroundCompactionSlots() {
		progress := false
		for _, cf := range db.cfOrder {
			if db.compactActive >= db.options().backgroundCompactionSlots() {
				return
			}
			if cf.options().DisableAutoCompactions {
				continue
			}
			c := pickCompaction(db.vs.head(cf.id), cf.options(), db.busyFiles)
			if c == nil {
				continue
			}
			c.cf = cf
			// Subcompactions share the compaction-slot budget: the job is
			// granted up to max_subcompactions slots, capped by whatever is
			// free. The loop guard guarantees at least one free slot here.
			free := db.options().backgroundCompactionSlots() - db.compactActive
			c.maxParallel = min(max(db.options().MaxSubcompactions, 1), free)
			reason := "auto"
			if c.fifoDrop {
				reason = "fifo"
			}
			db.startCompactionLocked(c, reason, nil)
			progress = true
		}
		if !progress {
			return
		}
	}
}

// startCompactionLocked hands c to the runtime: it marks the inputs busy,
// takes c.maxParallel compaction slots until the job installs and runs it
// against the family's current version. Automatic and manual compactions
// both start here. installed, when set, becomes true once the job has
// installed, whether or not it succeeded.
func (db *DB) startCompactionLocked(c *compaction, reason string, installed *bool) {
	for _, f := range c.allInputs() {
		db.busyFiles[f.Number] = true
	}
	db.compactActive += c.maxParallel
	v := db.vs.head(c.cf.id)
	db.rt.run(
		func() (*compactionResult, error) { return db.runCompaction(c, v) },
		func(res *compactionResult, err error) {
			db.installCompactionLocked(c, res, reason, err)
			if installed != nil {
				*installed = true
			}
		})
}

// installCompactionLocked applies a finished compaction, releases its slots
// and inputs, and schedules follow-up work. A failure is a background error.
func (db *DB) installCompactionLocked(c *compaction, res *compactionResult, reason string, err error) {
	db.compactActive -= c.maxParallel
	for _, f := range c.allInputs() {
		delete(db.busyFiles, f.Number)
	}
	if err == nil {
		res.edit.cfID = c.cf.id
		err = db.vs.logAndApply(res.edit)
	}
	if err != nil {
		db.setBGErrorLocked(err, "compaction")
		db.recordCompactionLocked(c.cf, c, res, reason, err)
		return
	}
	db.recordCompactionLocked(c.cf, c, res, reason, nil)
	db.deleteObsoleteFilesLocked()
	db.maybeScheduleCompactionLocked()
}

// waitForBackgroundLocked waits until one background job has installed,
// first scheduling whatever can run if nothing is in flight.
func (db *DB) waitForBackgroundLocked() error {
	if db.rt.inFlight() == 0 {
		db.maybeScheduleFlushLocked(true)
		db.maybeScheduleCompactionLocked()
		if db.rt.inFlight() == 0 {
			return fmt.Errorf("lsm: write stalled with no background work (bgErr=%v)", db.bgErr)
		}
	}
	db.rt.wait()
	return db.bgErr
}

// deleteObsoleteFilesLocked removes table and WAL files no longer referenced
// by any live column family.
func (db *DB) deleteObsoleteFilesLocked() {
	names, err := db.env.List(db.dir)
	if err != nil {
		return
	}
	live := db.vs.liveFileNumbers()
	// Files of versions still referenced by in-flight reads or open
	// iterators stay live; drained versions fall out of the set here.
	for v := range db.refVersions {
		if v.refs.Load() <= 0 {
			delete(db.refVersions, v)
			continue
		}
		for _, files := range v.levels {
			for _, f := range files {
				live[f.Number] = true
			}
		}
	}
	minLog := db.vs.minLogNumber()
	for _, name := range names {
		kind, num := parseFileName(name)
		switch kind {
		case fileKindTable:
			// Conservative: while any background job is in flight nothing
			// unreferenced is deleted, so in-construction outputs are safe
			// (results install in the same critical section as the next scan,
			// so with no job in flight no uninstalled output exists). Once
			// quiescent, every non-live table — including a dropped family's
			// — is reclaimable.
			if !live[num] && !db.busyFiles[num] && db.rt.inFlight() == 0 {
				db.tcache.evict(num)
				db.env.Remove(tableFileName(db.dir, num))
			}
		case fileKindLog:
			if num < minLog && num != db.walNum {
				db.env.Remove(logFileName(db.dir, num))
			}
		case fileKindManifest:
			if num != db.vs.manifestNum {
				db.env.Remove(manifestFileName(db.dir, num))
			}
		}
	}
}

// refVersionLocked takes one reader reference on a version, registering it
// for the obsolete-file scan. Release with v.refs.Add(-1) (no lock needed).
func (db *DB) refVersionLocked(v *Version) {
	if v == nil {
		return
	}
	v.refs.Add(1)
	db.refVersions[v] = struct{}{}
}

// Flush forces every family's active memtable to disk and waits. The
// memtable switches take commitMu so they cannot race a write group's WAL
// stage.
func (db *DB) Flush() error { return db.flush(nil) }

// FlushCF flushes one family's active memtable and waits for it.
func (db *DB) FlushCF(h *ColumnFamilyHandle) error { return db.flush(h) }

// flush is the shared all-family / one-family flush path. h == nil with the
// receiver on Flush means every family (note: the public single-family API
// maps nil handles to the default family via resolveCFLocked, so FlushCF(nil)
// flushes "default"; Flush() passes a sentinel instead).
func (db *DB) flush(h *ColumnFamilyHandle) error {
	db.commitMu.Lock()
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		db.commitMu.Unlock()
		return ErrClosed
	}
	db.rt.poll()
	targets, err := db.flushTargetsLocked(h)
	if err != nil {
		db.mu.Unlock()
		db.commitMu.Unlock()
		return err
	}
	for _, cf := range targets {
		if !cf.mem.empty() {
			if err := db.switchMemtableLocked(cf); err != nil {
				db.mu.Unlock()
				db.commitMu.Unlock()
				return err
			}
		}
	}
	db.maybeScheduleFlushLocked(true)
	db.mu.Unlock()
	db.commitMu.Unlock()

	db.mu.Lock()
	defer db.mu.Unlock()
	for anyImm(targets) && db.bgErr == nil {
		if err := db.waitForBackgroundLocked(); err != nil {
			return err
		}
		db.maybeScheduleFlushLocked(true)
	}
	return db.bgErr
}

// flushTargetsLocked resolves the families a flush targets (nil = all).
func (db *DB) flushTargetsLocked(h *ColumnFamilyHandle) ([]*columnFamily, error) {
	if h == nil {
		return append([]*columnFamily(nil), db.cfOrder...), nil
	}
	cf, err := db.resolveCFLocked(h)
	if err != nil {
		return nil, err
	}
	return []*columnFamily{cf}, nil
}

// anyImm reports whether any of the families still has frozen memtables.
func anyImm(cfs []*columnFamily) bool {
	for _, cf := range cfs {
		if len(cf.imm) > 0 {
			return true
		}
	}
	return false
}

// CompactRange compacts the key range [start, end] (nil bounds are open) of
// the default family down level by level, like rocksdb::DB::CompactRange.
func (db *DB) CompactRange(start, end []byte) error {
	return db.CompactRangeCF(nil, start, end)
}

// CompactRangeCF compacts the key range of one family. Each level's job goes
// through the scheduler like an automatic compaction, with the full
// max_subcompactions width, and is waited for: the DB mutex is free while it
// runs, and a failure is a background error (clear it with Resume).
func (db *DB) CompactRangeCF(h *ColumnFamilyHandle, start, end []byte) error {
	if err := db.flush(h); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	cf, err := db.resolveCFLocked(h)
	if err != nil {
		return err
	}
	for level := 0; level < cf.options().NumLevels-1; level++ {
		for len(db.vs.head(cf.id).overlappingFiles(level, start, end)) > 0 && db.bgErr == nil && !db.closed {
			v := db.vs.head(cf.id)
			c := &compaction{cf: cf, level: level, outputLevel: level + 1, maxParallel: max(db.options().MaxSubcompactions, 1)}
			c.inputs[0] = append([]*FileMeta(nil), v.overlappingFiles(level, start, end)...)
			if level == 0 {
				// L0 files overlap each other: widen to every L0 file
				// intersecting the chosen range so newer versions are not
				// left above older ones.
				smallest0, largest0 := keyRange(c.inputs[0])
				c.inputs[0] = v.overlappingFiles(0, smallest0.userKey(), largest0.userKey())
			}
			smallest, largest := keyRange(c.inputs[0])
			c.inputs[1] = v.overlappingFiles(level+1, smallest.userKey(), largest.userKey())
			if anyBusy(c.allInputs(), db.busyFiles) {
				if err := db.waitForBackgroundLocked(); err != nil {
					return err
				}
				continue
			}
			installed := false
			db.startCompactionLocked(c, "manual", &installed)
			for !installed {
				db.rt.wait()
			}
		}
	}
	if db.closed {
		return ErrClosed
	}
	return db.bgErr
}

// WaitForBackgroundIdle blocks until no flush or compaction is running or
// pending (in simulation the wait fast-forwards the virtual clock).
func (db *DB) WaitForBackgroundIdle() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	for {
		db.rt.poll()
		if db.bgErr != nil || db.rt.inFlight() == 0 {
			return db.bgErr
		}
		db.rt.wait()
	}
}

// Close flushes (unless avoid_flush_during_shutdown) and releases the DB.
// Closing is tolerant of background errors: resources are released even when
// the final flush cannot complete, and the first error encountered is
// returned.
func (db *DB) Close() error {
	var firstErr error
	if !db.options().AvoidFlushDuringShutdown {
		if err := db.Flush(); err != nil && !errors.Is(err, ErrClosed) {
			firstErr = err
		}
	}
	if err := db.WaitForBackgroundIdle(); err != nil && firstErr == nil {
		firstErr = err
	}
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return firstErr
	}
	db.closed = true
	db.rt.stop()
	// Every job handed to the runtime installs, even on failure; wait them
	// out so teardown cannot race a running flush or compaction.
	for db.rt.inFlight() > 0 {
		db.rt.wait()
	}
	// Periodic dumps run on the stats_dump_period_sec timer (statshistory.go);
	// one final dump here captures the tail of the run.
	if db.infoLog != nil {
		db.infoLog.logf("[db] close %s", db.dir)
		db.infoLog.logRaw(db.statsStringLocked())
		db.infoLog.logRaw(db.hists.String())
		db.infoLog.close()
	}
	db.tcache.close()
	if db.wal != nil {
		db.wal.close()
	}
	if err := db.vs.close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Metrics is a point-in-time view of engine state for monitoring and for
// the tuning framework's prompt builder. The top-level call aggregates every
// column family; GetCFMetrics scopes to one.
type Metrics struct {
	LevelFiles             []int
	LevelBytes             []int64
	MemtableBytes          int64
	ImmutableCount         int
	PendingCompactionBytes int64
	BlockCacheUsed         int64
	BlockCacheHits         int64
	BlockCacheMisses       int64
	RunningFlushes         int
	RunningCompactions     int
	LastSequence           uint64
	TotalSSTBytes          int64
	ColumnFamilies         []string
	StatsHistoryCount      int
	StatsHistoryBytes      int64
}

// GetMetrics snapshots engine state aggregated across column families.
func (db *DB) GetMetrics() Metrics {
	db.mu.Lock()
	defer db.mu.Unlock()
	m := Metrics{
		RunningFlushes:     db.flushActive,
		RunningCompactions: db.compactActive,
		LastSequence:       db.publishedSeq.Load(),
	}
	for _, cf := range db.cfOrder {
		m.ColumnFamilies = append(m.ColumnFamilies, cf.name)
		db.accumulateCFMetricsLocked(cf, &m)
	}
	if db.bcache != nil {
		m.BlockCacheUsed = db.bcache.Used()
		h, mi := db.bcache.HitRate()
		m.BlockCacheHits, m.BlockCacheMisses = h, mi
	}
	m.StatsHistoryCount, m.StatsHistoryBytes = db.history.footprint()
	return m
}

// GetCFMetrics snapshots one family's state (false when the name is not a
// live family).
func (db *DB) GetCFMetrics(name string) (Metrics, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	cf := db.cfNames[name]
	if cf == nil {
		return Metrics{}, false
	}
	m := Metrics{
		RunningFlushes:     db.flushActive,
		RunningCompactions: db.compactActive,
		LastSequence:       db.publishedSeq.Load(),
		ColumnFamilies:     []string{cf.name},
	}
	db.accumulateCFMetricsLocked(cf, &m)
	if db.bcache != nil {
		m.BlockCacheUsed = db.bcache.Used()
		h, mi := db.bcache.HitRate()
		m.BlockCacheHits, m.BlockCacheMisses = h, mi
	}
	return m, true
}

// accumulateCFMetricsLocked folds one family's state into m.
func (db *DB) accumulateCFMetricsLocked(cf *columnFamily, m *Metrics) {
	v := db.vs.head(cf.id)
	if v == nil {
		return
	}
	m.MemtableBytes += cf.mem.approximateBytes()
	m.ImmutableCount += len(cf.imm)
	m.PendingCompactionBytes += v.pendingCompactionBytes(cf.options())
	for l := 0; l < v.NumLevels(); l++ {
		for len(m.LevelFiles) <= l {
			m.LevelFiles = append(m.LevelFiles, 0)
			m.LevelBytes = append(m.LevelBytes, 0)
		}
		m.LevelFiles[l] += v.NumLevelFiles(l)
		m.LevelBytes[l] += v.LevelBytes(l)
		m.TotalSSTBytes += v.LevelBytes(l)
	}
}

// Options returns the default family's effective options (a copy).
func (db *DB) Options() *Options { return db.options().Clone() }

// OptionsCF returns one family's effective options (a copy). A nil handle
// targets the default family.
func (db *DB) OptionsCF(h *ColumnFamilyHandle) (*Options, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	cf, err := db.resolveCFLocked(h)
	if err != nil {
		return nil, err
	}
	return cf.options().Clone(), nil
}

// Config returns the DB's effective multi-family configuration (a copy).
func (db *DB) Config() *ConfigSet {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.cfg.Clone()
}

// Statistics returns the engine's statistics object.
func (db *DB) Statistics() *Statistics { return db.stats }

// Histograms returns the engine's latency histograms.
func (db *DB) Histograms() *HistogramStats { return db.hists }

// PerfContext returns the DB-wide per-operation profiling counters.
func (db *DB) PerfContext() *PerfContext { return db.perf }

// IOStats returns the DB-wide env-level I/O attribution counters.
func (db *DB) IOStats() *IOStatsContext { return db.iostats }

// SetPerfLevel switches per-operation profiling at runtime, like
// rocksdb::SetPerfLevel.
func (db *DB) SetPerfLevel(l PerfLevel) {
	db.perf.SetLevel(l)
	db.iostats.SetLevel(l)
}

// Env returns the environment the DB runs on.
func (db *DB) Env() Env { return db.env }
