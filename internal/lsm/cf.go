package lsm

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultColumnFamilyName is the name of the family every DB always has,
// and the one the single-CF API (Put/Get/Delete/NewIterator) targets.
const DefaultColumnFamilyName = "default"

// ErrColumnFamilyNotFound is returned when a handle or name does not
// resolve to a live column family.
var ErrColumnFamilyNotFound = errors.New("lsm: column family not found")

// columnFamily holds all per-keyspace state: the active memtable and its
// frozen predecessors, flush bookkeeping, per-level I/O accounting, and the
// family's effective options. The version (level shape) lives in the shared
// versionSet keyed by id. All fields below opts are guarded by DB.mu.
type columnFamily struct {
	id   uint32
	name string
	// opts carries this family's effective options as an atomically
	// swappable immutable snapshot: readers call options() (lock-free),
	// DB.SetOptions/SetDBOptions clone-modify-swap under db.mu. CF-scoped
	// knobs (write_buffer_size, triggers, compaction style, table options,
	// ...) are read from here; DB-scoped knobs (WAL sync policy, background
	// slots, stall rates, ...) are always read from the default family's
	// snapshot via DB.options().
	opts atomic.Pointer[Options]

	mem           *memtable
	imm           []*memtable // oldest first
	flushingCount int         // prefix of imm currently being flushed
	levelIO       []levelIOStats

	// Foreground traffic counters for workload characterization: point
	// lookups, write ops and iterator seeks routed to this family. Atomic
	// (updated outside db.mu, read lock-free by CaptureWorkloadSnapshot).
	readOps  atomic.Int64
	writeOps atomic.Int64
	scanOps  atomic.Int64
}

// options returns the family's current effective-options snapshot. The
// returned Options must be treated as immutable; a SetOptions call swaps the
// whole snapshot, so capture it once per decision when within-decision
// consistency matters.
func (cf *columnFamily) options() *Options { return cf.opts.Load() }

// ColumnFamilyHandle names a column family to the public API. A nil handle
// everywhere means the default family.
type ColumnFamilyHandle struct {
	db   *DB
	id   uint32
	name string
}

// Name returns the family's name.
func (h *ColumnFamilyHandle) Name() string {
	if h == nil {
		return DefaultColumnFamilyName
	}
	return h.name
}

// ID returns the family's numeric id (0 = default).
func (h *ColumnFamilyHandle) ID() uint32 {
	if h == nil {
		return 0
	}
	return h.id
}

// cfHandleID maps a handle (possibly nil) to its family id.
func cfHandleID(h *ColumnFamilyHandle) uint32 {
	if h == nil {
		return 0
	}
	return h.id
}

// resolveCFLocked maps a handle to the live columnFamily. Callers hold db.mu.
func (db *DB) resolveCFLocked(h *ColumnFamilyHandle) (*columnFamily, error) {
	if h == nil {
		return db.defaultCF, nil
	}
	if h.db != db {
		return nil, fmt.Errorf("lsm: column family handle %q belongs to another DB", h.name)
	}
	cf := db.cfs[h.id]
	if cf == nil {
		return nil, fmt.Errorf("%w: %q (dropped?)", ErrColumnFamilyNotFound, h.name)
	}
	return cf, nil
}

// registerCFLocked installs a family into the DB-side lookup structures and
// refreshes the lock-free snapshot used by engineMemory.
func (db *DB) registerCFLocked(cf *columnFamily) {
	db.cfs[cf.id] = cf
	db.cfNames[cf.name] = cf
	db.cfOrder = append(db.cfOrder, cf)
	sort.Slice(db.cfOrder, func(i, j int) bool { return db.cfOrder[i].id < db.cfOrder[j].id })
	db.refreshCFSnapshotLocked()
}

// unregisterCFLocked removes a dropped family from the lookup structures.
func (db *DB) unregisterCFLocked(cf *columnFamily) {
	delete(db.cfs, cf.id)
	delete(db.cfNames, cf.name)
	order := db.cfOrder[:0]
	for _, c := range db.cfOrder {
		if c != cf {
			order = append(order, c)
		}
	}
	db.cfOrder = order
	db.refreshCFSnapshotLocked()
}

// refreshCFSnapshotLocked publishes the family list for lock-free readers.
func (db *DB) refreshCFSnapshotLocked() {
	snap := append([]*columnFamily(nil), db.cfOrder...)
	db.cfSnap.Store(&snap)
}

// anyImmLocked reports whether any family has frozen memtables waiting.
func (db *DB) anyImmLocked() bool {
	for _, cf := range db.cfOrder {
		if len(cf.imm) > 0 {
			return true
		}
	}
	return false
}

// DefaultColumnFamily returns the handle of the always-present family.
func (db *DB) DefaultColumnFamily() *ColumnFamilyHandle {
	return &ColumnFamilyHandle{db: db, id: 0, name: DefaultColumnFamilyName}
}

// GetColumnFamily resolves a family by name.
func (db *DB) GetColumnFamily(name string) (*ColumnFamilyHandle, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	cf := db.cfNames[name]
	if cf == nil {
		return nil, fmt.Errorf("%w: %q", ErrColumnFamilyNotFound, name)
	}
	return &ColumnFamilyHandle{db: db, id: cf.id, name: cf.name}, nil
}

// ListColumnFamilies returns live family names in id order (default first).
func (db *DB) ListColumnFamilies() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	names := make([]string, 0, len(db.cfOrder))
	for _, cf := range db.cfOrder {
		names = append(names, cf.name)
	}
	return names
}

// CreateColumnFamily creates a new family with its own options (nil opts
// clones the DB's). The creation is durable once the method returns: the
// manifest edit carrying it is synced.
func (db *DB) CreateColumnFamily(name string, opts *Options) (*ColumnFamilyHandle, error) {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	if db.bgErr != nil {
		return nil, db.bgErr
	}
	return db.createColumnFamilyLocked(name, opts)
}

// createColumnFamilyLocked is the locked core of CreateColumnFamily, also
// used at open for families the config names but the manifest lacks.
func (db *DB) createColumnFamilyLocked(name string, opts *Options) (*ColumnFamilyHandle, error) {
	if name == "" {
		return nil, fmt.Errorf("lsm: empty column family name")
	}
	if opts == nil {
		opts = db.options()
	}
	opts = opts.Clone()
	opts.Env = db.env
	opts.Stats = db.stats
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if _, taken := db.cfNames[name]; taken {
		return nil, fmt.Errorf("lsm: column family %q already exists", name)
	}
	id := db.vs.maxCF + 1
	edit := &versionEdit{
		cfID:         id,
		addCFs:       []addCF{{id: id, name: name, numLevels: opts.NumLevels}},
		hasLogNumber: true,
		logNumber:    db.walNum, // nothing older than the live WAL belongs to it
	}
	if err := db.vs.logAndApply(edit); err != nil {
		return nil, err
	}
	cf := &columnFamily{
		id:      id,
		name:    name,
		levelIO: make([]levelIOStats, opts.NumLevels),
	}
	cf.opts.Store(opts)
	db.memSeed++
	cf.mem = newMemtable(db.memSeed, db.walNum)
	db.registerCFLocked(cf)
	// Keep the effective multi-family config in sync for OPTIONS persistence.
	if db.cfg != nil && db.cfg.Lookup(name) == nil {
		db.cfg.Others = append(db.cfg.Others, CFConfig{Name: name, Options: opts})
	}
	db.infoLog.logf("[cf] created column family %q (id=%d write_buffer_size=%d)", name, id, opts.WriteBufferSize)
	return &ColumnFamilyHandle{db: db, id: id, name: name}, nil
}

// DropColumnFamily removes a family. Its keys become unreadable immediately
// and its SSTables are reclaimed (on the spot, or at the next reopen). The
// default family cannot be dropped.
func (db *DB) DropColumnFamily(h *ColumnFamilyHandle) error {
	if h == nil || h.id == 0 {
		return fmt.Errorf("lsm: cannot drop the default column family")
	}
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	cf, err := db.resolveCFLocked(h)
	if err != nil {
		return err
	}
	// Wait out in-flight background work so no flush/compaction installs an
	// edit for the family after the drop.
	for db.rt.inFlight() > 0 {
		if err := db.waitForBackgroundLocked(); err != nil {
			return err
		}
	}
	edit := &versionEdit{cfID: cf.id, dropCFs: []uint32{cf.id}}
	if err := db.vs.logAndApply(edit); err != nil {
		return err
	}
	db.unregisterCFLocked(cf)
	if db.cfg != nil {
		others := db.cfg.Others[:0]
		for _, c := range db.cfg.Others {
			if c.Name != cf.name {
				others = append(others, c)
			}
		}
		db.cfg.Others = others
	}
	db.deleteObsoleteFilesLocked()
	db.infoLog.logf("[cf] dropped column family %q (id=%d)", cf.name, cf.id)
	return nil
}

// PutCF inserts or overwrites a key in the given family.
func (db *DB) PutCF(wo *WriteOptions, h *ColumnFamilyHandle, key, value []byte) error {
	b := NewWriteBatch()
	b.PutCF(h, key, value)
	return db.Write(wo, b)
}

// DeleteCF removes a key from the given family.
func (db *DB) DeleteCF(wo *WriteOptions, h *ColumnFamilyHandle, key []byte) error {
	b := NewWriteBatch()
	b.DeleteCF(h, key)
	return db.Write(wo, b)
}

// readState is a consistent capture of one family's read inputs: the
// memtable chain and head version at a single moment, plus the visibility
// sequence. Captured once per Get and once per MultiGet batch.
type readState struct {
	mem  *memtable
	imms []*memtable
	v    *Version
	seq  uint64
	cf   *columnFamily
}

// release drops the version reference captureReadState took. Lock-free;
// must be called exactly once when the read completes.
func (st *readState) release() {
	if st.v != nil {
		st.v.refs.Add(-1)
	}
}

// captureReadState snapshots a family's read inputs under db.mu.
func (db *DB) captureReadState(h *ColumnFamilyHandle, ro *ReadOptions) (readState, error) {
	if db.perf.TimeEnabled() {
		start := time.Now()
		db.mu.Lock()
		db.perf.AddTime(PerfDBMutexLockNanos, time.Since(start))
	} else {
		db.mu.Lock()
	}
	defer db.mu.Unlock()
	if db.closed {
		return readState{}, ErrClosed
	}
	db.rt.poll()
	cf, err := db.resolveCFLocked(h)
	if err != nil {
		return readState{}, err
	}
	st := readState{
		mem:  cf.mem,
		imms: append([]*memtable(nil), cf.imm...),
		v:    db.vs.head(cf.id),
		cf:   cf,
		// Read at the published sequence: entries whose group has not
		// finished its memtable inserts are not yet visible.
		seq: db.publishedSeq.Load(),
	}
	// Hold the version's tables on disk until the read finishes: a
	// compaction (or one kicked off by a live SetOptions change) may retire
	// and delete them while the lookup runs outside db.mu.
	db.refVersionLocked(st.v)
	if ro.Snapshot != nil {
		st.seq = ro.Snapshot.seq
	}
	return st, nil
}

// lookupInState performs one key lookup against a captured read state:
// memtable, then frozen memtables newest first, then SSTables by level.
// PerfContext attributes the memtable phase and the SST phase separately
// (get_from_memtable_time vs get_from_output_files_time).
func (db *DB) lookupInState(st readState, key []byte) ([]byte, error) {
	kp := lookupKeyPool.Get().(*internalKey)
	lookup := makeInternalKey((*kp)[:0], key, st.seq, KindValue)
	*kp = lookup
	defer lookupKeyPool.Put(kp)
	timed := db.perf.TimeEnabled()
	var phaseStart time.Time
	if timed {
		phaseStart = time.Now()
	}
	db.perf.Add(PerfGetFromMemtableCount, 1)
	if val, found, deleted := st.mem.get(lookup); found {
		if timed {
			db.perf.AddTime(PerfGetFromMemtableTime, time.Since(phaseStart))
		}
		db.stats.Add(TickerMemtableHit, 1)
		if deleted {
			db.stats.Add(TickerGetMiss, 1)
			return nil, ErrNotFound
		}
		db.stats.Add(TickerGetHit, 1)
		db.stats.Add(TickerBytesRead, int64(len(val)))
		return append([]byte(nil), val...), nil
	}
	for i := len(st.imms) - 1; i >= 0; i-- {
		db.perf.Add(PerfGetFromMemtableCount, 1)
		if val, found, deleted := st.imms[i].get(lookup); found {
			if timed {
				db.perf.AddTime(PerfGetFromMemtableTime, time.Since(phaseStart))
			}
			db.stats.Add(TickerMemtableHit, 1)
			if deleted {
				db.stats.Add(TickerGetMiss, 1)
				return nil, ErrNotFound
			}
			db.stats.Add(TickerGetHit, 1)
			db.stats.Add(TickerBytesRead, int64(len(val)))
			return append([]byte(nil), val...), nil
		}
	}
	db.stats.Add(TickerMemtableMiss, 1)
	if timed {
		now := time.Now()
		db.perf.AddTime(PerfGetFromMemtableTime, now.Sub(phaseStart))
		phaseStart = now
	}
	val, err := db.lookupInTables(st, key, lookup)
	if timed {
		db.perf.AddTime(PerfGetFromOutputFilesTime, time.Since(phaseStart))
	}
	return val, err
}

// lookupKeyPool recycles the internal-key buffer a point lookup probes
// memtables and tables with; it never escapes lookupInState (memtable hits
// and tableReader.get copy the value out before returning).
var lookupKeyPool = sync.Pool{
	New: func() any { return new(internalKey) },
}

// probeTable checks one file for the lookup key. done reports that the
// lookup is resolved (value hit, tombstone, or error) and the search must
// stop. val is a private copy the caller may mutate freely.
func (db *DB) probeTable(fm *FileMeta, lookup internalKey) (val []byte, done bool, err error) {
	r, err := db.tcache.get(fm.Number)
	if err != nil {
		return nil, true, err
	}
	val, found, deleted, err := r.get(lookup)
	if err != nil {
		return nil, true, err
	}
	if !found {
		return nil, false, nil
	}
	if deleted {
		db.stats.Add(TickerGetMiss, 1)
		return nil, true, ErrNotFound
	}
	db.stats.Add(TickerGetHit, 1)
	db.stats.Add(TickerBytesRead, int64(len(val)))
	return val, true, nil
}

// lookupInTables is the SST phase of a lookup: probe the levels of the
// captured version newest-data-first through the table cache. Levels are
// walked directly (overlapping L0 files newest-first, then the at-most-one
// candidate per disjoint level) rather than materializing filesForGet's
// per-level slices.
func (db *DB) lookupInTables(st readState, key []byte, lookup internalKey) ([]byte, error) {
	for _, fm := range st.v.LevelFiles(0) {
		if !overlapsRange(fm, key, key) {
			continue
		}
		if val, done, err := db.probeTable(fm, lookup); done {
			return val, err
		}
	}
	for level := 1; level < st.v.NumLevels(); level++ {
		fm := st.v.levelFileForGet(level, key)
		if fm == nil {
			continue
		}
		if val, done, err := db.probeTable(fm, lookup); done {
			return val, err
		}
	}
	db.stats.Add(TickerGetMiss, 1)
	return nil, ErrNotFound
}

// GetCF returns the value stored for key in the given family.
func (db *DB) GetCF(ro *ReadOptions, h *ColumnFamilyHandle, key []byte) ([]byte, error) {
	if ro == nil {
		ro = defaultReadOptions
	}
	defer db.recordSince(HistGetMicros, db.rt.stopwatch())
	db.env.ChargeCPU(simPrices.get.d)
	st, err := db.captureReadState(h, ro)
	if err != nil {
		return nil, err
	}
	defer st.release()
	st.cf.readOps.Add(1)
	return db.lookupInState(st, key)
}

// MultiGet looks up a batch of keys in the default family. See MultiGetCF.
func (db *DB) MultiGet(ro *ReadOptions, keys [][]byte) ([][]byte, []error) {
	return db.MultiGetCF(ro, nil, keys)
}

// MultiGetCF looks up a batch of keys against one consistent capture of the
// family's memtables and version: the whole batch reads the same state, and
// the per-capture locking cost is paid once instead of once per key. Each
// key probes the table cache individually. Results are positional; missing
// keys get a nil value and ErrNotFound in errs.
func (db *DB) MultiGetCF(ro *ReadOptions, h *ColumnFamilyHandle, keys [][]byte) ([][]byte, []error) {
	if ro == nil {
		ro = defaultReadOptions
	}
	vals := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	db.stats.Add(TickerMultiGetCalls, 1)
	db.stats.Add(TickerMultiGetKeysRead, int64(len(keys)))
	if len(keys) == 0 {
		return vals, errs
	}
	db.env.ChargeCPU(time.Duration(len(keys)) * simPrices.multiGetKey.d)
	st, err := db.captureReadState(h, ro)
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
		return vals, errs
	}
	defer st.release()
	st.cf.readOps.Add(int64(len(keys)))
	var bytesRead int64
	for i, key := range keys {
		vals[i], errs[i] = db.lookupInState(st, key)
		bytesRead += int64(len(vals[i]))
	}
	db.stats.Add(TickerMultiGetBytesRead, bytesRead)
	return vals, errs
}
