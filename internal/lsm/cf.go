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
	// DB.SetOptions clones, modifies and swaps under db.mu. CF-scoped
	// knobs (write_buffer_size, triggers, compaction style, table options,
	// ...) are read from here; DB-scoped knobs (WAL sync policy, background
	// slots, stall rates, ...) are always read from the default family's
	// snapshot via DB.options().
	opts atomic.Pointer[Options]

	mem           *memtable
	imm           []*memtable // oldest first
	flushingCount int         // prefix of imm currently being flushed
	// retired is the family's last flushed memtable, kept for its arena:
	// the next memtable carves from it once no reader holds a version
	// numbered below retiredAt (DB.recycleRetiredLocked). A later flush
	// displaces it to the GC, so a family keeps at most one.
	retired   *memtable
	retiredAt uint64
	levelIO   []levelIOStats

	// Foreground traffic counters for workload characterization: point
	// lookups, write ops and iterator seeks routed to this family. Atomic
	// (updated outside db.mu, read lock-free by WorkloadCounters).
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
	db.newMemtableLocked(cf)
	db.registerCFLocked(cf)
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
	db.deleteObsoleteFilesLocked()
	db.infoLog.logf("[cf] dropped column family %q (id=%d)", cf.name, cf.id)
	return nil
}

// PutCF inserts or overwrites a key in the given family.
func (db *DB) PutCF(wo *WriteOptions, h *ColumnFamilyHandle, key, value []byte) error {
	return db.writeOne(wo, cfHandleID(h), KindValue, key, value)
}

// DeleteCF removes a key from the given family.
func (db *DB) DeleteCF(wo *WriteOptions, h *ColumnFamilyHandle, key []byte) error {
	return db.writeOne(wo, cfHandleID(h), KindDelete, key, nil)
}

// pointBatches recycles the one-entry batches Put, Delete, PutCF and
// DeleteCF commit through. A batch is free again once Write returns: its
// entry is in the WAL and the memtable by then, and nothing reads it after.
// A follower's batch payload is still listed in its leader's g.reps at that
// point; the leader only clears that slot (writeRequest.release) and never
// reads it again, so the next writer may refill the batch.
var pointBatches = sync.Pool{New: func() any { return NewWriteBatch() }}

// maxPooledBatch bounds the batches pointBatches keeps: one that a large
// value grew past it is left to the collector.
const maxPooledBatch = 64 << 10

// writeOne commits one entry of kind for family id through a pooled batch.
func (db *DB) writeOne(wo *WriteOptions, id uint32, kind ValueKind, key, value []byte) error {
	b := pointBatches.Get().(*WriteBatch)
	b.add(id, kind, key, value)
	err := db.Write(wo, b)
	if cap(b.rep) <= maxPooledBatch {
		b.Clear()
		pointBatches.Put(b)
	}
	return err
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

// captureReadState snapshots a family's read inputs under db.mu. The frozen
// memtables are copied into imms (which may be nil), so a caller that keeps
// a buffer across reads copies them without allocating.
func (db *DB) captureReadState(h *ColumnFamilyHandle, ro *ReadOptions, imms []*memtable) (readState, error) {
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
	// Hold the version's tables on disk until the read finishes: a
	// compaction (or one kicked off by a live SetOptions change) may retire
	// and delete them while the lookup runs outside db.mu. The version is
	// referenced before st is built, so escape analysis does not tie imms to
	// the version's trip into refVersions and a caller's array can stay on
	// its stack.
	v := db.vs.head(cf.id)
	db.refVersionLocked(v)
	st := readState{
		mem:  cf.mem,
		imms: append(imms[:0], cf.imm...),
		v:    v,
		cf:   cf,
		// Read at the published sequence: entries whose group has not
		// finished its memtable inserts are not yet visible.
		seq: db.publishedSeq.Load(),
	}
	if ro.Snapshot != nil {
		st.seq = ro.Snapshot.seq
	}
	return st, nil
}

// lookupInState performs one key lookup against a captured read state:
// memtable, then frozen memtables newest first, then SSTables by level. The
// value is appended to dst; on a miss or an error dst comes back unchanged.
// PerfContext attributes the memtable phase and the SST phase separately
// (get_from_memtable_time vs get_from_output_files_time).
func (db *DB) lookupInState(dst []byte, st readState, key []byte) ([]byte, error) {
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
		return db.memtableHit(dst, val, deleted)
	}
	for i := len(st.imms) - 1; i >= 0; i-- {
		db.perf.Add(PerfGetFromMemtableCount, 1)
		if val, found, deleted := st.imms[i].get(lookup); found {
			if timed {
				db.perf.AddTime(PerfGetFromMemtableTime, time.Since(phaseStart))
			}
			return db.memtableHit(dst, val, deleted)
		}
	}
	db.stats.Add(TickerMemtableMiss, 1)
	if timed {
		now := time.Now()
		db.perf.AddTime(PerfGetFromMemtableTime, now.Sub(phaseStart))
		phaseStart = now
	}
	dst, err := db.lookupInTables(dst, st, key, lookup)
	if timed {
		db.perf.AddTime(PerfGetFromOutputFilesTime, time.Since(phaseStart))
	}
	return dst, err
}

// memtableHit resolves a lookup that a memtable answered: a tombstone is
// ErrNotFound, a value is appended to dst (the memtable's arena is never
// handed out).
func (db *DB) memtableHit(dst, val []byte, deleted bool) ([]byte, error) {
	db.stats.Add(TickerMemtableHit, 1)
	if deleted {
		db.stats.Add(TickerGetMiss, 1)
		return dst, ErrNotFound
	}
	db.stats.Add(TickerGetHit, 1)
	db.stats.Add(TickerBytesRead, int64(len(val)))
	return append(dst, val...), nil
}

// lookupKeyPool recycles the internal-key buffer a point lookup probes
// memtables and tables with; it never escapes lookupInState (memtable hits
// and tableReader.get append the value to the caller's dst before
// returning).
var lookupKeyPool = sync.Pool{
	New: func() any { return new(internalKey) },
}

// probeTable checks one file for the lookup key, appending a found value to
// dst. done reports that the lookup is resolved (value hit, tombstone, or
// error) and the search must stop; dst comes back unchanged unless the
// table held a live value.
func (db *DB) probeTable(dst []byte, fm *FileMeta, lookup internalKey) (_ []byte, done bool, err error) {
	r, err := db.tcache.get(fm.Number)
	if err != nil {
		return dst, true, err
	}
	n := len(dst)
	dst, found, deleted, err := r.get(dst, lookup)
	r.unref()
	if err != nil {
		return dst, true, err
	}
	if !found {
		return dst, false, nil
	}
	if deleted {
		db.stats.Add(TickerGetMiss, 1)
		return dst, true, ErrNotFound
	}
	db.stats.Add(TickerGetHit, 1)
	db.stats.Add(TickerBytesRead, int64(len(dst)-n))
	return dst, true, nil
}

// lookupInTables is the SST phase of a lookup: probe the levels of the
// captured version newest-data-first through the table cache — every
// overlapping L0 file newest-first, then the at-most-one candidate per
// disjoint level.
func (db *DB) lookupInTables(dst []byte, st readState, key []byte, lookup internalKey) ([]byte, error) {
	for _, fm := range st.v.LevelFiles(0) {
		if !overlapsRange(fm, key, key) {
			continue
		}
		if dst, done, err := db.probeTable(dst, fm, lookup); done {
			return dst, err
		}
	}
	for level := 1; level < st.v.NumLevels(); level++ {
		fm := st.v.levelFileForGet(level, key)
		if fm == nil {
			continue
		}
		if dst, done, err := db.probeTable(dst, fm, lookup); done {
			return dst, err
		}
	}
	db.stats.Add(TickerGetMiss, 1)
	return dst, ErrNotFound
}

// GetCF returns the value stored for key in the given family, in storage
// of its own.
func (db *DB) GetCF(ro *ReadOptions, h *ColumnFamilyHandle, key []byte) ([]byte, error) {
	return db.AppendGetCF(nil, ro, h, key)
}

// AppendGetCF appends the value stored for key in the given family to dst
// and returns the extended slice; on ErrNotFound or any other error dst is
// returned unchanged. The value never aliases engine storage, so a caller
// that reuses dst across lookups reads without allocating once dst is large
// enough.
func (db *DB) AppendGetCF(dst []byte, ro *ReadOptions, h *ColumnFamilyHandle, key []byte) ([]byte, error) {
	if ro == nil {
		ro = defaultReadOptions
	}
	defer db.recordSince(HistGetMicros, db.rt.stopwatch())
	db.env.ChargeCPU(simPrices.get.d)
	var imms [4]*memtable // captureReadState copies the frozen memtables here
	st, err := db.captureReadState(h, ro, imms[:0])
	if err != nil {
		return dst, err
	}
	defer st.release()
	st.cf.readOps.Add(1)
	return db.lookupInState(dst, st, key)
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
	var imms [4]*memtable
	st, err := db.captureReadState(h, ro, imms[:0])
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
		vals[i], errs[i] = db.lookupInState(nil, st, key)
		bytesRead += int64(len(vals[i]))
	}
	db.stats.Add(TickerMultiGetBytesRead, bytesRead)
	return vals, errs
}
