package lsm

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the RocksDB-style write-thread/group-commit pipeline.
//
// OS mode: concurrent writers enqueue; one becomes the group leader, claims
// the queued batches, assigns sequence numbers, appends every batch to the
// WAL as one record run with at most one sync, then either applies all
// memtable inserts itself or (allow_concurrent_memtable_write) lets the
// followers insert their own batches in parallel through the lock-free
// skiplist. The group's last sequence is published — made visible to reads —
// only after every insert has landed, in group order.
//
// Sim mode (db.writeSim): the virtual-thread event loop serializes
// foreground ops, so groups cannot form from real races; SimEnv.pipelineWrite
// (simenv.go) models the same pipeline on the virtual clock instead.

// Writer states. Monotonically increasing; each transition sends one token
// on the writer's wake channel.
const (
	writerPending  int32 = iota
	writerLeader         // promoted to lead the next group
	writerParallel       // leader published mem/wg; insert your own batch
	writerDone           // group committed (err holds the outcome)
)

// writeRequest is one writer waiting in the write queue.
type writeRequest struct {
	batch      *WriteBatch
	sync       bool
	disableWAL bool

	state atomic.Int32
	// wake carries one token per state transition (at most two transitions
	// are observable by a waiter, so capacity 2 keeps sends non-blocking).
	wake chan struct{}

	// Leader-set fields. The follower reads them only after observing
	// writerParallel, so the atomic state store orders the accesses.
	mems memSet
	wg   *sync.WaitGroup

	err       error // group outcome, set before writerDone
	insertErr error // follower's own memtable insert error
}

// to advances the writer's state and wakes a blocked waiter.
func (w *writeRequest) to(state int32) {
	w.state.Store(state)
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// writeThread is the write queue: at most one leader is active; writers
// arriving while it runs queue up and are claimed as the next group.
type writeThread struct {
	mu           sync.Mutex
	queue        []*writeRequest
	leaderActive bool
}

// enqueue registers a writer; it returns true when the writer should lead
// immediately (no leader was active).
func (wt *writeThread) enqueue(w *writeRequest) (leader bool) {
	wt.mu.Lock()
	defer wt.mu.Unlock()
	if !wt.leaderActive {
		wt.leaderActive = true
		return true
	}
	wt.queue = append(wt.queue, w)
	return false
}

// maxWriteGroupBytes caps a claimed group, like RocksDB's max_write_batch_group_size.
const maxWriteGroupBytes = 1 << 20

// claim forms the leader's group: the queue prefix with matching WAL
// disposition, up to the group byte cap.
func (wt *writeThread) claim(leader *writeRequest) []*writeRequest {
	wt.mu.Lock()
	defer wt.mu.Unlock()
	group := []*writeRequest{leader}
	size := leader.batch.ApproximateSize()
	n := 0
	for _, w := range wt.queue {
		if w.disableWAL != leader.disableWAL {
			break
		}
		if size+w.batch.ApproximateSize() > maxWriteGroupBytes {
			break
		}
		size += w.batch.ApproximateSize()
		group = append(group, w)
		n++
	}
	wt.queue = wt.queue[n:]
	return group
}

// handoff promotes the next queued writer to leader, or clears the leader
// slot when the queue is empty.
func (wt *writeThread) handoff() {
	wt.mu.Lock()
	var next *writeRequest
	if len(wt.queue) > 0 {
		next = wt.queue[0]
		wt.queue = wt.queue[1:]
	} else {
		wt.leaderActive = false
	}
	wt.mu.Unlock()
	if next != nil {
		next.to(writerLeader)
	}
}

// memSet maps column-family ids to the memtables a write group inserts
// into — one consistent capture taken under db.mu at commit time.
type memSet map[uint32]*memtable

// insertBatch applies a batch's entries, routing each to its family's
// memtable.
func insertBatch(mems memSet, b *WriteBatch) error {
	return b.iterate(func(seq uint64, cfID uint32, kind ValueKind, key, value []byte) error {
		mem := mems[cfID]
		if mem == nil {
			return fmt.Errorf("%w: id %d (write)", ErrColumnFamilyNotFound, cfID)
		}
		mem.add(seq, kind, key, value) // add copies
		return nil
	})
}

// awaitStateChange waits for the writer to leave writerPending, spinning
// first when adaptive yield is enabled: cheap when the leader hands off
// within the yield budget, and backing off to a blocking wait when a single
// yield repeatedly runs long (cores oversubscribed — RocksDB's
// write_thread_slow_yield_usec heuristic).
func (db *DB) awaitStateChange(w *writeRequest) int32 {
	if db.options().EnableWriteThreadAdaptiveYield && db.options().WriteThreadMaxYieldUsec > 0 {
		deadline := time.Now().Add(time.Duration(db.options().WriteThreadMaxYieldUsec) * time.Microsecond)
		slow := time.Duration(db.options().WriteThreadSlowYieldUsec) * time.Microsecond
		slowCount := 0
		for time.Now().Before(deadline) {
			if s := w.state.Load(); s != writerPending {
				return s
			}
			t0 := time.Now()
			runtime.Gosched()
			if time.Since(t0) > slow {
				slowCount++
				if slowCount >= 3 {
					break
				}
			} else {
				slowCount = 0
			}
		}
	}
	return db.awaitAtLeast(w, writerLeader)
}

// awaitAtLeast blocks until the writer's state reaches target.
func (db *DB) awaitAtLeast(w *writeRequest, target int32) int32 {
	for {
		if s := w.state.Load(); s >= target {
			return s
		}
		<-w.wake
	}
}

// writeOS is the OS-mode write path: join the write queue, lead a group or
// follow one, and return the group's outcome.
func (db *DB) writeOS(wo *WriteOptions, batch *WriteBatch) error {
	w := &writeRequest{
		batch:      batch,
		sync:       wo.Sync,
		disableWAL: wo.DisableWAL || db.options().DisableWAL,
		wake:       make(chan struct{}, 2),
	}
	if !db.wt.enqueue(w) {
		enqueuedAt := db.rt.stopwatch()
		st := db.awaitStateChange(w)
		db.recordSince(HistWriteJoinMicros, enqueuedAt)
		if st == writerParallel {
			w.insertErr = insertBatch(w.mems, w.batch)
			w.wg.Done()
			st = db.awaitAtLeast(w, writerDone)
		}
		if st == writerDone {
			db.stats.Add(TickerWriteDoneByOther, 1)
			return w.err
		}
		// Promoted to leader: fall through.
	}
	return db.leadGroup(w)
}

// leadGroup runs one full group commit with w as leader.
func (db *DB) leadGroup(leader *writeRequest) error {
	group := db.wt.claim(leader)
	db.stats.Add(TickerWriteDoneBySelf, 1)
	db.hists.RecordValue(HistWriteGroupSize, int64(len(group)))

	var totalBytes int64
	for _, w := range group {
		totalBytes += w.batch.ApproximateSize()
	}

	// Commit stage. commitMu excludes Flush/Close memtable switches from the
	// window where the leader appends to the WAL outside db.mu (lock order:
	// commitMu then db.mu).
	db.commitMu.Lock()
	db.mu.Lock()
	var err error
	// Writers naming an unknown (dropped) family fail individually; the rest
	// of the group commits. commit holds the surviving writers.
	var commit []*writeRequest
	// touched holds the families the group writes to, in db.cfOrder order so
	// a multi-family group meets the write controller in the same order on
	// every run.
	touched := make([]*columnFamily, 0, 4) // constant cap: stays on the stack
	if db.closed {
		err = ErrClosed
	} else {
		for _, w := range group {
			var bad error
			wcfs := make([]*columnFamily, 0, len(w.batch.cfIDs))
			for _, id := range w.batch.cfIDs {
				cf := db.cfs[id]
				if cf == nil {
					bad = fmt.Errorf("%w: id %d (write)", ErrColumnFamilyNotFound, id)
					break
				}
				wcfs = append(wcfs, cf)
			}
			if bad != nil {
				w.err = bad
				continue
			}
			commit = append(commit, w)
			for _, cf := range wcfs {
				if !slices.Contains(touched, cf) {
					touched = append(touched, cf)
				}
			}
		}
		slices.SortFunc(touched, func(a, b *columnFamily) int { return cmp.Compare(a.id, b.id) })
		for _, cf := range touched {
			if err = db.makeRoomForWriteLocked(cf, totalBytes); err != nil {
				break
			}
		}
	}
	if err != nil || len(commit) == 0 {
		db.mu.Unlock()
		db.commitMu.Unlock()
		db.wt.handoff()
		db.finishGroup(group, err)
		if leader.err != nil {
			return leader.err
		}
		return err
	}
	prevSeq := db.vs.lastSeq
	seq := prevSeq + 1
	for _, w := range commit {
		w.batch.setSequence(seq)
		seq += uint64(w.batch.Count())
	}
	lastSeq := seq - 1
	db.vs.lastSeq = lastSeq
	wal := db.wal
	// Capture and pin every touched family's memtable until the group's
	// inserts land (a pipelined successor group may switch memtables while we
	// insert; makeRoomForWriteLocked re-reads cf.mem, so capture after it).
	mems := make(memSet, len(touched))
	pinned := make([]*memtable, 0, len(touched))
	for _, cf := range touched {
		mems[cf.id] = cf.mem
		cf.mem.writers.Add(1)
		pinned = append(pinned, cf.mem)
	}
	db.mu.Unlock()

	// WAL stage: every batch in one record run, at most one sync.
	if !group[0].disableWAL {
		reps := make([][]byte, len(commit))
		needSync := false
		for i, w := range commit {
			reps[i] = w.batch.rep
			needSync = needSync || w.sync
		}
		timedWAL := db.perf.TimeEnabled()
		var walStart time.Time
		if timedWAL {
			walStart = time.Now()
		}
		err = wal.addRecords(reps)
		if err == nil && needSync {
			err = wal.sync()
		}
		if timedWAL {
			db.perf.AddTime(PerfWriteWALTime, time.Since(walStart))
		}
		if err != nil {
			// A failed WAL append or sync leaves the log's durable extent
			// unknown; make the error sticky so later writes cannot commit
			// past a hole in the log. Resume re-syncs the WAL.
			db.mu.Lock()
			db.setBGErrorLocked(err, "wal")
			db.mu.Unlock()
		}
	}
	db.commitMu.Unlock()

	pipelined := db.options().EnablePipelinedWrite
	if pipelined {
		// Promote the next leader now so its WAL stage overlaps our
		// memtable stage.
		db.wt.handoff()
	}

	// Memtable stage.
	leaderCommits := leader.err == nil
	timedMem := db.perf.TimeEnabled()
	var memStart time.Time
	if timedMem {
		memStart = time.Now()
	}
	if err == nil {
		followers := commit
		if leaderCommits {
			followers = commit[1:]
		}
		if db.options().AllowConcurrentMemtableWrite && len(followers) > 0 {
			var wg sync.WaitGroup
			wg.Add(len(followers))
			for _, w := range followers {
				w.mems, w.wg = mems, &wg
				w.to(writerParallel)
			}
			if leaderCommits {
				err = insertBatch(mems, leader.batch)
			}
			wg.Wait()
			for _, w := range followers {
				if err == nil && w.insertErr != nil {
					err = w.insertErr
				}
			}
		} else {
			for _, w := range commit {
				if e := insertBatch(mems, w.batch); e != nil && err == nil {
					err = e
				}
			}
		}
	}
	if timedMem {
		db.perf.AddTime(PerfWriteMemtableTime, time.Since(memStart))
	}
	for _, m := range pinned {
		m.writers.Done()
	}

	// Publish in group order: reads at sequence S must see every entry with
	// sequence <= S, so a group waits for its predecessor before exposing
	// its own last sequence. Published even on error — the sequences were
	// allocated and later groups' publishes chain behind ours.
	db.publishSequence(prevSeq, lastSeq)

	var committedBytes int64
	for _, w := range commit {
		committedBytes += w.batch.ApproximateSize()
	}
	db.stats.Add(TickerBytesWritten, committedBytes)
	if !pipelined {
		db.wt.handoff()
	}
	db.finishGroup(group, err)
	if leader.err != nil {
		return leader.err
	}
	return err
}

// publishSequence advances the published sequence from prev to last once the
// predecessor group has published.
func (db *DB) publishSequence(prev, last uint64) {
	db.publishMu.Lock()
	for db.publishedSeq.Load() != prev {
		db.publishCond.Wait()
	}
	db.publishedSeq.Store(last)
	db.publishCond.Broadcast()
	db.publishMu.Unlock()
}

// finishGroup delivers the group outcome to the followers. Writers that
// already failed individually (unknown column family) keep their own error.
func (db *DB) finishGroup(group []*writeRequest, err error) {
	for _, w := range group[1:] {
		if w.err == nil {
			w.err = err
		}
		w.to(writerDone)
	}
}

// writeSim is the sim-mode write path. It runs under db.mu (the event loop
// serializes foreground ops); SimEnv.pipelineWrite models the group-commit
// pipeline around its serialized section on the virtual clock.
func (db *DB) writeSim(wo *WriteOptions, batch *WriteBatch) error {
	// Stage CPU costs. Their sum matches the pre-pipeline write-path cost
	// formula (calibrated against db_bench fillrandom on a warmed NVMe box,
	// ~2-3 us/op before stall effects), split into the WAL-framing part and
	// the memtable-insert part.
	walCPU := 500*time.Nanosecond + time.Duration(batch.ApproximateSize()>>10)*200*time.Nanosecond
	memCPU := 400*time.Nanosecond + time.Duration(batch.Count())*1100*time.Nanosecond

	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	o := db.options()
	disableWAL := wo.DisableWAL || o.DisableWAL
	mems := make(memSet, len(batch.cfIDs))
	// The serialized window: write-controller stalls (slowdown stalls block
	// the whole queue, exactly as RocksDB's delayed writer does), memtable
	// switches, WAL framing + append (+ the group's amortized sync) and,
	// unless concurrent, the memtable insert. The deterministic stage costs
	// are booked as the perf timings so enable_time runs stay reproducible.
	slot, err := db.sim.pipelineWrite(o, wo.Sync && !disableWAL, memCPU, func(concurrent, syncNow bool) error {
		for _, id := range batch.cfIDs {
			cf := db.cfs[id]
			if cf == nil {
				return fmt.Errorf("%w: id %d (write)", ErrColumnFamilyNotFound, id)
			}
			if err := db.makeRoomForWriteLocked(cf, batch.ApproximateSize()); err != nil {
				return err
			}
			mems[id] = cf.mem
		}
		batch.setSequence(db.vs.lastSeq + 1)
		db.vs.lastSeq += uint64(batch.Count())
		db.sim.ChargeCPU(walCPU)
		db.perf.AddTime(PerfWriteWALTime, walCPU)
		if !disableWAL {
			err := db.wal.addRecord(batch.rep)
			if err == nil && syncNow {
				err = db.wal.sync()
			}
			if err != nil {
				db.setBGErrorLocked(err, "wal")
				return err
			}
		}
		if !concurrent {
			db.sim.ChargeCPU(memCPU)
			db.perf.AddTime(PerfWriteMemtableTime, memCPU)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := insertBatch(mems, batch); err != nil {
		return err
	}
	db.publishedSeq.Store(db.vs.lastSeq)
	if slot.concurrent {
		// The insert runs outside the serialized window, in parallel with
		// the rest of the group; CAS retries and cache-line traffic make it
		// slightly dearer than the exclusive path.
		db.sim.ChargeCPU(memCPU * 115 / 100)
		db.perf.AddTime(PerfWriteMemtableTime, memCPU)
	}
	if slot.queued > 0 {
		db.hists.Record(HistWriteJoinMicros, slot.queued)
	}
	if slot.leader {
		db.stats.Add(TickerWriteDoneBySelf, 1)
		db.hists.RecordValue(HistWriteGroupSize, int64(slot.group))
	} else {
		db.stats.Add(TickerWriteDoneByOther, 1)
	}
	db.stats.Add(TickerBytesWritten, batch.ApproximateSize())
	return nil
}
