package lsm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the RocksDB-style group-commit pipeline: one commit
// path (leadGroup) on both runtimes. The leader assigns its group a
// contiguous sequence run, appends every batch to the WAL as one record run
// with at most one sync, then inserts the batches itself or (concurrent
// inserts) lets the followers insert their own through the lock-free
// skiplist, and publishes the group's last sequence after every insert has
// landed, in group order. The simulation's stage prices are rows of
// simPrices (simprices.go), charged by ChargeCPU calls on this path (no-ops
// on the OS).
//
// The runtime decides only how a group forms and what waiting costs. The OS
// runs a real queue: the head leads the writers queued behind it, the rest
// wait. The simulation's event loop serializes writes, so each leads a group
// of one while the DB's writePipeline models the group its foreground
// threads would have formed, and its queue wait, on the virtual clock.

// Writer states. Monotonically increasing; each transition sends one token
// on the writer's wake channel.
const (
	writerPending  int32 = iota
	writerLeader         // promoted to lead the next group
	writerParallel       // leader published mems/wg; insert your own batch
	writerDone           // group committed (err holds the outcome)
)

// writeRequest is one writer on its way through the commit path. Requests
// are pooled: a single writer's commit allocates nothing for its group.
type writeRequest struct {
	batch      *WriteBatch
	sync       bool
	disableWAL bool

	state atomic.Int32
	// wake carries exactly one token per state transition, and the waiter
	// takes each token before the next transition can happen (await), so one
	// slot is enough and a request back in the pool holds no stale token.
	wake chan struct{}

	// Leader-set fields. The follower reads them only after observing
	// writerParallel, so the atomic state store orders the accesses.
	mems memSet
	wg   *sync.WaitGroup

	err       error         // group outcome, set before writerDone
	insertErr error         // follower's own memtable insert error
	waited    time.Duration // time spent queued before committing or leading

	g writeGroup // the group this writer leads
}

// writeGroup is the group a leader commits: its shape, set by the runtime's
// formGroup, and the leader's scratch, reused across pooled requests.
type writeGroup struct {
	members    []*writeRequest // leader first
	size       int             // group size the stats report (sim: modeled)
	leads      bool            // counts as its group's leader (write.self)
	syncs      bool            // the WAL append ends in a sync
	concurrent bool            // memtable inserts run outside the serialized window
	// start and arrival are the stopwatch reading and virtual time at which
	// the group formed (simRuntime only).
	start, arrival time.Duration

	mems memSet   // touched families, first-touch order
	reps [][]byte // committing batches' WAL payloads
}

var writeRequests = sync.Pool{New: func() any {
	return &writeRequest{wake: make(chan struct{}, 1)}
}}

// release returns w to the pool, dropping every reference it holds.
func (w *writeRequest) release() {
	g := &w.g
	clear(g.members)
	clear(g.mems)
	clear(g.reps)
	*w = writeRequest{wake: w.wake, g: writeGroup{members: g.members[:0], mems: g.mems[:0], reps: g.reps[:0]}}
	writeRequests.Put(w)
}

// to advances the writer's state and sends the transition's token.
func (w *writeRequest) to(state int32) {
	w.state.Store(state)
	w.wake <- struct{}{}
}

// await takes the token of w's next transition and returns the new state.
func await(w *writeRequest) int32 {
	<-w.wake
	return w.state.Load()
}

// familyMem is one family a write group inserts into and the memtable
// captured for it under db.mu at commit time.
type familyMem struct {
	cf  *columnFamily
	mem *memtable
}

// memSet is a write group's families; groups touch few, so lookups scan.
type memSet []familyMem

// add appends cf unless the set already holds it.
func (s memSet) add(cf *columnFamily) memSet {
	for _, m := range s {
		if m.cf == cf {
			return s
		}
	}
	return append(s, familyMem{cf: cf})
}

// insertBatch applies a batch's entries, routing each to its family's
// memtable.
func insertBatch(mems memSet, b *WriteBatch) error {
	return b.iterate(func(seq uint64, cfID uint32, kind ValueKind, key, value []byte) error {
		for _, m := range mems {
			if m.cf.id == cfID {
				m.mem.add(seq, kind, key, value) // add copies
				return nil
			}
		}
		return fmt.Errorf("%w: id %d (write)", ErrColumnFamilyNotFound, cfID)
	})
}

// commit takes one batch through the write queue — leading a group or
// committed by another writer's — and books the write tickers.
func (db *DB) commit(wo *WriteOptions, batch *WriteBatch) error {
	w := writeRequests.Get().(*writeRequest)
	defer w.release()
	w.batch, w.sync, w.disableWAL = batch, wo.Sync, wo.DisableWAL || db.options().DisableWAL
	if !db.rt.joinWrite(w) {
		db.leadGroup(w)
	}
	if w.g.leads {
		db.stats.Add(TickerWriteDoneBySelf, 1)
		db.hists.RecordValue(HistWriteGroupSize, int64(w.g.size))
	} else {
		db.stats.Add(TickerWriteDoneByOther, 1)
	}
	if w.waited > 0 {
		db.hists.Record(HistWriteJoinMicros, w.waited)
	}
	return w.err
}

// leadGroup runs one group commit with leader at its head and leaves every
// member's outcome in its err.
func (db *DB) leadGroup(leader *writeRequest) {
	db.rt.formGroup(leader)
	g := &leader.g
	var totalBytes int64
	for _, w := range g.members {
		totalBytes += w.batch.ApproximateSize()
	}

	// Commit stage. commitMu excludes Flush/Close memtable switches from the
	// window where the leader appends to the WAL outside db.mu (lock order:
	// commitMu then db.mu).
	db.commitMu.Lock()
	db.mu.Lock()
	var err error
	if db.closed {
		err = ErrClosed
	} else {
		// Writers naming an unknown (dropped) family fail individually; the
		// rest of the group commits and meets the write controller once per
		// family it touches.
	members:
		for _, w := range g.members {
			for _, id := range w.batch.cfIDs {
				if db.cfs[id] == nil {
					w.err = fmt.Errorf("%w: id %d (write)", ErrColumnFamilyNotFound, id)
					continue members
				}
			}
			for _, id := range w.batch.cfIDs {
				g.mems = g.mems.add(db.cfs[id])
			}
		}
		for _, m := range g.mems {
			if err = db.makeRoomForWriteLocked(m.cf, totalBytes); err != nil {
				break
			}
		}
	}
	if err != nil || len(g.mems) == 0 {
		db.mu.Unlock()
		db.commitMu.Unlock()
		db.rt.handoff()
		db.finishGroup(leader, err)
		return
	}
	// Sequence allocation, and the simulation's WAL and memtable stage
	// prices.
	prevSeq := db.vs.lastSeq
	seq := prevSeq + 1
	var walCPU, memCPU time.Duration
	var committedBytes int64
	for _, w := range g.members {
		if w.err != nil {
			continue
		}
		w.batch.setSequence(seq)
		seq += uint64(w.batch.Count())
		g.reps = append(g.reps, w.batch.rep)
		committedBytes += w.batch.ApproximateSize()
		walCPU += simPrices.walBatch.d + time.Duration(w.batch.ApproximateSize()>>10)*simPrices.walKiB.d
		memCPU += simPrices.memtableBatch.d + time.Duration(w.batch.Count())*simPrices.memtableEntry.d
	}
	lastSeq := seq - 1
	db.vs.lastSeq = lastSeq
	wal := db.wal
	// Capture and pin every touched family's memtable until the group's
	// inserts land (a pipelined successor group may switch memtables while we
	// insert; makeRoomForWriteLocked re-reads cf.mem, so capture after it).
	for i := range g.mems {
		g.mems[i].mem = g.mems[i].cf.mem
		g.mems[i].mem.writers.Add(1)
	}
	db.mu.Unlock()

	// WAL stage: every batch in one record run, at most one sync.
	timed := db.perf.TimeEnabled()
	var stageStart time.Duration
	if timed {
		stageStart = db.rt.stopwatch()
	}
	db.env.ChargeCPU(walCPU)
	if !leader.disableWAL {
		err = wal.addRecords(g.reps)
		if err == nil && g.syncs {
			err = wal.sync()
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
	if timed {
		db.perf.AddTime(PerfWriteWALTime, db.rt.stopwatch()-stageStart)
	}
	db.commitMu.Unlock()

	pipelined := db.options().EnablePipelinedWrite
	if pipelined {
		// Promote the next leader now so its WAL stage overlaps our
		// memtable stage.
		db.rt.handoff()
	}

	// Memtable stage. An exclusive insert is priced inside the serialized
	// window (which serialEnd closes for queueWait); a concurrent one runs
	// outside it, in parallel with the rest of the group, where CAS retries
	// and cache-line traffic make it slightly dearer.
	if timed {
		stageStart = db.rt.stopwatch()
	}
	if err == nil && !g.concurrent {
		db.env.ChargeCPU(memCPU)
	}
	serialEnd := db.rt.stopwatch()
	if err == nil {
		err = db.insertGroup(leader)
		if g.concurrent {
			db.env.ChargeCPU(memCPU * time.Duration(simPrices.concurrentInsert.pct) / 100)
		}
	}
	if timed {
		db.perf.AddTime(PerfWriteMemtableTime, db.rt.stopwatch()-stageStart)
	}
	for _, m := range g.mems {
		m.mem.writers.Done()
	}

	// Publish in group order: reads at sequence S must see every entry with
	// sequence <= S, so a group waits for its predecessor before exposing
	// its own last sequence. Published even on error — the sequences were
	// allocated and later groups' publishes chain behind ours.
	db.publishSequence(prevSeq, lastSeq)
	db.stats.Add(TickerBytesWritten, committedBytes)
	if !pipelined {
		db.rt.handoff()
	}
	db.rt.queueWait(leader, serialEnd, memCPU)
	db.finishGroup(leader, err)
}

// insertGroup applies the committing members' batches to the captured
// memtables: the leader inserts them all, or, with concurrent inserts,
// every follower inserts its own batch while the leader inserts its.
func (db *DB) insertGroup(leader *writeRequest) error {
	g := &leader.g
	parallel := g.concurrent && len(g.members) > 1
	var wg *sync.WaitGroup
	if parallel {
		wg = new(sync.WaitGroup)
		for _, w := range g.members[1:] {
			if w.err == nil {
				wg.Add(1)
				w.mems, w.wg = g.mems, wg
				w.to(writerParallel)
			}
		}
	}
	var err error
	for _, w := range g.members {
		if w.err == nil && (w == leader || !parallel) {
			if e := insertBatch(g.mems, w.batch); e != nil && err == nil {
				err = e
			}
		}
	}
	if parallel {
		wg.Wait()
		for _, w := range g.members[1:] {
			if err == nil && w.insertErr != nil {
				err = w.insertErr
			}
		}
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

// finishGroup delivers the group outcome. Members that already failed
// individually (unknown column family) keep their own error.
func (db *DB) finishGroup(leader *writeRequest, err error) {
	if leader.err == nil {
		leader.err = err
	}
	for _, w := range leader.g.members[1:] {
		if w.err == nil {
			w.err = err
		}
		w.to(writerDone)
	}
}

// --- osRuntime: the write queue ---

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

// claim forms the leader's group into group[:0]: the leader, then the queue
// prefix with matching WAL disposition, up to the group byte cap.
func (wt *writeThread) claim(leader *writeRequest, group []*writeRequest) []*writeRequest {
	wt.mu.Lock()
	defer wt.mu.Unlock()
	group = append(group[:0], leader)
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

// joinWrite queues w behind the active leader, if any, and waits: it returns
// false when w must lead a group, true when another leader committed it.
func (r *osRuntime) joinWrite(w *writeRequest) bool {
	if r.wt.enqueue(w) {
		return false
	}
	enqueuedAt := r.stopwatch()
	r.yield(w)
	st := await(w)
	w.waited = r.stopwatch() - enqueuedAt
	if st == writerParallel {
		w.insertErr = insertBatch(w.mems, w.batch)
		w.wg.Done()
		st = await(w)
	}
	return st == writerDone
}

// yield spins while w is pending when adaptive yield is enabled: cheap when
// the leader hands off within the yield budget, and backing off to a
// blocking wait when a single yield repeatedly runs long (cores
// oversubscribed — RocksDB's write_thread_slow_yield_usec heuristic).
func (r *osRuntime) yield(w *writeRequest) {
	o := r.db.options()
	if !o.EnableWriteThreadAdaptiveYield || o.WriteThreadMaxYieldUsec <= 0 {
		return
	}
	deadline := time.Now().Add(time.Duration(o.WriteThreadMaxYieldUsec) * time.Microsecond)
	slow := time.Duration(o.WriteThreadSlowYieldUsec) * time.Microsecond
	slowCount := 0
	for time.Now().Before(deadline) && w.state.Load() == writerPending {
		t0 := time.Now()
		runtime.Gosched()
		if time.Since(t0) <= slow {
			slowCount = 0
		} else if slowCount++; slowCount >= 3 {
			return
		}
	}
}

func (r *osRuntime) formGroup(leader *writeRequest) {
	g := &leader.g
	g.members = r.wt.claim(leader, g.members)
	g.size, g.leads, g.syncs = len(g.members), true, false
	g.concurrent = r.db.options().AllowConcurrentMemtableWrite
	for _, w := range g.members {
		g.syncs = g.syncs || w.sync
	}
}

func (r *osRuntime) handoff()                                              { r.wt.handoff() }
func (r *osRuntime) queueWait(*writeRequest, time.Duration, time.Duration) {}

// --- simRuntime: the modeled pipeline ---

const (
	// maxSimWriteGroup caps the modeled group size: queue depth cannot
	// exceed the number of foreground vthreads, and RocksDB groups rarely
	// grow past a handful of batches at db_bench batch sizes.
	maxSimWriteGroup = 8
)

// writePipeline is one DB's virtual write-lock timeline: the virtual times
// the WAL and memtable stages free up, the write position (for leader
// rotation) and the outstanding sync-amortization debt.
type writePipeline struct {
	mu                   sync.Mutex
	walFreeAt, memFreeAt time.Duration
	pos                  uint64
	syncDebt             int
}

func (r *simRuntime) joinWrite(*writeRequest) bool { return false }
func (r *simRuntime) handoff()                     {}

// formGroup models the group the foreground vthreads would have formed: its
// size follows their number, leadership rotates through it, and a Sync
// write syncs only once the group's worth of them is owed (the leader issues
// one sync on behalf of the whole group).
func (r *simRuntime) formGroup(leader *writeRequest) {
	g := &leader.g
	g.members = append(g.members[:0], leader)
	g.start = r.env.AccruedOpCost()
	g.arrival = r.env.Now() + g.start
	g.size = min(max(r.env.ForegroundThreads(), 1), maxSimWriteGroup)
	g.concurrent = r.db.options().AllowConcurrentMemtableWrite && g.size > 1
	p := &r.pipe
	p.mu.Lock()
	defer p.mu.Unlock()
	g.leads = p.pos%uint64(g.size) == 0
	p.pos++
	g.syncs = false
	if leader.sync && !leader.disableWAL {
		if p.syncDebt++; p.syncDebt >= g.size {
			p.syncDebt, g.syncs = 0, true
		}
	}
}

// queueWait places the group's serialized section — from formGroup to
// serialEnd, so device latencies, stalls and CPU contention all flow in — on
// the write-lock timeline. A write arriving while a stage is busy is charged
// the queue wait plus a handoff overhead governed by the write-thread yield
// knobs; insertCPU is the group's memtable insert price. Identical specs
// therefore produce identical timings.
func (r *simRuntime) queueWait(leader *writeRequest, serialEnd, insertCPU time.Duration) {
	g := &leader.g
	o := r.db.options()
	serial := serialEnd - g.start
	p := &r.pipe
	p.mu.Lock()
	defer p.mu.Unlock()
	var wait time.Duration
	if o.EnablePipelinedWrite {
		// Two stages: this write's memtable stage overlaps the next write's
		// WAL stage. With concurrent inserts the memtable stage leaves the
		// serialized timeline entirely.
		walShare := serial
		if !g.concurrent {
			walShare = serial / 2
		}
		walStart := max(g.arrival, p.walFreeAt)
		walEnd := walStart + walShare
		p.walFreeAt = walEnd
		wait = walStart - g.arrival
		if !g.concurrent {
			memStart := max(walEnd, p.memFreeAt)
			p.memFreeAt = memStart + serial - walShare
			wait += memStart - walEnd
		}
	} else {
		startAt := max(g.arrival, p.walFreeAt)
		occupancy := serial
		if g.concurrent {
			// The leader holds the group open while G parallel inserts
			// land; the critical path grows by about one slice.
			occupancy += insertCPU / time.Duration(g.size)
		}
		p.walFreeAt = startAt + occupancy
		p.memFreeAt = p.walFreeAt
		wait = startAt - g.arrival
	}
	if wait <= 0 {
		return
	}
	overhead := simPrices.writeWake.d
	if o.EnableWriteThreadAdaptiveYield &&
		wait <= time.Duration(o.WriteThreadMaxYieldUsec)*time.Microsecond &&
		!r.env.Oversubscribed() {
		// Spinning caught the handoff: cheaper than a block + wake. When
		// background jobs oversubscribe the cores the yields come back slower
		// than write_thread_slow_yield_usec and the writer gives up spinning
		// and blocks (RocksDB's adaptive-yield abort), so compaction-heavy
		// phases pay the full wake latency.
		overhead = time.Duration(o.WriteThreadSlowYieldUsec) * time.Microsecond
	}
	leader.waited = wait + overhead
	r.env.ChargeLatency(leader.waited)
	// The handoff also delays the successor: the next writer cannot start its
	// window until this one has been woken, so the overhead occupies the
	// pipeline too (this is what makes the yield knobs an aggregate-throughput
	// effect, not just a latency one).
	p.walFreeAt += overhead
	if !o.EnablePipelinedWrite {
		p.memFreeAt = p.walFreeAt
	}
}
