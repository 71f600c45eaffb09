package lsm

import (
	"slices"
	"sort"
	"sync"
	"time"
)

// engineRuntime is the one seam between the engine and how time passes under
// it (DESIGN §5.1). OpenConfig picks an implementation once; flush,
// compaction, stall waits, the commit path, the stats timers and every
// latency histogram are written once against it. Methods other than fanOut,
// stopwatch and the write-queue methods are called with db.mu held.
type engineRuntime interface {
	// start begins what the runtime does on its own; called once Open can no
	// longer fail. stop ends it at Close.
	start()
	stop()
	// run executes work off the critical path, then install under db.mu.
	// install always runs, also when work failed.
	run(work func() (*compactionResult, error), install func(*compactionResult, error))
	// inFlight counts jobs handed to run whose install has not yet returned.
	inFlight() int
	// wait returns after at least one install ran; requires inFlight() > 0.
	wait()
	// poll installs completions that are already due and fires due stats
	// deadlines, without waiting.
	poll()
	// fanOut runs slice(0..n-1) and returns when all have finished.
	fanOut(n int, slice func(i int))
	// stopwatch returns a monotonic reading; the difference of two readings
	// is the time the work between them took.
	stopwatch() time.Duration
	// autoResume starts recovering from a recoverable background error on
	// the runtime's own timers; called with db.recovering unset.
	autoResume()

	// The write queue (writethread.go): how a group forms and what waiting
	// costs. joinWrite returns false when w must lead a group and true when
	// another leader committed it. formGroup sets the leader's group: its
	// members and shape. The commit path calls handoff once per group to pass
	// leadership on, and queueWait once it has published, with the stopwatch
	// reading at the end of the group's serialized section and the group's
	// memtable insert price.
	joinWrite(w *writeRequest) bool
	formGroup(leader *writeRequest)
	handoff()
	queueWait(leader *writeRequest, serialEnd, insertCPU time.Duration)
}

// osRuntime runs jobs on goroutines and reads the wall clock.
type osRuntime struct {
	db      *DB
	base    time.Time
	running int
	quit    chan struct{}
	wt      writeThread
}

func newOSRuntime(db *DB) *osRuntime {
	return &osRuntime{db: db, base: time.Now(), quit: make(chan struct{})}
}

func (r *osRuntime) start() { go r.statsPump() }
func (r *osRuntime) stop()  { close(r.quit) }

func (r *osRuntime) run(work func() (*compactionResult, error), install func(*compactionResult, error)) {
	r.running++
	go func() {
		res, err := work()
		r.db.mu.Lock()
		r.running--
		install(res, err)
		r.db.bgCond.Broadcast()
		r.db.mu.Unlock()
	}()
}

func (r *osRuntime) inFlight() int { return r.running }
func (r *osRuntime) wait()         { r.db.bgCond.Wait() }
func (r *osRuntime) poll()         {}

func (r *osRuntime) fanOut(n int, slice func(i int)) {
	if n == 1 {
		slice(0)
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slice(i)
		}()
	}
	wg.Wait()
}

func (r *osRuntime) stopwatch() time.Duration { return time.Since(r.base) }

func (r *osRuntime) autoResume() {
	r.db.recovering = true
	go r.db.autoRecoverLoop()
}

// statsPumpInterval is a quarter of the smallest configured stats period,
// clamped to [10ms, 1s]; 1s when both are off.
func statsPumpInterval(o *Options) time.Duration {
	interval := o.statsDumpEvery()
	if p := o.statsPersistEvery(); p > 0 && (interval == 0 || p < interval) {
		interval = p
	}
	if interval == 0 {
		return time.Second
	}
	return min(max(interval/4, 10*time.Millisecond), time.Second)
}

// statsPump polls the stats deadlines so dumps happen even while the DB is
// idle. The interval is re-derived every tick, so a live period change
// (including enabling a timer on a DB opened with both off) needs no restart.
func (r *osRuntime) statsPump() {
	db := r.db
	t := time.NewTimer(statsPumpInterval(db.options()))
	defer t.Stop()
	for {
		select {
		case <-r.quit:
			return
		case <-t.C:
			db.mu.Lock()
			if !db.closed {
				db.maybePeriodicStatsLocked(db.env.Now())
			}
			db.mu.Unlock()
			t.Reset(statsPumpInterval(db.options()))
		}
	}
}

// simCompletion is a finished job waiting for its virtual completion time.
type simCompletion struct {
	end     time.Duration
	install func()
}

// simRuntime is single-threaded on SimEnv's virtual clock: work runs inline,
// SimEnv prices it, and install is queued until the clock reaches the priced
// completion time. Waiting moves the clock instead of blocking. What belongs
// to one DB — its completions, its write timeline, its share of the host's
// memory — lives here, not in the SimEnv other DBs may share.
type simRuntime struct {
	db      *DB
	env     *SimEnv
	done    []simCompletion // ascending end; equal ends in submission order
	pipe    writePipeline
	dropMem func() // removes the DB's engine memory from the page-cache budget
}

func (r *simRuntime) start()      { r.dropMem = r.env.AddEngineMemory(r.db.engineMemory) }
func (r *simRuntime) stop()       { r.dropMem() }
func (r *simRuntime) autoResume() {}

func (r *simRuntime) run(work func() (*compactionResult, error), install func(*compactionResult, error)) {
	res, err := work()
	now := r.env.Now()
	end := now
	if err == nil {
		o := r.db.options()
		end = r.env.ScheduleBackgroundIO(res.readBytes, res.writeBytes, o.CompactionReadaheadSize,
			o.BytesPerSync > 0, o.UseDirectIOForFlushAndCompaction, res.cpu,
			r.db.rateFloor(res.readBytes+res.writeBytes), res.slices)
		// The job took what SimEnv priced it at; the model has no skew, so
		// each parallel slice ran for the whole job.
		res.dur = end - now
		for i := range res.sliceDurs {
			res.sliceDurs[i] = res.dur
		}
	}
	i := sort.Search(len(r.done), func(i int) bool { return r.done[i].end > end })
	r.done = slices.Insert(r.done, i, simCompletion{end, func() { install(res, err) }})
}

func (r *simRuntime) inFlight() int { return len(r.done) }

func (r *simRuntime) wait() {
	if end, now := r.done[0].end, r.env.Now(); end > now {
		r.env.Clock().AdvanceTo(end)
		r.env.ChargeStall(end - now)
		r.db.stats.Add(TickerStallMicros, int64((end-now)/time.Microsecond))
	}
	r.poll()
}

func (r *simRuntime) poll() {
	now := r.env.Now()
	for len(r.done) > 0 && r.done[0].end <= now {
		c := r.done[0]
		r.done = r.done[1:]
		c.install()
	}
	r.db.maybePeriodicStatsLocked(now)
	// Completions may have unblocked new work.
	r.db.maybeScheduleFlushLocked(false)
	r.db.maybeScheduleCompactionLocked()
}

func (r *simRuntime) fanOut(n int, slice func(i int)) {
	for i := 0; i < n; i++ {
		slice(i)
	}
}

// stopwatch reads the cost SimEnv has charged to the current operation: in
// simulation that is how long the operation has taken so far.
func (r *simRuntime) stopwatch() time.Duration { return r.env.AccruedOpCost() }
