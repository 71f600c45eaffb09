package bench

import (
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lsm"
)

// Progress is delivered to the runner's monitor callback roughly once per
// (virtual) second.
type Progress struct {
	Elapsed    time.Duration
	OpsDone    int64
	Throughput float64 // ops/sec so far
}

// Runner executes a Spec against a DB. In simulation mode it is a
// deterministic event loop over virtual threads: the thread with the
// smallest local virtual time issues the next operation, the engine charges
// the operation's cost, and the thread's clock advances by it. In OS mode
// threads are real goroutines under the wall clock.
type Runner struct {
	DB   *lsm.DB
	Spec *Spec
	// Monitor, when set, receives periodic progress and may return false
	// to stop the run early (the framework's Benchmark Monitor uses this
	// for the first-30-seconds check and 'redo' on performance drops). It is
	// never called from two goroutines at once.
	Monitor func(Progress) bool
}

// Run executes the workload and returns its report.
func (r *Runner) Run() (*Report, error) {
	if err := r.Spec.Validate(); err != nil {
		return nil, err
	}
	if sim, _ := r.DB.Env().(*lsm.SimEnv); sim != nil {
		sim.SetForegroundThreads(r.Spec.Threads)
		defer sim.SetForegroundThreads(1)
	}
	t, err := newDBTarget(r.DB, r.Spec.families())
	if err != nil {
		return nil, err
	}
	return r.run(t)
}

// run preloads and measures the workload on t.
func (r *Runner) run(t target) (*Report, error) {
	if r.Spec.Preload > 0 {
		if err := preload(t, r.Spec, r.Spec.Seed*31337, 0, r.Spec.Preload); err != nil {
			return nil, err
		}
		if err := r.DB.Flush(); err != nil {
			return nil, err
		}
		// Settle compactions: the paper's read/mixed workloads run against a
		// database preloaded beforehand (and therefore leveled), not against a
		// freshly-written L0 pileup. Without settling, every measured run
		// starts inside a compaction storm and the 30-second monitor cannot
		// compare configurations fairly.
		if err := r.DB.WaitForBackgroundIdle(); err != nil {
			return nil, err
		}
	}
	// Characterize only the measured phase: preload writes would otherwise
	// swamp the ops mix of read-heavy workloads.
	r.DB.ResetWorkloadWindow()
	workers := newWorkers(r.Spec, r.Spec.Threads, func(int) target { return t })
	return measure(r.DB, r.Spec.Name, r.Spec.ValueSize, workers, r.Monitor)
}

// Replay executes the operations of src against db on one thread and reports
// them like a workload run (trace.Replay). seed drives the put values.
func Replay(db *lsm.DB, src OpSource, seed int64) (*Report, error) {
	t, err := newDBTarget(db, []string{lsm.DefaultColumnFamilyName})
	if err != nil {
		return nil, err
	}
	w := newWorker(src, t, rand.New(rand.NewSource(seed)))
	return measure(db, "replay", 0, []*worker{w}, nil)
}

// measure drives workers to completion on db's clock (virtual time on a
// SimEnv, the wall clock otherwise) and assembles the report with the
// engine's view of the run.
func measure(db *lsm.DB, name string, valueSize int, workers []*worker, monitor func(Progress) bool) (*Report, error) {
	sim, _ := db.Env().(*lsm.SimEnv)
	var (
		elapsed time.Duration
		aborted bool
		err     error
	)
	if sim != nil {
		elapsed, aborted, err = runSim(sim, workers, monitor)
	} else {
		elapsed, aborted, err = runWall(workers, monitor)
	}
	if err != nil {
		return nil, err
	}
	rep := newReport(name, valueSize, workers, elapsed, aborted)
	rep.Metrics = db.GetMetrics()
	if sim != nil {
		rep.SimStats = sim.Stats()
	}
	rep.Stats = db.Statistics().Snapshot()
	rep.StatsDump, _ = db.GetProperty("rocksdb.stats")
	rep.HistogramDump = db.Histograms().String()
	ws := db.CaptureWorkloadSnapshot()
	rep.WorkloadSnap = &ws
	return rep, nil
}

// newReport sums the workers' counters into a report.
func newReport(name string, valueSize int, workers []*worker, elapsed time.Duration, aborted bool) *Report {
	rep := &Report{
		Workload:  name,
		Threads:   len(workers),
		Read:      NewHistogram(),
		Write:     NewHistogram(),
		Elapsed:   elapsed,
		Aborted:   aborted,
		ValueSize: valueSize,
	}
	for _, w := range workers {
		rep.Ops += w.ops
		rep.Errors += w.errs
		rep.Read.Merge(w.readHist)
		rep.Write.Merge(w.writeHist)
		rep.ReadMisses += w.readMiss
		rep.Bytes += w.bytes
	}
	if elapsed > 0 {
		rep.Throughput = float64(rep.Ops) / elapsed.Seconds()
	}
	return rep
}

// runSim drives workers deterministically in virtual time: the worker with
// the smallest local clock issues the next operation and advances by what the
// engine charged for it. It stays apart from runWall because there is no
// concurrency to drive: one goroutine owns every worker and the clock.
func runSim(sim *lsm.SimEnv, workers []*worker, monitor func(Progress) bool) (elapsed time.Duration, aborted bool, err error) {
	clock := sim.Clock()
	base := sim.Now()
	for _, w := range workers {
		w.now = base
	}
	sim.TakeOpCost()
	var done int64
	nextTick := base + time.Second
	for !aborted {
		// Pick the worker with the smallest virtual time that still has work.
		var w *worker
		for _, c := range workers {
			if !c.done && (w == nil || c.now < w.now) {
				w = c
			}
		}
		if w == nil {
			break
		}
		if err := w.src.Next(&w.op); err != nil {
			if err != io.EOF {
				return 0, false, err
			}
			w.done = true
			continue
		}
		clock.AdvanceTo(w.now)
		isRead := w.exec()
		cost := sim.TakeOpCost() + lsm.SimHarnessOpPrice()
		w.now += cost
		w.observe(isRead, cost)
		done++
		if w.now >= nextTick {
			nextTick = w.now + time.Second
			if monitor != nil {
				el := w.now - base
				aborted = !monitor(Progress{Elapsed: el, OpsDone: done, Throughput: float64(done) / el.Seconds()})
			}
		}
	}
	for _, w := range workers {
		elapsed = max(elapsed, w.now-base)
	}
	return elapsed, aborted, nil
}

// runWall drives each worker on its own goroutine under the wall clock:
// Runner in OS mode, NetRunner and trace replay all end up here.
func runWall(workers []*worker, monitor func(Progress) bool) (elapsed time.Duration, aborted bool, err error) {
	start := time.Now()
	var (
		wg         sync.WaitGroup
		done       atomic.Int64
		stop       atomic.Bool // monitor abort or source failure: every worker winds down
		abort      atomic.Bool
		monitoring atomic.Bool // a worker is inside monitor; others skip their tick
	)
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for !stop.Load() {
				opStart := time.Now()
				if err := w.src.Next(&w.op); err != nil {
					if err != io.EOF {
						w.err = err
						stop.Store(true)
					}
					return
				}
				isRead := w.exec()
				w.observe(isRead, time.Since(opStart))
				d := done.Add(1)
				if monitor != nil && d%4096 == 0 && monitoring.CompareAndSwap(false, true) {
					el := time.Since(start)
					if !monitor(Progress{Elapsed: el, OpsDone: d, Throughput: float64(d) / el.Seconds()}) {
						abort.Store(true)
						stop.Store(true)
					}
					monitoring.Store(false)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed = time.Since(start)
	for _, w := range workers {
		if w.err != nil {
			return 0, false, w.err
		}
	}
	return elapsed, abort.Load(), nil
}
