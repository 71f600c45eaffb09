package lsm

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/device"
)

// Simulation constants. These are host-model parameters, not device ones;
// what the host charges for work is a row of simPrices (simprices.go).
const (
	// simPageChunk is the page-cache granularity: 8 KiB approximates 4 KiB
	// kernel pages plus modest readahead. Coarser values over-cache random
	// reads (one cached chunk would serve dozens of neighbouring keys).
	simPageChunk = 8 << 10
	simOSReserve = 512 << 20 // memory the OS keeps for itself
	// simDirtyBurst is the modeled OS writeback watermark: when unsynced
	// dirty bytes exceed it, the kernel issues a blocking writeback burst.
	// Periodic syncing (bytes_per_sync / wal_bytes_per_sync) avoids the
	// bursts — the mechanism behind the paper's Table 5 sync options.
	simDirtyBurst = 64 << 20
)

// bgInterval is one active background transfer's contribution to device
// utilization over a virtual-time window.
type bgInterval struct {
	start, end time.Duration
	frac       float64
}

// SimEnv is a deterministic, virtual-time environment: an in-memory
// filesystem whose I/O costs come from a device model, an OS page-cache
// model sized by the host profile, and a background-traffic contention
// model. It substitutes for the paper's Docker+hardware matrix.
type SimEnv struct {
	Device  *device.Model
	Profile device.Profile

	// OSReserve is memory the OS keeps from the page-cache budget;
	// DirtyBurst is the kernel writeback watermark. Both default to
	// realistic host values and are divided by the experiment scale factor
	// when the whole system is run scaled-down (see experiments package).
	OSReserve  int64
	DirtyBurst int64
	// PageEfficiency is the fraction of nominally free memory the page
	// cache retains as useful data blocks. Real page caches under cgroup
	// pressure keep far less than their nominal size: readahead overfetch,
	// writeback competition, metadata, and reclaim churn. A dedicated
	// block cache does not pay this tax — the reason sizing it matters.
	PageEfficiency float64

	clock *device.Clock

	mu     sync.Mutex
	files  map[string]*memFile
	dirs   map[string]bool
	nextID uint64

	page lru[pageKey, struct{}] // the OS page-cache model; see pageAddLocked
	rng  *rand.Rand

	opCost     time.Duration // accumulates the current operation's cost
	bg         []bgInterval
	fgThreads  int
	dirtyBytes int64 // unsynced foreground write-buffer bytes (OS dirty pages)

	// engineMem reports each open engine's resident memory so the page cache
	// can shrink under memory pressure; see AddEngineMemory.
	engineMem []*func() int64

	// Statistics.
	devReads, devWrites  int64
	devReadB, devWriteB  int64
	pageHits, pageMisses int64
	writebackBursts      int64
	totalStall           time.Duration
}

// NewSimEnv builds a simulation environment for the given device model and
// host profile. seed drives the latency jitter; runs with equal seeds and
// equal operation sequences produce identical timings.
func NewSimEnv(dev *device.Model, prof device.Profile, seed int64) *SimEnv {
	e := &SimEnv{
		Device:  dev,
		Profile: prof,
		clock:   device.NewClock(),
		files:   make(map[string]*memFile),
		dirs:    make(map[string]bool),
		rng:     rand.New(rand.NewSource(seed)),
	}
	e.page.init(0, nil)
	e.fgThreads = 1
	e.OSReserve = simOSReserve
	e.DirtyBurst = simDirtyBurst
	e.PageEfficiency = 0.30
	return e
}

// AddEngineMemory registers a function reporting one engine's memory
// footprint (write buffers + caches); the page-cache budget is what remains
// of the host profile's memory after every registered engine. Each open DB
// registers once; the returned function removes the registration.
func (e *SimEnv) AddEngineMemory(f func() int64) (remove func()) {
	src := &f
	e.mu.Lock()
	e.engineMem = append(e.engineMem, src)
	e.mu.Unlock()
	return func() {
		e.mu.Lock()
		e.engineMem = slices.DeleteFunc(e.engineMem, func(s *func() int64) bool { return s == src })
		e.mu.Unlock()
	}
}

// SetForegroundThreads tells the CPU model how many foreground workload
// threads are running.
func (e *SimEnv) SetForegroundThreads(n int) {
	e.mu.Lock()
	if n < 1 {
		n = 1
	}
	e.fgThreads = n
	e.mu.Unlock()
}

// ForegroundThreads returns the modeled number of foreground workload
// threads (the write path derives its virtual group size from it).
func (e *SimEnv) ForegroundThreads() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fgThreads
}

// Clock exposes the virtual clock (the benchmark runner advances it).
func (e *SimEnv) Clock() *device.Clock { return e.clock }

// Now implements Env.
func (e *SimEnv) Now() time.Duration { return e.clock.Now() }

// TakeOpCost returns and resets the accumulated cost of the current
// operation. The benchmark loop (single-goroutine in simulation) calls it
// after each DB operation.
func (e *SimEnv) TakeOpCost() time.Duration {
	e.mu.Lock()
	c := e.opCost
	e.opCost = 0
	e.mu.Unlock()
	return c
}

// AccruedOpCost returns the cost accumulated so far for the current
// operation without resetting it: the simulated engine's stopwatch.
func (e *SimEnv) AccruedOpCost() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.opCost
}

// ChargeLatency adds plain waiting time (write-queue waits, leader handoff)
// to the current op without scaling, jitter, or the stall bookkeeping that
// ChargeStall feeds into SimStats.TotalStall.
func (e *SimEnv) ChargeLatency(d time.Duration) {
	if d <= 0 {
		return
	}
	e.mu.Lock()
	e.opCost += d
	e.mu.Unlock()
}

// jitter perturbs d by ±8% deterministically.
func (e *SimEnv) jitter(d time.Duration) time.Duration {
	return time.Duration(float64(d) * (0.92 + 0.16*e.rng.Float64()))
}

// utilizationLocked combines active background transfers into a foreground
// interference level at now. The first stream costs its full fraction;
// additional concurrent streams add sub-linearly (devices overlap competing
// sequential streams reasonably well).
func (e *SimEnv) utilizationLocked(now time.Duration) float64 {
	var maxFrac, sum float64
	n := 0
	kept := e.bg[:0]
	for _, iv := range e.bg {
		if iv.end <= now {
			continue
		}
		kept = append(kept, iv)
		if iv.start <= now {
			sum += iv.frac
			if iv.frac > maxFrac {
				maxFrac = iv.frac
			}
			n++
		}
	}
	e.bg = kept
	if n == 0 {
		return 0
	}
	u := maxFrac + (sum-maxFrac)*0.45
	if u > 0.88 {
		u = 0.88
	}
	return u
}

// writebackPressureLocked returns the strongest saturating-writeback
// interference active at now: only intervals at or above the dirty-burst
// fraction count (frac >= 0.6 — the blocking bursts and job-end spikes),
// because moderate background streaming does not trip dirty throttling.
func (e *SimEnv) writebackPressureLocked(now time.Duration) float64 {
	var p float64
	for _, iv := range e.bg {
		if iv.start <= now && iv.end > now && iv.frac >= 0.6 && iv.frac > p {
			p = iv.frac
		}
	}
	return p
}

// Utilization returns the current background device utilization in [0,0.88].
func (e *SimEnv) Utilization() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.utilizationLocked(e.clock.Now())
}

// Oversubscribed reports whether runnable work (foreground vthreads plus
// active background jobs) currently exceeds the profile's cores — the
// condition under which a spinning writer's yields come back slow.
func (e *SimEnv) Oversubscribed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cpuFactorLocked(e.clock.Now()) > 1
}

// ActiveBackground returns the number of in-flight background transfers.
func (e *SimEnv) ActiveBackground() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.clock.Now()
	n := 0
	for _, iv := range e.bg {
		if iv.start <= now && iv.end > now {
			n++
		}
	}
	return n
}

// cpuFactorLocked scales CPU costs by core oversubscription.
func (e *SimEnv) cpuFactorLocked(now time.Duration) float64 {
	active := e.fgThreads
	for _, iv := range e.bg {
		if iv.start <= now && iv.end > now {
			active++
		}
	}
	return e.Profile.CPUFactor(active)
}

// ChargeCPU implements Env: compute time scaled by core contention, with
// the same deterministic jitter as device latencies (real CPU paths vary
// with cache state and allocator behaviour).
func (e *SimEnv) ChargeCPU(d time.Duration) {
	if d <= 0 {
		return
	}
	e.mu.Lock()
	e.opCost += e.jitter(time.Duration(float64(d) * e.cpuFactorLocked(e.clock.Now())))
	e.mu.Unlock()
}

// ChargeStall implements Env: the delay is virtual.
func (e *SimEnv) ChargeStall(d time.Duration) {
	if d <= 0 {
		return
	}
	e.mu.Lock()
	e.opCost += d
	e.totalStall += d
	e.mu.Unlock()
}

// chargeDeviceRead prices a foreground device read including contention.
func (e *SimEnv) chargeDeviceRead(n int64, hint AccessHint) {
	e.mu.Lock()
	now := e.clock.Now()
	u := e.utilizationLocked(now)
	lat := e.Device.ReadLatency(n, hint == HintSequential, u)
	e.opCost += e.jitter(lat)
	e.devReads++
	e.devReadB += n
	e.mu.Unlock()
}

// chargeMemCopy prices a page-cache hit.
func (e *SimEnv) chargeMemCopy(n int64) {
	e.mu.Lock()
	e.opCost += simPrices.copyMem(n)
	e.mu.Unlock()
}

// pageBudgetLocked computes the current effective page-cache capacity.
func (e *SimEnv) pageBudgetLocked() int64 {
	budget := e.Profile.MemoryBytes - e.OSReserve
	for _, f := range e.engineMem {
		budget -= (*f)()
	}
	if budget < 0 {
		budget = 0
	}
	eff := e.PageEfficiency
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	return int64(float64(budget) * eff)
}

// addDirtyLocked tracks unsynced foreground bytes; crossing the writeback
// watermark triggers a burst that is charged to the unlucky current op and
// briefly saturates the device (the p99 tail mechanism).
func (e *SimEnv) addDirtyLocked(n int64) {
	e.dirtyBytes += n
	// Kernel dirty throttling: while writeback is saturating the device
	// (the high-interference bursts flush and compaction outputs trigger),
	// processes dirtying page-cache pages are rate-limited in
	// balance_dirty_pages, so WAL appends slow down under compaction churn
	// even far below the watermark. Ordinary background streaming does not
	// throttle dirtiers — only saturated writeback does — so the charge
	// keys off the saturating intervals, and a workload that compacts twice
	// the bytes pays roughly twice the throttle time. The sleep is several
	// times the raw device cost of the bytes (the kernel quantizes it and
	// deliberately over-damps).
	if p := e.writebackPressureLocked(e.clock.Now()); p > 0 {
		throttle := time.Duration(p * float64(n) / e.Device.SeqWriteBW * 1e9 * 8)
		e.opCost += e.jitter(throttle)
	}
	if e.dirtyBytes < e.DirtyBurst {
		return
	}
	now := e.clock.Now()
	u := e.utilizationLocked(now)
	burst := e.Device.WriteLatency(e.dirtyBytes, true, u)
	// The op that crossed the watermark eats a fraction of the flush; the
	// rest happens asynchronously but saturates the device for a while.
	e.opCost += e.jitter(burst / 4)
	e.bg = append(e.bg, bgInterval{start: now, end: now + burst, frac: 0.6})
	e.devWrites++
	e.devWriteB += e.dirtyBytes
	e.dirtyBytes = 0
	e.writebackBursts++
}

// syncDirtyLocked prices an explicit sync of d dirty bytes.
func (e *SimEnv) syncDirtyLocked(d int64) {
	now := e.clock.Now()
	u := e.utilizationLocked(now)
	lat := e.Device.WriteLatency(d, true, u) + e.Device.Sync(u)
	e.opCost += e.jitter(lat)
	e.devWrites++
	e.devWriteB += d
	if e.dirtyBytes >= d {
		e.dirtyBytes -= d
	} else {
		e.dirtyBytes = 0
	}
}

// ScheduleBackgroundIO books a background job's device traffic: readBytes
// read with the given readahead chunking and writeBytes written
// sequentially, running concurrently with other background jobs. It returns
// the virtual completion time. periodicSync simulates bytes_per_sync
// smoothing: without it the job ends with an extra writeback spike. minDur
// floors the duration (rate limiting). Unless direct is set, the job's reads
// pollute the page cache, evicting hot foreground pages — the mechanism
// use_direct_io_for_flush_and_compaction exists to avoid. parallelism is the
// number of subcompaction slices the job ran: the merge/build CPU work is
// spread across that many cores (capped at the profile's core count) with a
// coordination tax, while device time is unchanged — parallel slices share
// one disk.
func (e *SimEnv) ScheduleBackgroundIO(readBytes, writeBytes int64, readahead int64, periodicSync bool, direct bool, cpu, minDur time.Duration, parallelism int) time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.clock.Now()
	concurrent := 1
	for _, iv := range e.bg {
		if iv.start <= now && iv.end > now {
			concurrent++
		}
	}
	var readTime time.Duration
	if readBytes > 0 {
		if readahead < simPageChunk {
			readahead = simPageChunk
		}
		chunks := (readBytes + readahead - 1) / readahead
		readTime = time.Duration(float64(readBytes)/e.Device.SeqReadBW*1e9) +
			time.Duration(chunks)*e.Device.ReadAccess/4 // partially amortized seeks
	}
	var writeTime time.Duration
	if writeBytes > 0 {
		writeTime = time.Duration(float64(writeBytes) / e.Device.SeqWriteBW * 1e9)
		if periodicSync {
			writeTime += writeTime / 10 // sync overhead, but no bursts
		}
	}
	ioTime := time.Duration(float64(readTime+writeTime) * float64(concurrent))
	cpuTime := time.Duration(float64(cpu) * e.cpuFactorLocked(now))
	if parallelism > 1 {
		// Subcompaction slices divide the CPU-bound merge across cores, at
		// ~75% scaling efficiency per extra slice (boundary skew plus
		// stitch coordination). IO time is untouched: the slices contend
		// for the same device.
		n := parallelism
		if n > e.Profile.Cores {
			n = e.Profile.Cores
		}
		if eff := 1 + 0.75*float64(n-1); eff > 1 {
			cpuTime = time.Duration(float64(cpuTime) / eff)
		}
	}
	dur := ioTime + cpuTime
	if dur < minDur {
		dur = minDur
	}
	if dur < time.Microsecond {
		dur = time.Microsecond
	}
	end := now + e.jitter(dur)
	// Interference on foreground I/O while the job runs.
	frac := e.Device.BGInterferencePerJob()
	e.bg = append(e.bg, bgInterval{start: now, end: end, frac: frac})
	if !periodicSync && writeBytes > 0 {
		// Un-smoothed writeback: a saturation spike at the end of the job.
		spike := e.Device.WriteLatency(minI64(writeBytes, e.DirtyBurst), true, 0)
		e.bg = append(e.bg, bgInterval{start: end, end: end + spike, frac: 0.75})
		e.writebackBursts++
	}
	e.devReadB += readBytes
	e.devWriteB += writeBytes
	if !direct && readBytes > 0 {
		// Compaction inputs stream through the page cache, displacing hot
		// pages one chunk at a time.
		e.nextID++
		polluter := e.nextID
		budget := e.pageBudgetLocked()
		chunks := readBytes / simPageChunk
		if max := budget / simPageChunk; chunks > max {
			chunks = max
		}
		for c := int64(0); c < chunks; c++ {
			e.pageAddLocked(pageKey{polluter, c}, budget)
		}
	}
	return end
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Stats describes cumulative simulation activity.
type SimStats struct {
	DeviceReads, DeviceWrites         int64
	DeviceReadBytes, DeviceWriteBytes int64
	PageCacheHits, PageCacheMisses    int64
	WritebackBursts                   int64
	TotalStall                        time.Duration
}

// Stats returns a snapshot of simulation counters.
func (e *SimEnv) Stats() SimStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return SimStats{
		DeviceReads: e.devReads, DeviceWrites: e.devWrites,
		DeviceReadBytes: e.devReadB, DeviceWriteBytes: e.devWriteB,
		PageCacheHits: e.pageHits, PageCacheMisses: e.pageMisses,
		WritebackBursts: e.writebackBursts,
		TotalStall:      e.totalStall,
	}
}

// --- in-memory filesystem ---

// simFileChunk is the storage unit of an in-memory file. A file is a list
// of chunks of this size, every one full but the last, so an append fills
// the tail chunk and allocates whole new ones: no byte already written is
// ever copied again, and a small file costs one chunk.
const simFileChunk = 64 << 10

type memFile struct {
	id     uint64
	chunks [][]byte
	size   int64
}

// append copies p onto the end of the file.
func (f *memFile) append(p []byte) {
	for len(p) > 0 {
		off := f.size % simFileChunk
		if off == 0 {
			f.chunks = append(f.chunks, make([]byte, simFileChunk))
		}
		n := copy(f.chunks[len(f.chunks)-1][off:], p)
		p = p[n:]
		f.size += int64(n)
	}
}

// readAt fills p from offset off, crossing chunk boundaries as needed; the
// caller has checked that off+len(p) <= size.
func (f *memFile) readAt(p []byte, off int64) {
	for len(p) > 0 {
		n := copy(p, f.chunks[off/simFileChunk][off%simFileChunk:])
		p = p[n:]
		off += int64(n)
	}
}

type simWritableFile struct {
	env    *SimEnv
	f      *memFile
	class  IOClass
	dirty  int64
	closed bool
}

// Append implements WritableFile. Foreground appends cost a memory copy and
// accumulate OS dirty bytes; background appends are free here because the
// owning job's I/O is booked via ScheduleBackgroundIO.
func (w *simWritableFile) Append(p []byte) error {
	if w.closed {
		return fmt.Errorf("lsm: append to closed file")
	}
	w.f.append(p)
	if w.class == IOForeground {
		w.env.mu.Lock()
		w.env.opCost += simPrices.copyMem(int64(len(p)))
		w.dirty += int64(len(p))
		w.env.addDirtyLocked(int64(len(p)))
		w.env.mu.Unlock()
	}
	// Foreground appends (WAL) land in the page cache. Background streams
	// (flush/compaction outputs) do not keep their pages: the kernel
	// drop-behind heuristics reclaim streamed write pages under memory
	// pressure, so freshly compacted data must be faulted back in — one of
	// the reasons compaction churn hurts read performance.
	if w.class == IOForeground {
		w.env.pageInsert(w.f.id, w.f.size-int64(len(p)), int64(len(p)))
	}
	return nil
}

// Sync implements WritableFile.
func (w *simWritableFile) Sync() error {
	if w.class == IOForeground {
		w.env.mu.Lock()
		w.env.syncDirtyLocked(w.dirty)
		w.dirty = 0
		w.env.mu.Unlock()
	}
	return nil
}

// SyncAsync implements WritableFile: dirty bytes are handed to the kernel
// writeback queue. The op pays a small CPU cost; the device absorbs the
// write as a short low-intensity background stream instead of a stall.
func (w *simWritableFile) SyncAsync() error {
	if w.class != IOForeground || w.dirty == 0 {
		return nil
	}
	w.env.mu.Lock()
	now := w.env.clock.Now()
	dur := w.env.Device.WriteLatency(w.dirty, true, 0)
	w.env.bg = append(w.env.bg, bgInterval{start: now, end: now + dur, frac: 0.08})
	w.env.opCost += simPrices.syncAsync.d
	w.env.devWrites++
	w.env.devWriteB += w.dirty
	if w.env.dirtyBytes >= w.dirty {
		w.env.dirtyBytes -= w.dirty
	} else {
		w.env.dirtyBytes = 0
	}
	w.dirty = 0
	w.env.mu.Unlock()
	return nil
}

// Close implements WritableFile.
func (w *simWritableFile) Close() error {
	w.closed = true
	return nil
}

type simRandomFile struct {
	env   *SimEnv
	f     *memFile
	class IOClass
}

// ReadAt implements RandomAccessFile with the page-cache model: hits cost a
// memory copy, misses cost a device read of the covering chunk(s).
func (r *simRandomFile) ReadAt(p []byte, off int64, hint AccessHint) error {
	if off < 0 || off+int64(len(p)) > r.f.size {
		return errShortRead
	}
	r.f.readAt(p, off)
	if r.class != IOForeground {
		return nil // background I/O priced by the job scheduler
	}
	first := off / simPageChunk
	last := (off + int64(len(p)) - 1) / simPageChunk
	for c := first; c <= last; c++ {
		if r.env.pageLookup(r.f.id, c) {
			r.env.chargeMemCopy(minI64(int64(len(p)), simPageChunk))
		} else {
			n := int64(simPageChunk)
			if hint == HintRandom {
				// A random miss reads just the needed block span.
				n = minI64(int64(len(p)), simPageChunk)
			}
			r.env.chargeDeviceRead(n, hint)
			r.env.pageInsertChunk(r.f.id, c)
		}
	}
	return nil
}

// Size implements RandomAccessFile.
func (r *simRandomFile) Size() (int64, error) { return r.f.size, nil }

// Close implements RandomAccessFile.
func (r *simRandomFile) Close() error { return nil }

// NewWritableFile implements Env.
func (e *SimEnv) NewWritableFile(name string, class IOClass) (WritableFile, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	name = cleanPath(name)
	e.nextID++
	f := &memFile{id: e.nextID}
	e.files[name] = f
	return &simWritableFile{env: e, f: f, class: class}, nil
}

// NewRandomAccessFile implements Env.
func (e *SimEnv) NewRandomAccessFile(name string, class IOClass) (RandomAccessFile, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	f, ok := e.files[cleanPath(name)]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	return &simRandomFile{env: e, f: f, class: class}, nil
}

// Remove implements Env.
func (e *SimEnv) Remove(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	name = cleanPath(name)
	if _, ok := e.files[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(e.files, name)
	return nil
}

// Rename implements Env.
func (e *SimEnv) Rename(oldName, newName string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	oldName, newName = cleanPath(oldName), cleanPath(newName)
	f, ok := e.files[oldName]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldName, Err: os.ErrNotExist}
	}
	delete(e.files, oldName)
	e.files[newName] = f
	return nil
}

// FileExists implements Env.
func (e *SimEnv) FileExists(name string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.files[cleanPath(name)]
	return ok
}

// FileSize implements Env.
func (e *SimEnv) FileSize(name string) (int64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	f, ok := e.files[cleanPath(name)]
	if !ok {
		return 0, &os.PathError{Op: "stat", Path: name, Err: os.ErrNotExist}
	}
	return f.size, nil
}

// List implements Env.
func (e *SimEnv) List(dir string) ([]string, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	dir = cleanPath(dir)
	var names []string
	for name := range e.files {
		if filepath.Dir(name) == dir {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

// SyncDir implements Env. The in-memory filesystem's metadata operations are
// immediately durable, so this is a no-op.
func (e *SimEnv) SyncDir(string) error { return nil }

// MkdirAll implements Env.
func (e *SimEnv) MkdirAll(dir string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	dir = cleanPath(dir)
	for dir != "." && dir != string(filepath.Separator) && !strings.HasPrefix(dir, "..") {
		e.dirs[dir] = true
		dir = filepath.Dir(dir)
	}
	return nil
}

// --- page cache ---

type pageKey struct {
	file  uint64
	chunk int64
}

// pageAddLocked caches one chunk in the page-cache model, an lru in which
// each chunk charges simPageChunk. The budget is re-derived from the host
// profile on each insert, so growing engine memory evicts cached pages
// (memory pressure); a budget below one chunk caches nothing.
func (e *SimEnv) pageAddLocked(k pageKey, budget int64) {
	if budget < simPageChunk {
		e.page.resize(budget)
		return
	}
	e.page.budget = budget
	e.page.add(k, struct{}{}, simPageChunk)
}

// pageLookup checks the page cache for a chunk (locked).
func (e *SimEnv) pageLookup(file uint64, chunk int64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.page.get(pageKey{file, chunk})
	if ok {
		e.pageHits++
	} else {
		e.pageMisses++
	}
	return ok
}

// pageInsertChunk caches one chunk.
func (e *SimEnv) pageInsertChunk(file uint64, chunk int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pageAddLocked(pageKey{file, chunk}, e.pageBudgetLocked())
}

// pageInsert caches the chunks covering [off, off+n).
func (e *SimEnv) pageInsert(file uint64, off, n int64) {
	if n <= 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	budget := e.pageBudgetLocked()
	first := off / simPageChunk
	last := (off + n - 1) / simPageChunk
	for c := first; c <= last; c++ {
		e.pageAddLocked(pageKey{file, c}, budget)
	}
}
