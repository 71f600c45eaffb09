package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/lsm"
	"repro/internal/server"
)

// The three key-value workloads share one load shape: one process holding a
// sharded router behind a TCP server on loopback, driven by pipelined
// clients in a closed loop (each caller sends its next request only after
// the previous reply). What differs is the traffic mix, the working set
// relative to the block cache, and therefore which layers do the work.

// kvSpec is one key-value workload.
type kvSpec struct {
	mix        mix
	cacheBytes int64 // block cache per shard
	// warmupOps is the number of ops of the measured mix run before timing
	// starts; 0 means one Get of every key, which loads every block into a
	// cache sized to hold the data.
	warmupOps int
	// writeAmpPuts fixes the point at which write_amp is read: when the
	// measured phase has written this many Puts' worth of user bytes. A
	// compaction here rewrites a whole shard, so the ratio is a sawtooth in
	// bytes written; read at the end of a fixed-time phase it would follow the
	// run's throughput, read at a fixed byte count it does not. Sized to be
	// reached within 20 seconds at 40 % of the reference box's throughput.
	writeAmpPuts int64
}

var kvSpecs = map[string]kvSpec{
	// 120k keys x 416 B = 50 MB of user data against 2 x 8 MiB of block
	// cache: the store stays the same size (L0 plus a 14 MB L1 per shard)
	// while every Put forces WAL, memtable, flush and compaction work.
	"overwrite": {mix: mix{keys: 120_000, putPct: 100}, cacheBytes: 8 << 20, warmupOps: 40_000, writeAmpPuts: 300_000},
	// Same data, cache large enough to hold all of it, skewed reads: after
	// warm-up no request reaches storage and nothing runs in the background.
	"readhot": {mix: mix{keys: 120_000, getPct: 100, zipfTheta: 0.99}, cacheBytes: 256 << 20},
	// Cold uniform reads and scans beside the write path's background work.
	"mixed": {mix: mix{keys: 120_000, getPct: 50, putPct: 45}, cacheBytes: 8 << 20, warmupOps: 40_000, writeAmpPuts: 100_000},
}

// engineOptions is the configuration every shard runs: db_bench defaults
// shrunk so that a 20-second run sees dozens of flushes and compactions.
func engineOptions(cacheBytes int64) *lsm.Options {
	o := lsm.DBBenchDefaults()
	o.WriteBufferSize = 4 << 20
	o.TargetFileSizeBase = 4 << 20
	o.MaxBytesForLevelBase = 16 << 20
	o.BloomBitsPerKey = 10
	o.Compression = lsm.SnappyCompression
	o.BlockCacheSize = cacheBytes
	o.PerfLevel = lsm.PerfDisable.String()
	return o
}

// kvInstance is one running server with its clients.
type kvInstance struct {
	dir     string
	router  *server.Router
	srv     *server.Server
	clients []*server.Client
}

func openKV(dir string, cacheBytes int64) (*kvInstance, error) {
	router, err := server.OpenRouter(dir, shards, lsm.NewConfigSet(engineOptions(cacheBytes)))
	if err != nil {
		return nil, err
	}
	k := &kvInstance{dir: dir, router: router}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		router.Close()
		return nil, err
	}
	k.srv = server.Serve(ln, router)
	for i := 0; i < conns(); i++ {
		c, err := server.Dial(k.srv.Addr().String())
		if err != nil {
			k.close()
			return nil, err
		}
		k.clients = append(k.clients, c)
	}
	return k, nil
}

// stopServing closes the clients and the server, leaving the router open.
func (k *kvInstance) stopServing() {
	for _, c := range k.clients {
		c.Close()
	}
	k.clients = nil
	if k.srv != nil {
		k.srv.Close()
		k.srv = nil
	}
}

func (k *kvInstance) close() error {
	k.stopServing()
	return k.router.Close()
}

// settle flushes every memtable and waits until no flush or compaction is
// running or pending.
func (k *kvInstance) settle() error {
	if err := k.router.Flush(); err != nil {
		return err
	}
	for i := 0; i < shards; i++ {
		if err := k.router.Shard(i).WaitForBackgroundIdle(); err != nil {
			return err
		}
	}
	return nil
}

// preload writes every key once, over the wire in batches, in an order
// scattered over the keyspace so that flushed files overlap and set-up pays
// for real compactions, as loading a store does.
func (k *kvInstance) preload(keys uint64, seed int64) error {
	const batch = 128
	start := uint64(rand.New(rand.NewSource(seed)).Int63n(int64(keys)))
	var wg sync.WaitGroup
	errs := make([]error, len(k.clients))
	per := (keys + uint64(len(k.clients)) - 1) / uint64(len(k.clients))
	for ci, cl := range k.clients {
		wg.Add(1)
		go func(ci int, cl *server.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed ^ int64(ci+1)<<32))
			lo, hi := uint64(ci)*per, min(uint64(ci+1)*per, keys)
			entries := make([]server.BatchEntry, 0, batch)
			buf := make([]byte, 0, batch*(keySize+valueSize))
			for i := lo; i < hi; i++ {
				id := scatter((i+start)%keys, keys)
				n := len(buf)
				buf = appendKey(buf, id)
				buf = appendValue(buf, id, rng.Uint64())
				entries = append(entries, server.BatchEntry{Key: buf[n : n+keySize], Value: buf[n+keySize:]})
				if len(entries) == batch || i == hi-1 {
					if err := cl.Batch(entries); err != nil {
						errs[ci] = err
						return
					}
					entries, buf = entries[:0], buf[:0]
				}
			}
		}(ci, cl)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	return k.settle()
}

// opSource yields a caller's next op; false ends the caller.
type opSource func() (op, bool)

func counted(s *opStream, n int) opSource {
	return func() (op, bool) {
		if n <= 0 {
			return op{}, false
		}
		n--
		return s.next(), true
	}
}

func everyKey(lo, hi uint64) opSource {
	return func() (op, bool) {
		if lo >= hi {
			return op{}, false
		}
		lo++
		return op{kind: opGet, id: lo - 1}, true
	}
}

// loadResult is what one closed-loop phase observed from the client side.
type loadResult struct {
	elapsed       time.Duration
	ops, failed   int64
	byKind        [3]int64
	all, rd, wr   latHist
	firstFailures []string
}

// runLoad drives the instance with one caller per source, callers spread
// round-robin over the connections. With dur > 0 a caller also stops at the
// first op that would start after the deadline.
func (k *kvInstance) runLoad(keys uint64, sources []opSource, dur time.Duration) *loadResult {
	type callerState struct {
		all, rd, wr latHist
		byKind      [3]int64
		failed      int64
		failures    []string
	}
	states := make([]*callerState, len(sources))
	var wg sync.WaitGroup
	begin := time.Now()
	var deadline time.Time
	if dur > 0 {
		deadline = begin.Add(dur)
	}
	for ci, src := range sources {
		st := &callerState{}
		states[ci] = st
		wg.Add(1)
		go func(src opSource, cl *server.Client) {
			defer wg.Done()
			w := wireCaller{cl: cl, keys: keys}
			for {
				if dur > 0 && !time.Now().Before(deadline) {
					return
				}
				o, ok := src()
				if !ok {
					return
				}
				lat, err := w.do(o)
				if o.kind == opPut {
					st.wr.record(lat)
				} else {
					st.rd.record(lat)
				}
				st.all.record(lat)
				st.byKind[o.kind]++
				if err != nil {
					st.failed++
					if len(st.failures) < 3 {
						st.failures = append(st.failures, fmt.Sprintf("%s: %v", opKindNames[o.kind], err))
					}
				}
			}
		}(src, k.clients[ci%len(k.clients)])
	}
	wg.Wait()
	res := &loadResult{elapsed: time.Since(begin)}
	for _, st := range states {
		res.all.merge(&st.all)
		res.rd.merge(&st.rd)
		res.wr.merge(&st.wr)
		for i, n := range st.byKind {
			res.byKind[i] += n
			res.ops += n
		}
		res.failed += st.failed
		res.firstFailures = append(res.firstFailures, st.failures...)
	}
	return res
}

// wireCaller sends ops over one client and verifies the replies, reusing its
// key and value buffers (Client.Call has encoded the request by the time it
// returns).
type wireCaller struct {
	cl       *server.Client
	keys     uint64
	key, val []byte
}

// do runs one op; the returned latency covers the call alone, not building
// the request or verifying the reply.
func (w *wireCaller) do(o op) (lat time.Duration, err error) {
	w.key = appendKey(w.key[:0], o.id)
	switch o.kind {
	case opGet:
		start := time.Now()
		v, e := w.cl.Get("", w.key)
		lat = time.Since(start)
		if err = e; err == nil {
			err = verifyValue(o.id, v)
		}
	case opPut:
		w.val = appendValue(w.val[:0], o.id, o.nonce)
		start := time.Now()
		err = w.cl.Put("", w.key, w.val)
		lat = time.Since(start)
	case opScan:
		start := time.Now()
		pairs, e := w.cl.Scan("", w.key, scanLimit)
		lat = time.Since(start)
		if err = e; err == nil {
			err = verifyScan(o.id, w.keys, pairs)
		}
	}
	return lat, err
}

// verifyScan checks a scan that started at key id over a keyspace in which
// every id in [0, keys) exists: the pairs must be exactly id, id+1, ... up
// to the limit or the end of the keyspace, each with a valid value.
func verifyScan(id, keys uint64, pairs []server.KV) error {
	want := int(min(uint64(scanLimit), keys-id))
	if len(pairs) != want {
		return fmt.Errorf("scan from %d: %d pairs, want %d", id, len(pairs), want)
	}
	for i, p := range pairs {
		got, ok := keyID(p.Key)
		if !ok || got != id+uint64(i) {
			return fmt.Errorf("scan from %d: pair %d has key %q", id, i, p.Key)
		}
		if err := verifyValue(got, p.Value); err != nil {
			return err
		}
	}
	return nil
}

// sources builds one op source per caller for the measured mix.
func (c *runConfig) sources(spec kvSpec, salt int64, perCaller int) []opSource {
	z := spec.mix.zipf()
	out := make([]opSource, callers())
	for i := range out {
		s := newOpStream(spec.mix, z, c.seed+salt, i)
		if perCaller > 0 {
			out[i] = counted(s, perCaller)
		} else {
			out[i] = func() (op, bool) { return s.next(), true }
		}
	}
	return out
}

func (c *runConfig) warmup(k *kvInstance, spec kvSpec) *loadResult {
	n := callers()
	if spec.warmupOps > 0 {
		return k.runLoad(spec.mix.keys, c.sources(spec, 1<<20, spec.warmupOps/n), 0)
	}
	srcs := make([]opSource, n)
	per := (spec.mix.keys + uint64(n) - 1) / uint64(n)
	for i := range srcs {
		srcs[i] = everyKey(uint64(i)*per, min(uint64(i+1)*per, spec.mix.keys))
	}
	return k.runLoad(spec.mix.keys, srcs, 0)
}

// setupKV builds the workload's store rounds times, each in a fresh
// directory, and keeps the last. Set-up is open + preload + flush + wait for
// background idle; its reported time is the median of the rounds, because
// one 2-second sample on a shared machine is mostly noise.
func (c *runConfig) setupKV(spec kvSpec, rounds int) (*kvInstance, float64, error) {
	var times []float64
	for r := 0; ; r++ {
		dir := filepath.Join(c.dataDir, fmt.Sprintf("%s-%d-%d", c.workload, os.Getpid(), r))
		if err := os.RemoveAll(dir); err != nil {
			return nil, 0, err
		}
		start := time.Now()
		k, err := openKV(dir, spec.cacheBytes)
		if err != nil {
			return nil, 0, err
		}
		if err := k.preload(spec.mix.keys, c.seed+int64(r)); err != nil {
			k.close()
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if r == rounds-1 {
			return k, median(times), nil
		}
		if err := k.close(); err != nil {
			return nil, 0, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, 0, err
		}
	}
}

// tickers is a snapshot of the engine-wide counters (all shards share one
// Statistics, so each reading is already the cross-shard sum).
type tickers [tickerCount]int64

const tickerCount = int(lsm.TickerSubcompactionScheduled) + 1

func readTickers(s *lsm.Statistics) tickers {
	var t tickers
	for i := range t {
		t[i] = s.Get(lsm.Ticker(i))
	}
	return t
}

func (t tickers) sub(o tickers) tickers {
	for i := range t {
		t[i] -= o[i]
	}
	return t
}

func (t tickers) get(k lsm.Ticker) float64 { return float64(t[k]) }

// writeAmp is bytes written to storage (WAL, flushes, compaction outputs)
// per byte of user data written.
func (t tickers) writeAmp() float64 {
	return (t.get(lsm.TickerWALBytes) + t.get(lsm.TickerFlushBytes) + t.get(lsm.TickerCompactWriteBytes)) /
		t.get(lsm.TickerBytesWritten)
}

// tickerWatch waits for the engine to have accepted a given number of user
// bytes and keeps the tickers as they stood then.
type tickerWatch struct {
	stop, done chan struct{}
	at         tickers
	hit        bool
}

// watchTickers polls the user-bytes ticker from its own goroutine (one atomic
// load every few milliseconds; the request path is not touched).
func watchTickers(s *lsm.Statistics, targetBytes int64) *tickerWatch {
	w := &tickerWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				if s.Get(lsm.TickerBytesWritten) >= targetBytes {
					w.at, w.hit = readTickers(s), true
					return
				}
			}
		}
	}()
	return w
}

// finish stops the watch and reports what it saw; hit is false if the target
// was not reached.
func (w *tickerWatch) finish() (at tickers, hit bool) {
	close(w.stop)
	<-w.done
	return w.at, w.hit
}

// finishKV shuts the instance down and verifies what it left on disk: the
// router must close cleanly and every shard must pass the offline checker.
func finishKV(k *kvInstance) error {
	if err := k.close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	for i := 0; i < shards; i++ {
		dir := filepath.Join(k.dir, fmt.Sprintf("shard-%03d", i))
		rep, err := lsm.CheckDB(dir, nil)
		if err != nil {
			return fmt.Errorf("check shard %d: %w", i, err)
		}
		if !rep.OK() {
			return fmt.Errorf("check shard %d: %d issues, first: %s", i, len(rep.Issues), rep.Issues[0])
		}
	}
	return os.RemoveAll(k.dir)
}

// runKV is one run of a key-value workload.
func runKV(c *runConfig) (*result, error) {
	spec := kvSpecs[c.workload]
	res := newResult()
	res.note("op_stream_hash", fmt.Sprintf("%016x", streamHash(spec.mix, c.seed, callers(), 1000)))
	k, setupS, err := c.setupKV(spec, c.setupRounds())
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			k.close()
			os.RemoveAll(k.dir)
		}
	}()
	warm := c.warmup(k, spec)
	res.count(warm)
	runtime.GC()

	dur := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		if err := traceKV(c, k, spec, res, dur); err != nil {
			return nil, err
		}
	} else {
		stats := k.router.Statistics()
		var watch *tickerWatch
		if spec.writeAmpPuts > 0 {
			watch = watchTickers(stats, stats.Get(lsm.TickerBytesWritten)+spec.writeAmpPuts*(keySize+valueSize))
		}
		before, t0 := sampleProc(), readTickers(stats)
		load := k.runLoad(spec.mix.keys, c.sources(spec, 0, 0), dur)
		after := sampleProc()
		res.count(load)
		// A workload that writes reads write_amp at its fixed byte count; one
		// that does not (or a run too slow to get there) at the end.
		life, atTarget := readTickers(stats), false
		if watch != nil {
			if at, hit := watch.finish(); hit {
				life, atTarget = at, true
			}
		}
		m := res.metrics
		m.set("setup_s", setupS, "s")
		m.set("ops_per_s", float64(load.ops)/load.elapsed.Seconds(), "1/s")
		m.set("p50_us", load.all.percentileUS(50), "us")
		procMetrics(m, before, after, load.ops)
		// Over the store's whole life (preload, warm-up, measured phase up to
		// the fixed byte count), so the read-only workload reports its load's
		// amplification instead of 0/0.
		m.set("write_amp", life.writeAmp(), "x")
		res.note("write_amp_at_fixed_bytes", atTarget)
		res.note("measured_s", load.elapsed.Seconds())
		res.note("ops", load.ops)
		res.note("ops_by_kind", map[string]int64{"get": load.byKind[opGet], "put": load.byKind[opPut], "scan": load.byKind[opScan]})
		d := readTickers(stats).sub(t0)
		res.note("flushes", d[lsm.TickerFlushCount])
		res.note("compactions", d[lsm.TickerCompactCount])
	}
	closed = true
	if err := finishKV(k); err != nil {
		res.fail(err.Error())
	}
	return res, nil
}
