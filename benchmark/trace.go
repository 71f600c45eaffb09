package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/lsm"
	"repro/internal/server"
)

// The traced run times each layer from outside, through its public entry
// points only. For every op of a single synchronous caller it walks a
// ladder: the full wire round trip, then — separately, with the same
// request — each rung below it: the codec calls, the router call, the engine
// call on the owning shard. A rung's parent is the rung that would contain it
// inside the program, so a layer's self time is its call minus the rungs
// below it. Spans are kept in memory and written out when the run ends.

type spanName uint8

const (
	spGen spanName = iota
	spCall
	spEncodeReq
	spDecodeReq
	spEncodeResp
	spDecodeResp
	spRouterGet
	spRouterPut
	spRouterScan
	spLsmGet
	spLsmPut
	spLsmSeek
	spanNameCount
)

var spanLabels = [spanNameCount]string{
	spGen:        "bench.gen",
	spCall:       "server.client.call",
	spEncodeReq:  "server.protocol.encode_req",
	spDecodeReq:  "server.protocol.decode_req",
	spEncodeResp: "server.protocol.encode_resp",
	spDecodeResp: "server.protocol.decode_resp",
	spRouterGet:  "server.router.get",
	spRouterPut:  "server.router.put",
	spRouterScan: "server.router.scan",
	spLsmGet:     "lsm.get",
	spLsmPut:     "lsm.put",
	spLsmSeek:    "lsm.seek",
}

// span is one timed call. parent indexes the span that caused it (-1 for a
// root); spans of one op share op. Times are nanoseconds since the tracer's
// epoch.
type span struct {
	name       spanName
	parent     int32
	op         uint32
	start, end int64
}

type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) begin(name spanName, parent int32, op uint32) int32 {
	t.spans = append(t.spans, span{name: name, parent: parent, op: op, start: int64(time.Since(t.epoch))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) { t.spans[i].end = int64(time.Since(t.epoch)) }

// selfTimes returns, per span, its duration minus the summed durations of
// its children. The ladder's rungs run one after another rather than nested
// in real time, so children are charged by duration, not by the part of the
// parent's interval they overlap; for a properly nested trace with
// non-overlapping siblings the two are the same number. A ladder step runs
// its rungs on different keys, so one span's value can be negative (its child
// drew the slower key) and means nothing alone: only a layer's sum does, and
// it is never clamped, because clamping the negative spans and keeping the
// positive ones would inflate the sum above total − children's total.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// layerTotal sums one span name: self is total minus the total of the
// layer's child spans, and is negative if the children took longer.
type layerTotal struct {
	count       int64
	total, self int64 // ns
}

func (l layerTotal) meanUS() float64 {
	if l.count == 0 {
		return 0
	}
	return float64(l.total) / 1e3 / float64(l.count)
}

func (l layerTotal) selfUS() float64 {
	if l.count == 0 {
		return 0
	}
	return float64(l.self) / 1e3 / float64(l.count)
}

func sumLayers(spans []span) [spanNameCount]layerTotal {
	var out [spanNameCount]layerTotal
	self := selfTimes(spans)
	for i, s := range spans {
		l := &out[s.name]
		l.count++
		l.total += s.end - s.start
		l.self += self[i]
	}
	return out
}

func add(ls ...layerTotal) layerTotal {
	var out layerTotal
	for _, l := range ls {
		out.count += l.count
		out.total += l.total
		out.self += l.self
	}
	return out
}

// writeSpans stores the spans as one JSON document, a row per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString(`{"columns":["name","parent","op","start_ns","end_ns"],"names":[`)
	for i, l := range spanLabels {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(strconv.Quote(l))
	}
	w.WriteString("],\"spans\":[\n")
	var b []byte
	for i, s := range spans {
		b = append(b[:0], '[')
		b = strconv.AppendInt(b, int64(s.name), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(s.parent), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(s.op), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, ']')
		if i < len(spans)-1 {
			b = append(b, ',')
		}
		b = append(b, '\n')
		w.Write(b)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// shardOf mirrors the router's key placement (FNV-1a 64 mod shards), which
// the router does not export. checkPlacement verifies the copy against the
// running router before any rung relies on it.
func shardOf(key []byte) int {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return int(h % uint64(shards))
}

func checkPlacement(k *kvInstance, keys uint64) error {
	var key []byte
	for id := uint64(0); id < keys; id += keys/64 + 1 {
		key = appendKey(key[:0], id)
		if _, err := k.router.Shard(shardOf(key)).Get(nil, key); err != nil {
			return fmt.Errorf("key %d is not on the shard the benchmark computed (%v): the router's placement changed", id, err)
		}
	}
	return nil
}

// ladderMaxOps bounds the spans a run keeps (8 per op).
const ladderMaxOps = 50_000

// ladder walks ops from s down the rungs until dur has passed. One step is
// one op kind on three keys drawn from the workload's distribution, one each
// for the wire call, the router rung and the engine rung: a rung that
// repeated the call's key would find the blocks the call had just brought
// into the cache, and a cold read would be charged to the connection. The
// rungs of a step therefore describe statistically identical requests, not
// the same one, and the subtraction holds for the means the run reports.
func ladder(k *kvInstance, keys uint64, s *opStream, dur time.Duration, res *result) []span {
	tr := &tracer{epoch: time.Now(), spans: make([]span, 0, ladderMaxOps*8)}
	cl := k.clients[0]
	var keyBuf [3][]byte
	var valBuf [3][]byte
	var reqBuf, respBuf []byte
	var decoded server.Request
	check := func(what string, err error) {
		if err != nil {
			res.failed++
			res.fail(what + ": " + err.Error())
		}
	}
	for n := uint32(0); n < ladderMaxOps && time.Since(tr.epoch) < dur; n++ {
		g := tr.begin(spGen, -1, n)
		o := s.next()
		ids := [3]uint64{o.id, s.nextID(), s.nextID()}
		for i, id := range ids {
			keyBuf[i] = appendKey(keyBuf[i][:0], id)
			if o.kind == opPut {
				valBuf[i] = appendValue(valBuf[i][:0], id, o.nonce)
			}
		}
		req := &server.Request{Key: keyBuf[0]}
		switch o.kind {
		case opGet:
			req.Op = server.OpGet
		case opPut:
			req.Op, req.Value = server.OpPut, valBuf[0]
		case opScan:
			req.Op, req.Limit = server.OpScan, scanLimit
		}
		tr.end(g)

		call := tr.begin(spCall, -1, n)
		resp, err := cl.Call(req)
		tr.end(call)
		res.attempted++
		if err != nil {
			check("wire "+opKindNames[o.kind], err)
			continue
		}

		e := tr.begin(spEncodeReq, call, n)
		reqBuf, err = server.EncodeRequest(reqBuf[:0], req)
		tr.end(e)
		check("encode request", err)
		d := tr.begin(spDecodeReq, call, n)
		err = server.DecodeRequestInto(reqBuf, &decoded)
		tr.end(d)
		check("decode request", err)

		shard := k.router.Shard(shardOf(keyBuf[2]))
		switch o.kind {
		case opGet:
			check("wire get", verifyValue(ids[0], resp.Value))
			r := tr.begin(spRouterGet, call, n)
			v, err := k.router.Get("", keyBuf[1])
			tr.end(r)
			check("router get", errors.Join(err, verifyValue(ids[1], v)))
			l := tr.begin(spLsmGet, r, n)
			v, err = shard.Get(nil, keyBuf[2])
			tr.end(l)
			check("engine get", errors.Join(err, verifyValue(ids[2], v)))
		case opPut:
			r := tr.begin(spRouterPut, call, n)
			err := k.router.Put("", keyBuf[1], valBuf[1])
			tr.end(r)
			check("router put", err)
			l := tr.begin(spLsmPut, r, n)
			err = shard.Put(nil, keyBuf[2], valBuf[2])
			tr.end(l)
			check("engine put", err)
		case opScan:
			check("wire scan", verifyScan(ids[0], keys, resp.Pairs))
			r := tr.begin(spRouterScan, call, n)
			pairs, err := k.router.Scan("", keyBuf[1], scanLimit)
			tr.end(r)
			check("router scan", errors.Join(err, verifyScan(ids[1], keys, pairs)))
			// The engine rung of a scan is one shard's share of it: an
			// iterator, a seek and the walk, on the shard owning the start
			// key. The router does this on every shard and merges.
			l := tr.begin(spLsmSeek, r, n)
			it := shard.NewIterator(nil)
			it.Seek(keyBuf[2])
			for i := 0; i < scanLimit && it.Valid(); i++ {
				it.Next()
			}
			err = errors.Join(it.Err(), it.Close())
			tr.end(l)
			check("engine seek", err)
		}

		er := tr.begin(spEncodeResp, call, n)
		respBuf = server.EncodeResponse(respBuf[:0], req.Op, resp)
		tr.end(er)
		dr := tr.begin(spDecodeResp, call, n)
		_, err = server.DecodeResponse(req.Op, respBuf)
		tr.end(dr)
		check("decode response", err)
	}
	return tr.spans
}

// perfSums adds the shards' PerfContext counters (each shard has its own).
func perfSums(k *kvInstance) (p map[lsm.PerfMetric]int64, fsync int64) {
	p = map[lsm.PerfMetric]int64{}
	metricsOf := []lsm.PerfMetric{
		lsm.PerfWriteWALTime, lsm.PerfWriteMemtableTime, lsm.PerfWriteDelayTime, lsm.PerfDBMutexLockNanos,
		lsm.PerfGetFromMemtableTime, lsm.PerfGetFromOutputFilesTime, lsm.PerfBlockReadTime, lsm.PerfBlockReadCount,
	}
	for i := 0; i < shards; i++ {
		db := k.router.Shard(i)
		for _, pm := range metricsOf {
			p[pm] += db.PerfContext().Get(pm)
		}
		fsync += db.IOStats().FsyncNanos()
	}
	return p, fsync
}

func (k *kvInstance) setPerfLevel(l lsm.PerfLevel) {
	for i := 0; i < shards; i++ {
		k.router.Shard(i).SetPerfLevel(l)
	}
}

// perfLevelAB runs the same synchronous wire traffic in short alternating
// blocks at perf_level disable and enable_time. The instrumentation's cost
// is the median, over adjacent pairs of blocks, of how much longer the
// enable_time block took: blocks are a few milliseconds, so both of a pair
// see the same background work, and the median drops the pairs a flush or
// compaction straddled. The counters the enable_time blocks collect are the
// engine's own split of a write and a read.
func perfLevelAB(k *kvInstance, keys uint64, s *opStream, dur time.Duration, m metrics, res *result) {
	const block = 50
	w := wireCaller{cl: k.clients[0], keys: keys}
	for i := 0; i < shards; i++ {
		k.router.Shard(i).PerfContext().Reset()
	}
	_, fsync0 := perfSums(k)
	var off time.Duration // the latest disable block
	var excess []float64
	var byKind [3]int64 // in enable_time blocks
	begin := time.Now()
	for b := 0; time.Since(begin) < dur || b%2 == 1; b++ {
		on := b % 2
		if on == 1 {
			k.setPerfLevel(lsm.PerfEnableTime)
		}
		start := time.Now()
		for i := 0; i < block; i++ {
			o := s.next()
			_, err := w.do(o)
			res.attempted++
			if err != nil {
				res.failed++
				res.fail(opKindNames[o.kind] + ": " + err.Error())
			}
			if on == 1 {
				byKind[o.kind]++
			}
		}
		if took := time.Since(start); on == 1 {
			excess = append(excess, float64(took-off)/float64(off))
		} else {
			off = took
		}
		k.setPerfLevel(lsm.PerfDisable)
	}
	if len(excess) == 0 {
		return
	}
	m.set("trace.perf_level_overhead_frac", median(excess), "ratio")

	p, fsync1 := perfSums(k)
	perUS := func(pm lsm.PerfMetric, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(p[pm]) / 1e3 / float64(n)
	}
	puts, gets := byKind[opPut], byKind[opGet]
	m.set("lsm.write_wal_us", perUS(lsm.PerfWriteWALTime, puts), "us")
	m.set("lsm.write_memtable_us", perUS(lsm.PerfWriteMemtableTime, puts), "us")
	m.set("lsm.write_delay_us", perUS(lsm.PerfWriteDelayTime, puts), "us")
	m.set("lsm.db_mutex_us", perUS(lsm.PerfDBMutexLockNanos, int64(block*len(excess))), "us")
	m.set("lsm.get_memtable_us", perUS(lsm.PerfGetFromMemtableTime, gets), "us")
	m.set("lsm.get_files_us", perUS(lsm.PerfGetFromOutputFilesTime, gets), "us")
	if n := p[lsm.PerfBlockReadCount]; n > 0 {
		m.set("lsm.block_read_us", float64(p[lsm.PerfBlockReadTime])/1e3/float64(n), "us")
	}
	if gets > 0 {
		m.set("lsm.block_reads_per_get", float64(p[lsm.PerfBlockReadCount])/float64(gets), "count")
	}
	if puts > 0 {
		m.set("lsm.fsync_us", float64(fsync1-fsync0)/1e3/float64(puts), "us")
	}
}

func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// loadLayers reports the engine's always-on counters over a concurrent load
// phase, and the client-side latency tail of that phase.
func loadLayers(m metrics, d tickers, load *loadResult, groups lsm.HistogramData, groups0 lsm.HistogramData) {
	const mb = 1 << 20
	m.set("lsm.block_cache_hit_rate", ratio(d.get(lsm.TickerBlockCacheHit), d.get(lsm.TickerBlockCacheMiss)), "ratio")
	m.set("lsm.table_cache_hit_rate", ratio(d.get(lsm.TickerTableCacheHit), d.get(lsm.TickerTableCacheMiss)), "ratio")
	m.set("lsm.memtable_hit_rate", ratio(d.get(lsm.TickerMemtableHit), d.get(lsm.TickerMemtableMiss)), "ratio")
	m.set("lsm.bloom_useful_rate", ratio(d.get(lsm.TickerBloomUseful), d.get(lsm.TickerBloomChecked)), "ratio")
	m.set("lsm.block_cache_evicts", d.get(lsm.TickerBlockCacheEvict), "count")
	m.set("lsm.wal_bytes_per_op", d.get(lsm.TickerWALBytes)/float64(load.ops), "B")
	m.set("lsm.wal_syncs", d.get(lsm.TickerWALSyncs), "count")
	m.set("lsm.flush_count", d.get(lsm.TickerFlushCount), "count")
	m.set("lsm.flush_mb", d.get(lsm.TickerFlushBytes)/mb, "MB")
	m.set("lsm.compact_count", d.get(lsm.TickerCompactCount), "count")
	m.set("lsm.compact_read_mb", d.get(lsm.TickerCompactReadBytes)/mb, "MB")
	m.set("lsm.compact_write_mb", d.get(lsm.TickerCompactWriteBytes)/mb, "MB")
	m.set("lsm.stall_ms", d.get(lsm.TickerStallMicros)/1e3, "ms")
	m.set("lsm.slowdown_writes", d.get(lsm.TickerSlowdownWrites), "count")
	m.set("lsm.stopped_writes", d.get(lsm.TickerStoppedWrites), "count")
	if n := groups.Count - groups0.Count; n > 0 {
		m.set("lsm.write_group_size", float64(groups.Sum-groups0.Sum)/float64(n), "count")
	}
	if reads := load.byKind[opGet] + load.byKind[opScan]; reads > 0 {
		m.set("lsm.read_amp", d.get(lsm.TickerBlockCacheMiss)/float64(reads), "count")
	}
	if d.get(lsm.TickerBytesWritten) > 0 {
		m.set("lsm.load_write_amp", d.writeAmp(), "x")
	}
	m.set("server.client.p50_us", load.all.percentileUS(50), "us")
	m.set("server.client.p99_us", load.all.percentileUS(99), "us")
	m.set("server.client.p999_us", load.all.percentileUS(99.9), "us")
	m.set("server.client.read_p99_us", load.rd.percentileUS(99), "us")
	m.set("server.client.write_p99_us", load.wr.percentileUS(99), "us")
	m.set("server.client.max_ms", float64(load.all.max.Microseconds())/1e3, "ms")
}

// drainLayers times the background paths from outside: a flush of a nearly
// full memtable, a full manual compaction of the settled store, and a
// reopen. It leaves k with a freshly opened router and no server.
func drainLayers(k *kvInstance, spec kvSpec, m metrics) error {
	const mb = 1 << 20
	db := k.router.Shard(0)
	if err := k.settle(); err != nil {
		return err
	}
	// Fill shard 0's memtable to about 70 % of write_buffer_size with keys it
	// owns, so the flush is triggered here and not by the engine.
	fill := int(engineOptions(0).WriteBufferSize*7/10) / (keySize + valueSize)
	var key, val []byte
	written := 0
	for id := uint64(0); written < fill && id < spec.mix.keys; id++ {
		key = appendKey(key[:0], id)
		if shardOf(key) != 0 {
			continue
		}
		val = appendValue(val[:0], id, id)
		if err := db.Put(nil, key, val); err != nil {
			return err
		}
		written++
	}
	start := time.Now()
	if err := db.Flush(); err != nil {
		return err
	}
	m.set("lsm.flush_mb_per_s", float64(written*(keySize+valueSize))/mb/time.Since(start).Seconds(), "MB/s")

	if err := k.settle(); err != nil {
		return err
	}
	before := readTickers(k.router.Statistics())
	start = time.Now()
	for i := 0; i < shards; i++ {
		if err := k.router.Shard(i).CompactRange(nil, nil); err != nil {
			return err
		}
	}
	if err := k.settle(); err != nil {
		return err
	}
	took := time.Since(start).Seconds()
	d := readTickers(k.router.Statistics()).sub(before)
	m.set("lsm.compact_mb_per_s", d.get(lsm.TickerCompactReadBytes)/mb/took, "MB/s")
	m.set("lsm.space_amp", float64(k.router.GetMetrics().TotalSSTBytes)/float64(spec.mix.keys*(keySize+valueSize)), "x")

	k.stopServing()
	if err := k.router.Close(); err != nil {
		return err
	}
	start = time.Now()
	router, err := server.OpenRouter(k.dir, shards, lsm.NewConfigSet(engineOptions(spec.cacheBytes)))
	if err != nil {
		return err
	}
	m.set("lsm.open_ms", float64(time.Since(start).Microseconds())/1e3, "ms")
	k.router = router
	return nil
}

// traceKV is the traced run of a key-value workload. It splits --seconds
// between a concurrent load phase (the engine's counters and the latency
// tail under the real load shape), the single-caller ladder, the perf_level
// A/B, and the drain timings, which take what they take (a few seconds).
func traceKV(c *runConfig, k *kvInstance, spec kvSpec, res *result, dur time.Duration) error {
	m := res.metrics
	if err := checkPlacement(k, spec.mix.keys); err != nil {
		return err
	}
	stats := k.router.Statistics()
	groups0 := k.router.Histograms().Data(lsm.HistWriteGroupSize)
	before, t0 := sampleProc(), readTickers(stats)
	load := k.runLoad(spec.mix.keys, c.sources(spec, 0, 0), dur*40/100)
	after, t1 := sampleProc(), readTickers(stats)
	res.count(load)
	loadLayers(m, t1.sub(t0), load, k.router.Histograms().Data(lsm.HistWriteGroupSize), groups0)
	gcMetrics(m, before, after)

	z := spec.mix.zipf()
	spans := ladder(k, spec.mix.keys, newOpStream(spec.mix, z, c.seed, callers()), dur*30/100, res)
	perfLevelAB(k, spec.mix.keys, newOpStream(spec.mix, z, c.seed, callers()+1), dur*15/100, m, res)

	l := sumLayers(spans)
	for _, n := range []spanName{spEncodeReq, spDecodeReq, spEncodeResp, spDecodeResp, spCall, spRouterGet, spRouterPut, spRouterScan, spLsmGet, spLsmPut, spLsmSeek, spGen} {
		m.set(spanLabels[n]+"_us", l[n].meanUS(), "us")
	}
	// What is left of the round trip once the router and the codec are taken
	// out is the connection pipeline, the syscalls and the loopback. Nothing
	// outside the program can time those separately, so that remainder is
	// also the share of a request this trace cannot attribute to a rung.
	m.set("server.conn.self_us", l[spCall].selfUS(), "us")
	m.set("server.router.self_us", add(l[spRouterGet], l[spRouterPut], l[spRouterScan]).selfUS(), "us")
	if l[spCall].total > 0 {
		m.set("trace.unattributed_frac", float64(l[spCall].self)/float64(l[spCall].total), "ratio")
	}
	m.set("trace.spans", float64(len(spans)), "count")
	res.note("ladder_ops", l[spCall].count)

	if err := drainLayers(k, spec, m); err != nil {
		return err
	}
	return writeSpans(filepath.Join(c.outDir, "trace_"+c.workload+".json"), spans)
}
