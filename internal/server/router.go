package server

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"repro/internal/lsm"
)

// Router hash-partitions the user keyspace across N embedded lsm.DB
// instances ("shards"), each with its own write thread, memtables and
// compaction scheduler, so foreground traffic parallelizes across cores.
// Every operation routes by key; cross-shard operations (MultiGet, writes,
// scans) fan out and preserve per-operation semantics:
//
//   - MultiGet groups keys by shard, executes per-shard MultiGets (one read
//     state capture per shard) concurrently, and gathers results positionally.
//   - Writes (Put, Delete, batches) stage into one WriteBatch per shard (a
//     writeGroup) and commit shard after shard on the caller's goroutine:
//     atomic per shard, not across shards (documented protocol semantics).
//     The server stages a whole burst of write requests as one group.
//   - Scans merge the per-shard iterators by user key; shards hold disjoint
//     keyspaces, so the merge is a plain k-way minimum with no dedup.
//
// All shards share one Statistics sink, so tickers aggregate engine-wide for
// free; histograms and point-in-time metrics are merged on demand.
type Router struct {
	shards []*lsm.DB
	stats  *lsm.Statistics
	// defaultCF is the default family's per-shard handles: all nil, shared
	// by every request that names no family, never written.
	defaultCF []*lsm.ColumnFamilyHandle

	// cfMu guards the name -> per-shard handle cache. Families are created
	// on every shard on first use so a key can always reach its shard.
	cfMu sync.RWMutex
	cfs  map[string][]*lsm.ColumnFamilyHandle

	// groups recycles the write groups of Put, Delete and ApplyBatch.
	groups sync.Pool
}

// shardDir names one shard's database directory.
func shardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
}

// OpenRouter opens (creating if needed) n shard databases under dir, each
// from a clone of cfg (nil = engine defaults). All shards share one
// Statistics object — the "multi-instance stats aggregation": any ticker
// read through Statistics() already sums every shard.
func OpenRouter(dir string, n int, cfg *lsm.ConfigSet) (*Router, error) {
	if n < 1 {
		return nil, fmt.Errorf("kvserver: shard count %d < 1", n)
	}
	if cfg == nil {
		cfg = lsm.NewConfigSet(nil)
	}
	stats := cfg.Default.Stats
	if stats == nil {
		stats = lsm.NewStatistics()
	}
	r := &Router{stats: stats, cfs: make(map[string][]*lsm.ColumnFamilyHandle)}
	for i := 0; i < n; i++ {
		sc := cfg.Clone()
		sc.Default.Stats = stats
		for _, o := range sc.Others {
			o.Options.Stats = stats
		}
		db, err := lsm.OpenConfig(shardDir(dir, i), sc)
		if err != nil {
			for _, open := range r.shards {
				open.Close()
			}
			return nil, fmt.Errorf("kvserver: open shard %d: %w", i, err)
		}
		r.shards = append(r.shards, db)
	}
	r.defaultCF = make([]*lsm.ColumnFamilyHandle, n)
	r.groups.New = func() any { return r.newWriteGroup() }
	return r, nil
}

// NumShards returns the shard count.
func (r *Router) NumShards() int { return len(r.shards) }

// Shard exposes one embedded instance (tests and tooling).
func (r *Router) Shard(i int) *lsm.DB { return r.shards[i] }

// shardFor hashes a user key onto its owning shard (FNV-1a 64).
func (r *Router) shardFor(key []byte) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return int(h % uint64(len(r.shards)))
}

// handles resolves a CF name to its per-shard handles, creating the family
// on every shard the first time the name is seen. "" means the default
// family (nil handles).
func (r *Router) handles(cf string) ([]*lsm.ColumnFamilyHandle, error) {
	if cf == "" || cf == lsm.DefaultColumnFamilyName {
		return r.defaultCF, nil
	}
	r.cfMu.RLock()
	hs := r.cfs[cf]
	r.cfMu.RUnlock()
	if hs != nil {
		return hs, nil
	}
	r.cfMu.Lock()
	defer r.cfMu.Unlock()
	if hs := r.cfs[cf]; hs != nil {
		return hs, nil
	}
	hs = make([]*lsm.ColumnFamilyHandle, len(r.shards))
	for i, db := range r.shards {
		h, err := db.GetColumnFamily(cf)
		if err != nil {
			if h, err = db.CreateColumnFamily(cf, nil); err != nil {
				return nil, err
			}
		}
		hs[i] = h
	}
	r.cfs[cf] = hs
	return hs, nil
}

// Put routes a single-key write to its shard.
func (r *Router) Put(cf string, key, value []byte) error {
	return r.ApplyBatch([]BatchEntry{{CF: cf, Key: key, Value: value}})
}

// Get routes a point lookup to its shard; the value is the caller's own.
func (r *Router) Get(cf string, key []byte) ([]byte, error) {
	return r.AppendGet(nil, cf, key)
}

// AppendGet routes a point lookup to its shard and appends the value to dst
// (lsm.DB.AppendGetCF): dst comes back unchanged on a miss or an error.
func (r *Router) AppendGet(dst []byte, cf string, key []byte) ([]byte, error) {
	hs, err := r.handles(cf)
	if err != nil {
		return dst, err
	}
	s := r.shardFor(key)
	return r.shards[s].AppendGetCF(dst, nil, hs[s], key)
}

// Delete routes a single-key tombstone to its shard.
func (r *Router) Delete(cf string, key []byte) error {
	return r.ApplyBatch([]BatchEntry{{IsDelete: true, CF: cf, Key: key}})
}

// MultiGet fans a key batch out across shards and gathers the results back
// into request order. Keys on the same shard share one read-state capture
// (the engine's batched MultiGet); shards execute concurrently.
func (r *Router) MultiGet(cf string, keys [][]byte) ([][]byte, []error) {
	vals := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	hs, err := r.handles(cf)
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
		return vals, errs
	}
	perShard := make([][]int, len(r.shards)) // shard -> positions in keys
	for i, k := range keys {
		s := r.shardFor(k)
		perShard[s] = append(perShard[s], i)
	}
	var wg sync.WaitGroup
	for s, idxs := range perShard {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int, idxs []int) {
			defer wg.Done()
			sub := make([][]byte, len(idxs))
			for j, i := range idxs {
				sub[j] = keys[i]
			}
			vs, es := r.shards[s].MultiGetCF(nil, hs[s], sub)
			for j, i := range idxs {
				vals[i], errs[i] = vs[j], es[j]
			}
		}(s, idxs)
	}
	wg.Wait()
	return vals, errs
}

// ApplyBatch splits a batch's entries by shard and commits each shard's part
// as one engine write, shard after shard. Atomicity holds per shard; the
// first error is returned.
func (r *Router) ApplyBatch(entries []BatchEntry) (err error) {
	g := r.groups.Get().(*writeGroup)
	g.add(entries)
	g.commit(func(_ int, e error) { err = e })
	r.groups.Put(g)
	return err
}

// writeGroup stages write requests (its members) into one WriteBatch per
// shard, commits each touched shard's batch exactly once, and gives every
// member the outcome of the shards it staged entries on. Batches and lists
// are scratch, reused from one group to the next; WriteBatch copies keys and
// values, so nothing staged aliases the caller's memory.
type writeGroup struct {
	r       *Router
	batches []*lsm.WriteBatch // per shard; nil until first staged on
	errs    []error           // per shard: outcome of the current commit
	touched []int             // shards with staged entries, in first-touch order
	members []groupMember
	spans   []int // member m staged entries on shards spans[m.lo:m.hi]
	size    int   // staged key and value bytes
}

// groupMember is one staged request.
type groupMember struct {
	lo, hi int
	err    error // set at staging when the request's family cannot be resolved
}

func (r *Router) newWriteGroup() *writeGroup {
	return &writeGroup{
		r:       r,
		batches: make([]*lsm.WriteBatch, len(r.shards)),
		errs:    make([]error, len(r.shards)),
	}
}

// add stages one request's entries as the group's next member. A request
// naming a family that cannot be resolved fails alone, with none of its
// entries staged.
func (g *writeGroup) add(entries []BatchEntry) {
	m := groupMember{lo: len(g.spans)}
	for i := range entries {
		if _, m.err = g.r.handles(entries[i].CF); m.err != nil {
			break
		}
	}
	if m.err == nil {
		for i := range entries {
			e := &entries[i]
			hs, _ := g.r.handles(e.CF) // resolved above
			s := g.r.shardFor(e.Key)
			b := g.batches[s]
			if b == nil {
				b = lsm.NewWriteBatch()
				g.batches[s] = b
			}
			if b.Count() == 0 {
				g.touched = append(g.touched, s)
			}
			if e.IsDelete {
				b.DeleteCF(hs[s], e.Key)
			} else {
				b.PutCF(hs[s], e.Key, e.Value)
			}
			g.size += len(e.Key) + len(e.Value)
			if !slices.Contains(g.spans[m.lo:], s) {
				g.spans = append(g.spans, s)
			}
		}
	}
	m.hi = len(g.spans)
	g.members = append(g.members, m)
}

// commit writes each touched shard's batch, shard after shard on the calling
// goroutine, then reports every member's outcome to done in staging order:
// its resolution error, else the first failure among the shards it staged
// on, else nil. It returns the number of engine commits issued and leaves the
// group empty. A batch that one large request grew past connBufSize is
// dropped rather than kept as scratch.
func (g *writeGroup) commit(done func(member int, err error)) int {
	for _, s := range g.touched {
		b := g.batches[s]
		g.errs[s] = g.r.shards[s].Write(nil, b)
		if b.ApproximateSize() > connBufSize {
			g.batches[s] = nil
		} else {
			b.Clear()
		}
	}
	for i, m := range g.members {
		for _, s := range g.spans[m.lo:m.hi] {
			if m.err != nil {
				break
			}
			m.err = g.errs[s]
		}
		done(i, m.err)
	}
	commits := len(g.touched)
	g.touched, g.members, g.spans, g.size = g.touched[:0], g.members[:0], g.spans[:0], 0
	return commits
}

// Scan returns up to limit visible pairs with key >= start, in ascending key
// order across every shard, in storage of their own.
func (r *Router) Scan(cf string, start []byte, limit int) ([]KV, error) {
	_, pairs, err := r.AppendScan(nil, nil, cf, start, limit)
	if err != nil {
		return nil, err
	}
	return pairs, nil
}

// AppendScan appends up to limit visible pairs with key >= start to pairs, in
// ascending key order across every shard: one iterator per shard, merged by
// k-way minimum. Shard keyspaces are disjoint (hash partitioning), so equal
// keys cannot collide across children. Each key and value is copied once,
// appended to buf; the appended pairs alias buf's storage (an earlier array
// of it when an append outgrew one), so they are valid until the caller
// reuses buf. On error both slices come back at their original lengths.
func (r *Router) AppendScan(buf []byte, pairs []KV, cf string, start []byte, limit int) ([]byte, []KV, error) {
	if limit <= 0 {
		return buf, pairs, nil
	}
	hs, err := r.handles(cf)
	if err != nil {
		return buf, pairs, err
	}
	iters := make([]*lsm.Iterator, 0, 16) // on the stack up to 16 shards
	for s, db := range r.shards {
		it := db.NewIteratorCF(nil, hs[s])
		if len(start) > 0 {
			it.Seek(start)
		} else {
			it.SeekToFirst()
		}
		iters = append(iters, it)
	}
	defer func() {
		for _, it := range iters {
			it.Close()
		}
	}()
	buf0, pairs0 := len(buf), len(pairs)
	for n := 0; n < limit; n++ {
		best := -1
		for s, it := range iters {
			if !it.Valid() {
				continue
			}
			if best < 0 || string(it.Key()) < string(iters[best].Key()) {
				best = s
			}
		}
		if best < 0 {
			break
		}
		it := iters[best]
		var kv KV
		buf, kv.Key = appendAlias(buf, it.Key())
		buf, kv.Value = appendAlias(buf, it.Value())
		pairs = append(pairs, kv)
		it.Next()
	}
	for _, it := range iters {
		if err := it.Err(); err != nil {
			clear(pairs[pairs0:]) // dropped pairs must not keep buf reachable
			return buf[:buf0], pairs[:pairs0], err
		}
	}
	return buf, pairs, nil
}

// appendAlias appends b to buf and returns the grown buf and the appended
// bytes, capped so that appending to them cannot overwrite what follows.
func appendAlias(buf, b []byte) ([]byte, []byte) {
	n := len(buf)
	buf = append(buf, b...)
	return buf, buf[n:len(buf):len(buf)]
}

// SetOptions applies dynamic option changes to EVERY shard — the shards are
// one logical database, so a live retune must land on all of them. Mixed
// batches are allowed on the wire: lsm.DB.SetOptions puts DB-scoped knobs
// in the DB snapshot and everything else in the named family's ("" =
// default), the whole batch atomically per shard. The first shard error
// aborts (later shards keep the old config — the caller re-sends or
// reports, same as a failed reopen).
func (r *Router) SetOptions(cf string, changes []OptionKV) error {
	if len(changes) == 0 {
		return nil
	}
	batch := make(map[string]string, len(changes))
	for _, kv := range changes {
		batch[kv.Name] = kv.Value
	}
	hs, err := r.handles(cf)
	if err != nil {
		return err
	}
	for s, db := range r.shards {
		if err := db.SetOptions(hs[s], batch); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
	}
	return nil
}

// Flush forces every shard's memtables to disk.
func (r *Router) Flush() error {
	for _, db := range r.shards {
		if err := db.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Close closes every shard, returning the first error.
func (r *Router) Close() error {
	var first error
	for _, db := range r.shards {
		if err := db.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Statistics returns the ticker sink shared by every shard (already the
// cross-shard sum).
func (r *Router) Statistics() *lsm.Statistics { return r.stats }

// WorkloadCounters reads the server-wide workload counters: each family's
// reads and writes summed over the shards, its scans from one shard (every
// Scan seeks every shard exactly once), and the ticker totals and the clock
// once, from the Statistics the shards share.
func (r *Router) WorkloadCounters() lsm.WorkloadCounters {
	c := r.shards[0].WorkloadCounters()
	for _, db := range r.shards[1:] {
		for name, f := range db.WorkloadCounters().Families {
			sum := c.Families[name]
			sum.Reads += f.Reads
			sum.Writes += f.Writes
			c.Families[name] = sum
		}
	}
	return c
}

// Histograms merges every shard's engine histograms into one fresh set.
func (r *Router) Histograms() *lsm.HistogramStats {
	h := lsm.NewHistogramStats()
	for _, db := range r.shards {
		h.Merge(db.Histograms())
	}
	return h
}

// GetMetrics aggregates point-in-time metrics across shards (block-cache
// usage and hit counters sum — each shard owns a cache).
func (r *Router) GetMetrics() lsm.Metrics {
	ms := make([]lsm.Metrics, len(r.shards))
	for i, db := range r.shards {
		ms[i] = db.GetMetrics()
	}
	return lsm.AggregateMetrics(ms)
}

// StatsText renders the aggregated server-wide stats dump: a cross-shard
// summary (tickers are shared, so the engine's own counters already sum), a
// per-shard block-cache table built from each cache's Used()/HitRate() —
// previously only shard 0's cache was visible in any rocksdb.stats sample —
// and each shard's full rocksdb.stats dump.
func (r *Router) StatsText() string {
	var b strings.Builder
	m := r.GetMetrics()
	fmt.Fprintf(&b, "** KVServer aggregated stats (%d shards) **\n", len(r.shards))
	fmt.Fprintf(&b, "Level files: %v\n", m.LevelFiles)
	fmt.Fprintf(&b, "Total SST bytes: %d\n", m.TotalSSTBytes)
	fmt.Fprintf(&b, "Memtable bytes: %d (+%d immutable memtables)\n", m.MemtableBytes, m.ImmutableCount)
	fmt.Fprintf(&b, "Pending compaction bytes: %d\n", m.PendingCompactionBytes)
	fmt.Fprintf(&b, "Running flushes: %d, running compactions: %d\n", m.RunningFlushes, m.RunningCompactions)
	b.WriteString("** Block cache (per shard) **\n")
	b.WriteString("Shard       Used(B)       Hits     Misses   HitRate\n")
	var usedSum, hitSum, missSum int64
	for i, db := range r.shards {
		sm := db.GetMetrics()
		usedSum += sm.BlockCacheUsed
		hitSum += sm.BlockCacheHits
		missSum += sm.BlockCacheMisses
		fmt.Fprintf(&b, "%5d %13d %10d %10d %8.1f%%\n",
			i, sm.BlockCacheUsed, sm.BlockCacheHits, sm.BlockCacheMisses,
			hitRate(sm.BlockCacheHits, sm.BlockCacheMisses))
	}
	fmt.Fprintf(&b, "  sum %13d %10d %10d %8.1f%%\n",
		usedSum, hitSum, missSum, hitRate(hitSum, missSum))
	b.WriteString("** Tickers (summed across shards) **\n")
	b.WriteString(r.stats.String())
	for i, db := range r.shards {
		fmt.Fprintf(&b, "** Shard %d **\n", i)
		if s, ok := db.GetProperty("rocksdb.stats"); ok {
			b.WriteString(s)
		}
	}
	return b.String()
}

// hitRate is a percentage, 0 when idle.
func hitRate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return 100 * float64(hits) / float64(hits+misses)
}
