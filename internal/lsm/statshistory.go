package lsm

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// This file implements the persistent stats history, after RocksDB's
// persist_stats_to_disk=false mode: on a stats_persist_period_sec timer the
// DB snapshots every ticker and histogram into a bounded in-memory ring
// (stats_history_buffer_size bytes), retrievable via DB.GetStatsHistory,
// the rocksdb.stats.history property and `ldb statshistory`. The same
// env-clock timer machinery drives the periodic rocksdb.stats dumps to LOG
// (stats_dump_period_sec). Both timers are deadlines on the env clock, fired
// by the runtime (runtime.go).

// StatsSnapshot is one timestamped entry of the stats history: the full
// ticker set (non-zero values) and every latency histogram, stamped with
// the env clock at capture.
type StatsSnapshot struct {
	Time       time.Duration    `json:"time"`
	Tickers    map[string]int64 `json:"tickers"`
	Histograms []HistogramData  `json:"histograms"`

	size int64 // cached approxSize, filled by statsHistory.add
}

// approxSize estimates the snapshot's resident footprint for the ring's
// byte budget (map/slice headers plus keyed entries; close enough to bound
// memory, not an allocator-exact measure).
func (s *StatsSnapshot) approxSize() int64 {
	sz := int64(96) // struct, map header, slice header
	for k := range s.Tickers {
		sz += int64(len(k)) + 48 // key bytes + value + bucket overhead
	}
	for i := range s.Histograms {
		sz += int64(len(s.Histograms[i].Name)) + 72
	}
	return sz
}

// statsHistory is the bounded ring of snapshots. A zero or negative limit
// retains nothing (stats_history_buffer_size=0 disables retention).
type statsHistory struct {
	mu    sync.Mutex
	limit int64
	bytes int64
	snaps []StatsSnapshot
}

func newStatsHistory(limit int64) *statsHistory {
	return &statsHistory{limit: limit}
}

// add appends a snapshot, evicting the oldest entries past the byte budget.
func (h *statsHistory) add(s StatsSnapshot) {
	if h == nil {
		return
	}
	s.size = s.approxSize()
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.limit <= 0 || s.size > h.limit {
		return
	}
	h.snaps = append(h.snaps, s)
	h.bytes += s.size
	evict := 0
	for h.bytes > h.limit && evict < len(h.snaps) {
		h.bytes -= h.snaps[evict].size
		evict++
	}
	if evict > 0 {
		h.snaps = append([]StatsSnapshot(nil), h.snaps[evict:]...)
	}
}

// setLimit swaps the byte budget (stats_history_buffer_size via
// SetDBOptions), trimming oldest-first when the ring shrank below its
// current footprint.
func (h *statsHistory) setLimit(limit int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.limit = limit
	evict := 0
	for (h.limit <= 0 || h.bytes > h.limit) && evict < len(h.snaps) {
		h.bytes -= h.snaps[evict].size
		evict++
	}
	if evict > 0 {
		h.snaps = append([]StatsSnapshot(nil), h.snaps[evict:]...)
	}
}

// between returns retained snapshots with start <= Time < end, oldest
// first.
func (h *statsHistory) between(start, end time.Duration) []StatsSnapshot {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []StatsSnapshot
	for i := range h.snaps {
		if t := h.snaps[i].Time; t >= start && t < end {
			out = append(out, h.snaps[i])
		}
	}
	return out
}

// footprint reports the retained snapshot count and byte estimate.
func (h *statsHistory) footprint() (int, int64) {
	if h == nil {
		return 0, 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.snaps), h.bytes
}

// GetStatsHistory returns the retained stats snapshots with
// start <= Time < end (env-clock times), oldest first, like
// rocksdb::DB::GetStatsHistory.
func (db *DB) GetStatsHistory(start, end time.Duration) []StatsSnapshot {
	return db.history.between(start, end)
}

// armStatsTimersLocked (re)arms both stats deadlines from o, one period from
// now, and returns now. A period of zero disarms its timer.
func (db *DB) armStatsTimersLocked(o *Options) time.Duration {
	now := db.env.Now()
	db.nextStatsDump, db.nextStatsPersist = 0, 0
	if d := o.statsDumpEvery(); d > 0 {
		db.nextStatsDump = now + d
	}
	if d := o.statsPersistEvery(); d > 0 {
		db.nextStatsPersist = now + d
	}
	return now
}

// maybePeriodicStatsLocked fires whichever of the stats_dump_period_sec /
// stats_persist_period_sec timers are due at now and rearms them. A clock
// jump spanning several periods coalesces into one firing (the timers
// measure "at least this long since the last one", not a fixed phase).
func (db *DB) maybePeriodicStatsLocked(now time.Duration) {
	if db.nextStatsDump > 0 && now >= db.nextStatsDump {
		db.nextStatsDump = now + db.options().statsDumpEvery()
		db.dumpStatsToLogLocked()
	}
	if db.nextStatsPersist > 0 && now >= db.nextStatsPersist {
		db.nextStatsPersist = now + db.options().statsPersistEvery()
		db.history.add(db.statsSnapshot(now))
	}
}

// dumpStatsToLogLocked writes the rocksdb.stats overview and the latency
// histograms to LOG, RocksDB's "------- DUMPING STATS -------" block.
func (db *DB) dumpStatsToLogLocked() {
	if db.infoLog == nil {
		return
	}
	db.infoLog.logf("[db] ------- DUMPING STATS -------")
	db.infoLog.logRaw(db.statsStringLocked())
	db.infoLog.logRaw(db.hists.String())
}

// statsSnapshot captures the current tickers and histograms (atomic reads;
// db.mu not required).
func (db *DB) statsSnapshot(now time.Duration) StatsSnapshot {
	return StatsSnapshot{
		Time:       now,
		Tickers:    db.stats.Snapshot(),
		Histograms: db.hists.Snapshot(),
	}
}

// statsHistoryString renders the retained history for the
// rocksdb.stats.history property and `ldb statshistory`: one block per
// snapshot, tickers sorted, histogram summaries below.
func (db *DB) statsHistoryString() string {
	snaps := db.GetStatsHistory(0, 1<<62)
	var b strings.Builder
	fmt.Fprintf(&b, "** Stats history: %d snapshot(s) **\n", len(snaps))
	for i := range snaps {
		s := &snaps[i]
		fmt.Fprintf(&b, "--- snapshot @ %s ---\n", s.Time)
		keys := make([]string, 0, len(s.Tickers))
		for k := range s.Tickers {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s COUNT : %d\n", k, s.Tickers[k])
		}
		for _, h := range s.Histograms {
			if h.Count == 0 {
				continue
			}
			fmt.Fprintf(&b, "%s P50 : %.2f P95 : %.2f P99 : %.2f COUNT : %d SUM : %d\n",
				h.Name, h.P50, h.P95, h.P99, h.Count, h.Sum)
		}
	}
	return b.String()
}
