package lsm

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// HistogramType identifies one engine latency histogram, in the spirit of
// rocksdb::Histograms.
type HistogramType int

const (
	HistGetMicros HistogramType = iota
	HistWriteMicros
	HistSeekMicros
	HistNextMicros
	HistFlushMicros
	HistCompactionMicros
	HistWALSyncMicros
	// HistWriteGroupSize records batches per committed write group (a raw
	// count, not a latency).
	HistWriteGroupSize
	// HistWriteJoinMicros records how long a writer waited in the write
	// queue before its group committed (leader handoff + publish wait).
	HistWriteJoinMicros
	// HistSubcompactionMicros records the wall time of each subcompaction
	// slice; skew between p50 and max shows unbalanced range partitions.
	HistSubcompactionMicros
	numHistogramTypes
)

var histogramNames = map[HistogramType]string{
	HistGetMicros:        "rocksdb.db.get.micros",
	HistWriteMicros:      "rocksdb.db.write.micros",
	HistSeekMicros:       "rocksdb.db.seek.micros",
	HistNextMicros:       "rocksdb.db.next.micros",
	HistFlushMicros:      "rocksdb.db.flush.micros",
	HistCompactionMicros: "rocksdb.compaction.times.micros",
	HistWALSyncMicros:    "rocksdb.wal.file.sync.micros",
	HistWriteGroupSize:   "rocksdb.db.write.group.size",
	HistWriteJoinMicros:  "rocksdb.db.write.join.micros",

	HistSubcompactionMicros: "rocksdb.subcompaction.times.micros",
}

// String returns the RocksDB-style histogram name.
func (t HistogramType) String() string {
	if s, ok := histogramNames[t]; ok {
		return s
	}
	return fmt.Sprintf("histogram(%d)", int(t))
}

// histBucketLimits are exponential bucket upper bounds in microseconds:
// 1us .. 1e9us with ~7% growth per bucket, plus an overflow bucket. Bucket
// i covers [limit(i-1), limit(i)).
var histBucketLimits = func() []float64 {
	var out []float64
	v := 1.0
	for v < 1e9 {
		out = append(out, v)
		v *= 1.07
	}
	return append(out, math.MaxFloat64)
}()

// Histogram collects latency observations into exponential buckets, in the
// spirit of RocksDB's HistogramImpl. Every counter is atomic, so foreground
// and background goroutines may Add, Merge and read concurrently; a reader
// racing a writer sees a slightly stale but usable summary. The sum and sum
// of squares are float microseconds and the extremes are nanoseconds, so a
// sub-microsecond observation keeps its precision.
type Histogram struct {
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits, microseconds
	sumSq   atomic.Uint64 // float64 bits, microseconds squared
	min     atomic.Int64  // nanoseconds; math.MaxInt64 when empty
	max     atomic.Int64  // nanoseconds
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.init()
	return h
}

func (h *Histogram) init() {
	h.buckets = make([]atomic.Int64, len(histBucketLimits))
	h.min.Store(math.MaxInt64)
}

// Add records one latency observation. A negative duration counts as zero.
func (h *Histogram) Add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	us := float64(d) / float64(time.Microsecond)
	idx := sort.SearchFloat64s(histBucketLimits, us)
	if idx >= len(h.buckets) {
		idx = len(h.buckets) - 1
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	addFloat(&h.sum, us)
	addFloat(&h.sumSq, us*us)
	storeMin(&h.min, int64(d))
	storeMax(&h.max, int64(d))
}

// Merge folds other into h, bucket by bucket. Either side may be recording
// concurrently.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count.Load() == 0 {
		return
	}
	for i := range other.buckets {
		if v := other.buckets[i].Load(); v != 0 {
			h.buckets[i].Add(v)
		}
	}
	h.count.Add(other.count.Load())
	addFloat(&h.sum, math.Float64frombits(other.sum.Load()))
	addFloat(&h.sumSq, math.Float64frombits(other.sumSq.Load()))
	storeMin(&h.min, other.min.Load())
	storeMax(&h.max, other.max.Load())
}

func addFloat(u *atomic.Uint64, v float64) {
	for {
		cur := u.Load()
		if u.CompareAndSwap(cur, math.Float64bits(math.Float64frombits(cur)+v)) {
			return
		}
	}
}

func storeMin(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v >= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observations in microseconds.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Mean returns the average latency in microseconds.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Min returns the smallest observation in microseconds (0 when empty).
func (h *Histogram) Min() float64 {
	if h.Count() == 0 {
		return 0
	}
	return float64(h.min.Load()) / float64(time.Microsecond)
}

// Max returns the largest observation in microseconds (0 when empty).
func (h *Histogram) Max() float64 {
	if h.Count() == 0 {
		return 0
	}
	return float64(h.max.Load()) / float64(time.Microsecond)
}

// StdDev returns the standard deviation in microseconds.
func (h *Histogram) StdDev() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	mean := h.Mean()
	v := math.Float64frombits(h.sumSq.Load())/float64(n) - mean*mean
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Percentile returns the p-th percentile (p in (0,100]) in microseconds by
// linear interpolation inside the covering bucket, like RocksDB.
func (h *Histogram) Percentile(p float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	minUs, maxUs := h.Min(), h.Max()
	threshold := float64(n) * p / 100
	var cum float64
	for i := range h.buckets {
		c := float64(h.buckets[i].Load())
		cum += c
		if cum >= threshold {
			lo := 0.0
			if i > 0 {
				lo = histBucketLimits[i-1]
			}
			hi := histBucketLimits[i]
			if hi > maxUs {
				hi = maxUs
			}
			if c == 0 {
				return hi
			}
			left := threshold - (cum - c)
			r := lo + (hi-lo)*left/c
			if r < minUs {
				r = minUs
			}
			return r
		}
	}
	return maxUs
}

// P50, P95, P99 and P999 are convenience accessors (microseconds).
func (h *Histogram) P50() float64  { return h.Percentile(50) }
func (h *Histogram) P95() float64  { return h.Percentile(95) }
func (h *Histogram) P99() float64  { return h.Percentile(99) }
func (h *Histogram) P999() float64 { return h.Percentile(99.9) }

// String renders a db_bench-style summary line plus percentiles.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Count: %d Average: %.4f StdDev: %.2f\n", h.Count(), h.Mean(), h.StdDev())
	fmt.Fprintf(&b, "Min: %.4f Median: %.4f Max: %.4f\n", h.Min(), h.P50(), h.Max())
	fmt.Fprintf(&b, "Percentiles: P50: %.2f P75: %.2f P99: %.2f P99.9: %.2f P99.99: %.2f\n",
		h.P50(), h.Percentile(75), h.P99(), h.P999(), h.Percentile(99.99))
	return b.String()
}

// HistogramData is a point-in-time summary of one histogram. Latencies are
// in microseconds.
type HistogramData struct {
	Name  string
	Count int64
	Sum   int64
	Mean  float64
	Min   float64
	Max   float64
	P50   float64
	P95   float64
	P99   float64
}

// HistogramStats records per-operation engine latencies (Get, Write, Seek,
// Next, flush, compaction, WAL sync) into one Histogram per RocksDB
// histogram name. All methods are nil-safe and safe for concurrent use.
type HistogramStats struct {
	hists [numHistogramTypes]Histogram
}

// NewHistogramStats returns an empty set of engine histograms.
func NewHistogramStats() *HistogramStats {
	h := &HistogramStats{}
	for i := range h.hists {
		h.hists[i].init()
	}
	return h
}

// Record adds one latency observation to histogram t.
func (h *HistogramStats) Record(t HistogramType, d time.Duration) {
	if h == nil || t < 0 || t >= numHistogramTypes {
		return
	}
	h.hists[t].Add(d)
}

// RecordValue adds one raw (unit-less) observation, e.g. a write-group size;
// it is booked as that many microseconds.
func (h *HistogramStats) RecordValue(t HistogramType, v int64) {
	h.Record(t, time.Duration(v)*time.Microsecond)
}

// Data summarizes one histogram.
func (h *HistogramStats) Data(t HistogramType) HistogramData {
	d := HistogramData{Name: t.String()}
	if h == nil || t < 0 || t >= numHistogramTypes {
		return d
	}
	hist := &h.hists[t]
	if d.Count = hist.Count(); d.Count == 0 {
		return d
	}
	d.Sum = int64(math.Round(hist.Sum()))
	d.Mean = hist.Mean()
	d.Min, d.Max = hist.Min(), hist.Max()
	d.P50, d.P95, d.P99 = hist.P50(), hist.P95(), hist.P99()
	return d
}

// Merge folds another histogram set's observations into h, histogram by
// histogram. Both sides may be recording concurrently. Used by the shard
// router to aggregate per-shard engine histograms into one view.
func (h *HistogramStats) Merge(o *HistogramStats) {
	if h == nil || o == nil {
		return
	}
	for t := range o.hists {
		h.hists[t].Merge(&o.hists[t])
	}
}

// Snapshot returns a summary of every histogram that has observations,
// ordered by histogram type.
func (h *HistogramStats) Snapshot() []HistogramData {
	var out []HistogramData
	if h == nil {
		return out
	}
	for t := HistogramType(0); t < numHistogramTypes; t++ {
		if d := h.Data(t); d.Count > 0 {
			out = append(out, d)
		}
	}
	return out
}

// String renders non-empty histograms in the RocksDB statistics-dump format:
//
//	rocksdb.db.get.micros P50 : 3.10 P95 : 9.80 P99 : 14.20 COUNT : 123 SUM : 456
func (h *HistogramStats) String() string {
	var b strings.Builder
	for _, d := range h.Snapshot() {
		fmt.Fprintf(&b, "%s P50 : %.2f P95 : %.2f P99 : %.2f COUNT : %d SUM : %d\n",
			d.Name, d.P50, d.P95, d.P99, d.Count, d.Sum)
	}
	return b.String()
}
