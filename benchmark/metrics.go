package main

import (
	"bufio"
	"fmt"
	"math"
	"math/bits"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric name to value; every name is listed in BENCHMARK.json.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// endToEndUnits and perLayerUnits are the complete metric sets, by name, of
// an untraced and a traced run. Every workload reports every name: a layer a
// workload does not touch reads 0 in the traced set, and the end-to-end set
// holds only metrics that are defined, and never 0, on all four workloads.
// TestBenchmarkJSONMatchesDriver holds BENCHMARK.json to these tables.
var endToEndUnits = map[string]string{
	"setup_s":            "s",
	"ops_per_s":          "1/s",
	"p50_us":             "us",
	"cpu_us_per_op":      "us",
	"allocs_per_op":      "count",
	"alloc_bytes_per_op": "B",
	"rss_peak_mb":        "MB",
	"write_amp":          "x",
}

var perLayerUnits = map[string]string{
	"bench.gen_us": "us",

	"server.protocol.encode_req_us":  "us",
	"server.protocol.decode_req_us":  "us",
	"server.protocol.encode_resp_us": "us",
	"server.protocol.decode_resp_us": "us",
	"server.client.call_us":          "us",
	"server.conn.self_us":            "us",
	"server.router.get_us":           "us",
	"server.router.put_us":           "us",
	"server.router.scan_us":          "us",
	"server.router.self_us":          "us",
	"server.client.p50_us":           "us",
	"server.client.p99_us":           "us",
	"server.client.p999_us":          "us",
	"server.client.read_p99_us":      "us",
	"server.client.write_p99_us":     "us",
	"server.client.max_ms":           "ms",

	"lsm.get_us":              "us",
	"lsm.put_us":              "us",
	"lsm.seek_us":             "us",
	"lsm.write_wal_us":        "us",
	"lsm.write_memtable_us":   "us",
	"lsm.write_delay_us":      "us",
	"lsm.db_mutex_us":         "us",
	"lsm.get_memtable_us":     "us",
	"lsm.get_files_us":        "us",
	"lsm.block_read_us":       "us",
	"lsm.block_reads_per_get": "count",
	"lsm.fsync_us":            "us",

	"lsm.block_cache_hit_rate": "ratio",
	"lsm.table_cache_hit_rate": "ratio",
	"lsm.memtable_hit_rate":    "ratio",
	"lsm.bloom_useful_rate":    "ratio",
	"lsm.block_cache_evicts":   "count",
	"lsm.write_group_size":     "count",
	"lsm.wal_bytes_per_op":     "B",
	"lsm.wal_syncs":            "count",
	"lsm.flush_count":          "count",
	"lsm.flush_mb":             "MB",
	"lsm.compact_count":        "count",
	"lsm.compact_read_mb":      "MB",
	"lsm.compact_write_mb":     "MB",
	"lsm.stall_ms":             "ms",
	"lsm.slowdown_writes":      "count",
	"lsm.stopped_writes":       "count",
	"lsm.read_amp":             "count",
	"lsm.space_amp":            "x",
	"lsm.load_write_amp":       "x",

	"lsm.flush_mb_per_s":   "MB/s",
	"lsm.compact_mb_per_s": "MB/s",
	"lsm.open_ms":          "ms",

	"core.session_s":                "s",
	"core.iterations":               "count",
	"core.kept":                     "count",
	"core.reverted":                 "count",
	"core.llm_calls":                "count",
	"core.self_ms_per_iter":         "ms",
	"core.improvement_x":            "x",
	"core.llm_calls_per_kept":       "count",
	"experiments.simrun_s_per_iter": "s",
	"lsm.sim_ops_per_wall_s":        "1/s",
	"lsm.sim_virtual_s":             "s",
	"mockllm.complete_ms":           "ms",
	"prompt.build_us":               "us",
	"prompt.bytes":                  "B",
	"parser.parse_us":               "us",
	"safeguard.vet_us":              "us",
	"safeguard.accept_rate":         "ratio",
	"ini.roundtrip_us":              "us",

	"proc.gc_cycles":   "count",
	"proc.gc_pause_ms": "ms",
	"proc.heap_mb":     "MB",

	"trace.spans":                    "count",
	"trace.unattributed_frac":        "ratio",
	"trace.perf_level_overhead_frac": "ratio",
	"trace.calib_ms":                 "ms",
	"trace.calib_drift_frac":         "ratio",
}

// complete fills every name of units that m lacks with 0: the layer did no
// work on this workload.
func (m metrics) complete(units map[string]string) {
	for name, unit := range units {
		if _, ok := m[name]; !ok {
			m.set(name, 0, unit)
		}
	}
}

// matches reports the first difference between m and the set units names.
func (m metrics) matches(units map[string]string) error {
	for name, unit := range units {
		if got, ok := m[name]; !ok {
			return fmt.Errorf("metric %s was not measured", name)
		} else if got.Unit != unit {
			return fmt.Errorf("metric %s has unit %q, want %q", name, got.Unit, unit)
		}
	}
	for name := range m {
		if _, ok := units[name]; !ok {
			return fmt.Errorf("metric %s is not in the benchmark's metric set", name)
		}
	}
	return nil
}

func sortedNames(m metrics) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// procSample is the process-wide cost counters at one instant.
type procSample struct {
	wall     time.Time
	cpu      time.Duration // user + system
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcPause  time.Duration
	heap     uint64
}

func sampleProc() procSample {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		wall:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcCycles: ms.NumGC,
		gcPause:  time.Duration(ms.PauseTotalNs),
		heap:     ms.HeapAlloc,
	}
}

// rssPeakMB reads the process's peak resident set (VmHWM) in MB.
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// procMetrics turns two samples and an op count into the per-op cost
// metrics every workload reports.
func procMetrics(m metrics, a, b procSample, ops int64) {
	n := float64(ops)
	m.set("cpu_us_per_op", float64((b.cpu-a.cpu).Microseconds())/n, "us")
	m.set("allocs_per_op", float64(b.mallocs-a.mallocs)/n, "count")
	m.set("alloc_bytes_per_op", float64(b.bytes-a.bytes)/n, "B")
	m.set("rss_peak_mb", rssPeakMB(), "MB")
}

func gcMetrics(m metrics, a, b procSample) {
	m.set("proc.gc_cycles", float64(b.gcCycles-a.gcCycles), "count")
	m.set("proc.gc_pause_ms", float64((b.gcPause-a.gcPause).Microseconds())/1e3, "ms")
	m.set("proc.heap_mb", float64(b.heap)/(1<<20), "MB")
}

// calibrate times a fixed pure-CPU loop, three times, and keeps the fastest.
// The loop touches no memory and makes no call, so a change in its reading
// is a change in the machine (frequency, a noisy neighbour), not in the
// program; the minimum of three drops a reading that a single preemption
// stretched and keeps a slowdown that lasts.
func calibrate() time.Duration {
	best := time.Duration(math.MaxInt64)
	for r := 0; r < 3; r++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 40_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink = x
		best = min(best, time.Since(start))
	}
	return best
}

var calibSink uint64

// latHist is a log-linear latency histogram: 64 sub-buckets per power of
// two of nanoseconds (under 1.6 % bucket width), percentiles interpolated
// inside the bucket. One per caller, merged after the run.
type latHist struct {
	counts [64 * histSub]uint32
	n      uint64
	max    time.Duration
}

const histSub = 64

func histBucket(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	e := bits.Len64(ns) - 7 // ns>>e is in [64,128)
	return (e+1)*histSub + int(ns>>e) - histSub
}

// bucketLow is the smallest value that lands in bucket i.
func bucketLow(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	e := i/histSub - 1
	return float64(uint64(histSub+i%histSub) << e)
}

func (h *latHist) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histBucket(uint64(d))]++
	h.n++
	if d > h.max {
		h.max = d
	}
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// percentileUS returns the p-th percentile (0 < p < 100) in microseconds.
func (h *latHist) percentileUS(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := p / 100 * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= target {
			lo, hi := bucketLow(i), bucketLow(i+1)
			return (lo + (hi-lo)*(target-seen)/float64(c)) / 1e3
		}
		seen += float64(c)
	}
	return float64(h.max) / 1e3
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
