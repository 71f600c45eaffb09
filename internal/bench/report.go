package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/lsm"
)

// Report is the outcome of one benchmark run. It carries both structured
// metrics (consumed by the Active Flagger) and a db_bench-style text
// rendering (embedded in LLM prompts, like the paper's benchmark output).
type Report struct {
	Workload   string
	Threads    int
	Ops        int64
	Bytes      int64
	Elapsed    time.Duration
	Throughput float64 // ops/sec
	Read       *lsm.Histogram
	Write      *lsm.Histogram
	ReadMisses int64
	Errors     int64 // operations the store failed (a miss is not a failure)
	Aborted    bool
	ValueSize  int

	Metrics  lsm.Metrics
	SimStats lsm.SimStats
	Stats    map[string]int64

	// StatsDump is the engine's rocksdb.stats property text at the end of
	// the run (per-level compaction-stats table included). HistogramDump is
	// the engine histograms' RocksDB-style P50/P95/P99 lines. Both feed the
	// tuning loop's trace and the LLM prompt; neither is part of Format()
	// because flagger.ParseReportText keys off the P99 lines there.
	StatsDump     string
	HistogramDump string

	// WorkloadSnap characterizes the traffic the engine actually served
	// during the run (ops mix, per-CF shares, write-amp, stall fraction);
	// the tuning loop feeds it to the prompt and scores drift across
	// iterations.
	WorkloadSnap *lsm.WorkloadSnapshot
}

// MicrosPerOp returns the mean operation latency in microseconds.
func (r *Report) MicrosPerOp() float64 {
	if r.Ops == 0 {
		return 0
	}
	return r.Elapsed.Seconds() * 1e6 / float64(r.Ops)
}

// MBPerSec returns user data bandwidth in MB/s.
func (r *Report) MBPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / 1e6 / r.Elapsed.Seconds()
}

// P99Read and P99Write return tail latencies in microseconds (0 if the side
// saw no operations).
func (r *Report) P99Read() float64  { return r.Read.P99() }
func (r *Report) P99Write() float64 { return r.Write.P99() }

// Format renders the report in db_bench style: the summary line the paper's
// parser extracts, latency histograms, and level/statistics context.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s : %11.3f micros/op %.0f ops/sec; %6.1f MB/s",
		r.Workload, r.MicrosPerOp(), r.Throughput, r.MBPerSec())
	if r.ReadMisses > 0 {
		reads := r.Read.Count()
		fmt.Fprintf(&b, " (%d of %d found)", reads-r.ReadMisses, reads)
	}
	if r.Aborted {
		b.WriteString(" [ABORTED EARLY]")
	}
	b.WriteString("\n")
	if r.Errors > 0 {
		fmt.Fprintf(&b, "errors: %d of %d operations failed\n", r.Errors, r.Ops)
	}
	if r.Write.Count() > 0 {
		fmt.Fprintf(&b, "Microseconds per write:\n%s", r.Write.String())
	}
	if r.Read.Count() > 0 {
		fmt.Fprintf(&b, "Microseconds per read:\n%s", r.Read.String())
	}
	fmt.Fprintf(&b, "Level files: %v\n", r.Metrics.LevelFiles)
	fmt.Fprintf(&b, "Pending compaction bytes: %d\n", r.Metrics.PendingCompactionBytes)
	if r.Stats != nil {
		for _, k := range []string{
			"rocksdb.stall.micros",
			"rocksdb.stall.slowdown.writes",
			"rocksdb.stall.stopped.writes",
			"rocksdb.block.cache.hit",
			"rocksdb.block.cache.miss",
			"rocksdb.bloom.filter.useful",
			"rocksdb.compaction.count",
			"rocksdb.flush.count",
		} {
			if v, ok := r.Stats[k]; ok {
				fmt.Fprintf(&b, "%s COUNT : %d\n", k, v)
			}
		}
	}
	return b.String()
}

// Summary is the compact one-line form used in logs.
func (r *Report) Summary() string {
	return fmt.Sprintf("%s: %.0f ops/sec, p99(write)=%.2fus, p99(read)=%.2fus",
		r.Workload, r.Throughput, r.P99Write(), r.P99Read())
}
