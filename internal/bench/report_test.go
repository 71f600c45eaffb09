package bench

import (
	"strings"
	"testing"
	"time"

	"repro/internal/lsm"
)

func sampleReport() *Report {
	r := &Report{
		Workload:   "readrandomwriterandom",
		Threads:    2,
		Ops:        10000,
		Bytes:      5 << 20,
		Elapsed:    2 * time.Second,
		Throughput: 5000,
		Read:       lsm.NewHistogram(),
		Write:      lsm.NewHistogram(),
		ReadMisses: 120,
		Stats: map[string]int64{
			"rocksdb.stall.micros":    1234,
			"rocksdb.flush.count":     7,
			"rocksdb.block.cache.hit": 999,
		},
		Metrics: lsm.Metrics{LevelFiles: []int{2, 1, 0}},
	}
	for i := 0; i < 100; i++ {
		r.Write.Add(time.Duration(5+i%10) * time.Microsecond)
		r.Read.Add(time.Duration(50+i%100) * time.Microsecond)
	}
	return r
}

func TestReportFormat(t *testing.T) {
	out := sampleReport().Format()
	for _, want := range []string{
		"readrandomwriterandom",
		"micros/op",
		"5000 ops/sec",
		"MB/s",
		"found)",
		"Microseconds per write:",
		"Microseconds per read:",
		"Level files: [2 1 0]",
		"rocksdb.stall.micros COUNT : 1234",
		"rocksdb.flush.count COUNT : 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestReportDerivedMetrics(t *testing.T) {
	r := sampleReport()
	if mpo := r.MicrosPerOp(); mpo < 199 || mpo > 201 {
		t.Fatalf("MicrosPerOp = %v", mpo)
	}
	if mbs := r.MBPerSec(); mbs < 2.5 || mbs > 2.7 {
		t.Fatalf("MBPerSec = %v", mbs)
	}
	if r.P99Read() <= r.P99Write() {
		t.Fatal("sample read p99 should exceed write p99")
	}
	sum := r.Summary()
	if !strings.Contains(sum, "readrandomwriterandom") || !strings.Contains(sum, "p99") {
		t.Fatalf("Summary = %q", sum)
	}
}

func TestReportAbortedMarker(t *testing.T) {
	r := sampleReport()
	r.Aborted = true
	if !strings.Contains(r.Format(), "[ABORTED EARLY]") {
		t.Fatal("aborted marker missing")
	}
}

func TestReportZeroDivisionSafety(t *testing.T) {
	r := &Report{Read: lsm.NewHistogram(), Write: lsm.NewHistogram()}
	if r.MicrosPerOp() != 0 || r.MBPerSec() != 0 {
		t.Fatal("zero report produced non-zero rates")
	}
	_ = r.Format() // must not panic
}
