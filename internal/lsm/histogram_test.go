package lsm

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.P99() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	for i := 1; i <= 100; i++ {
		h.Add(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if m := h.Mean(); m < 49 || m > 52 {
		t.Fatalf("mean = %v", m)
	}
	if p := h.P50(); p < 40 || p > 60 {
		t.Fatalf("p50 = %v", p)
	}
	if p := h.P99(); p < 90 || p > 101 {
		t.Fatalf("p99 = %v", p)
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if h.StdDev() <= 0 {
		t.Fatal("stddev")
	}
	if h.String() == "" {
		t.Fatal("empty render")
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 50; i++ {
		a.Add(10 * time.Microsecond)
		b.Add(1000 * time.Microsecond)
	}
	a.Merge(b)
	if a.Count() != 100 {
		t.Fatalf("count = %d", a.Count())
	}
	if p := a.P99(); p < 900 {
		t.Fatalf("p99 after merge = %v", p)
	}
	a.Merge(nil) // nil-safe
}

// TestQuickHistogramPercentileMonotone: percentiles are monotone in p and
// bounded by min/max.
func TestQuickHistogramPercentileMonotone(t *testing.T) {
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := NewHistogram()
		n := 1 + r.Intn(500)
		for i := 0; i < n; i++ {
			h.Add(time.Duration(1+r.Intn(1_000_000)) * time.Microsecond)
		}
		prev := 0.0
		for _, p := range []float64{10, 25, 50, 75, 90, 99, 99.9} {
			v := h.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return h.Percentile(100) <= h.Max()+1e-9 && h.Percentile(1) >= h.Min()-1e-9
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramPinned pins the report-side arithmetic every simulated
// percentile, summary.txt and flagger decision depends on: the values are
// the ones the former single-goroutine bench.Histogram printed for the same
// observations at commit b485cc34ed5756b4bfc168c97d7f5883120385b1, and must
// stay equal to the last bit.
func TestHistogramPinned(t *testing.T) {
	h := NewHistogram()
	for _, d := range []time.Duration{
		250 * time.Nanosecond, 999 * time.Nanosecond, 1500 * time.Nanosecond,
		time.Microsecond, 3 * time.Microsecond, 17 * time.Microsecond, 17 * time.Microsecond,
		250 * time.Microsecond, 999 * time.Microsecond, 1500 * time.Microsecond,
		12 * time.Millisecond, 250 * time.Millisecond, 1200 * time.Millisecond, 3 * time.Second,
	} {
		h.Add(d)
	}
	if h.Count() != 14 {
		t.Fatalf("count = %d, want 14", h.Count())
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"min", h.Min(), 0.25},
		{"max", h.Max(), 3e+06},
		{"mean", h.Mean(), 318913.5535},
		{"stddev", h.StdDev(), 805284.570225615},
		{"p50", h.P50(), 17.144256780108087},
		{"p95", h.P95(), 2.9395254583416176e+06},
		{"p99", h.P99(), 2.9879050916683236e+06},
		{"p99.9", h.P999(), 2.9987905091668325e+06},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	const want = "Count: 14 Average: 318913.5535 StdDev: 805284.57\n" +
		"Min: 0.2500 Median: 17.1443 Max: 3000000.0000\n" +
		"Percentiles: P50: 17.14 P75: 11746.32 P99: 2987905.09 P99.9: 2998790.51 P99.99: 2999879.05\n"
	if got := h.String(); got != want {
		t.Errorf("String() =\n%s\nwant\n%s", got, want)
	}
}

func TestHistogramRecordAndData(t *testing.T) {
	h := NewHistogramStats()
	for i := 1; i <= 100; i++ {
		h.Record(HistGetMicros, time.Duration(i)*time.Microsecond)
	}
	d := h.Data(HistGetMicros)
	if d.Count != 100 {
		t.Fatalf("count = %d, want 100", d.Count)
	}
	if d.Sum != 5050 {
		t.Fatalf("sum = %d, want 5050", d.Sum)
	}
	if d.Min != 1 || d.Max != 100 {
		t.Fatalf("min/max = %g/%g, want 1/100", d.Min, d.Max)
	}
	if d.Mean < 50 || d.Mean > 51.5 {
		t.Fatalf("mean = %f, want ~50.5", d.Mean)
	}
	// Percentiles are interpolated within exponential buckets: accept slack
	// well beyond the ~7% bucket growth.
	if d.P50 < 35 || d.P50 > 70 {
		t.Fatalf("p50 = %f, want ~50", d.P50)
	}
	if d.P99 < d.P95 || d.P95 < d.P50 {
		t.Fatalf("percentiles not monotone: p50=%f p95=%f p99=%f", d.P50, d.P95, d.P99)
	}
	if d.Name != "rocksdb.db.get.micros" {
		t.Fatalf("name = %q", d.Name)
	}
}

// A sub-microsecond observation lands in the first (<= 1 us) bucket and
// keeps its precision in the extremes.
func TestHistogramSubMicrosecondClampsToOne(t *testing.T) {
	h := NewHistogramStats()
	h.Record(HistWriteMicros, 10*time.Nanosecond)
	d := h.Data(HistWriteMicros)
	if d.Count != 1 || d.Min != 0.01 || d.Max != 0.01 || d.P99 > 1 {
		t.Fatalf("data = %+v", d)
	}
}

func TestHistogramSnapshotOrderingAndFiltering(t *testing.T) {
	h := NewHistogramStats()
	// Record in reverse declaration order; Snapshot must come back in
	// declaration order and include only non-empty histograms.
	h.Record(HistWALSyncMicros, time.Millisecond)
	h.Record(HistFlushMicros, time.Millisecond)
	h.Record(HistGetMicros, time.Millisecond)
	snap := h.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len = %d, want 3 (empty histograms filtered)", len(snap))
	}
	want := []string{"rocksdb.db.get.micros", "rocksdb.db.flush.micros", "rocksdb.wal.file.sync.micros"}
	for i, w := range want {
		if snap[i].Name != w {
			t.Fatalf("snapshot[%d] = %q, want %q", i, snap[i].Name, w)
		}
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogramStats()
	h.Record(HistWriteMicros, 100*time.Microsecond)
	h.Record(HistWriteMicros, 200*time.Microsecond)
	s := h.String()
	if !strings.Contains(s, "rocksdb.db.write.micros") {
		t.Fatalf("missing histogram name:\n%s", s)
	}
	for _, tok := range []string{"P50 :", "P95 :", "P99 :", "COUNT : 2", "SUM : 300"} {
		if !strings.Contains(s, tok) {
			t.Fatalf("missing %q in:\n%s", tok, s)
		}
	}
	if strings.Contains(s, "rocksdb.db.get.micros") {
		t.Fatalf("empty histogram rendered:\n%s", s)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *HistogramStats
	h.Record(HistGetMicros, time.Microsecond) // must not panic
	if d := h.Data(HistGetMicros); d.Count != 0 {
		t.Fatalf("nil data = %+v", d)
	}
	if s := h.Snapshot(); len(s) != 0 {
		t.Fatalf("nil snapshot = %v", s)
	}
	if s := h.String(); s != "" {
		t.Fatalf("nil string = %q", s)
	}
}

// TestHistogramConcurrentRecord is the -race regression test for the
// engine's shared histograms: many goroutines record into the same
// HistogramStats (as foreground ops and background jobs do in OS mode)
// while another goroutine merges the set into an aggregate (as the shard
// router does for /metrics).
func TestHistogramConcurrentRecord(t *testing.T) {
	h := NewHistogramStats()
	const goroutines = 8
	const perG = 5000
	agg := NewHistogramStats()
	stop := make(chan struct{})
	merged := make(chan struct{})
	go func() {
		defer close(merged)
		for {
			select {
			case <-stop:
				return
			default:
				agg.Merge(h)
				_ = agg.Data(HistGetMicros)
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Record(HistGetMicros, time.Duration(1+(g*perG+i)%1000)*time.Microsecond)
				h.Record(HistWriteMicros, time.Duration(1+i%100)*time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-merged
	if d := agg.Data(HistGetMicros); d.Count > 0 && (d.Min != 1 || d.Max > 1000) {
		t.Fatalf("merged while recording: %+v", d)
	}
	final := NewHistogramStats()
	final.Merge(h)
	if got, want := final.Data(HistGetMicros), h.Data(HistGetMicros); got != want {
		t.Fatalf("merge of a quiescent set = %+v, want %+v", got, want)
	}
	if d := h.Data(HistGetMicros); d.Count != goroutines*perG {
		t.Fatalf("get count = %d, want %d", d.Count, goroutines*perG)
	}
	if d := h.Data(HistWriteMicros); d.Count != goroutines*perG {
		t.Fatalf("write count = %d, want %d", d.Count, goroutines*perG)
	}
	if d := h.Data(HistGetMicros); d.Min != 1 || d.Max != 1000 {
		t.Fatalf("min/max = %g/%g, want 1/1000", d.Min, d.Max)
	}
}
