package flagger

import (
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/lsm"
)

func TestBetter(t *testing.T) {
	base := Metrics{Throughput: 100000, P99Write: 10, P99Read: 100}
	cases := []struct {
		name string
		cand Metrics
		want bool
	}{
		{"clear win", Metrics{Throughput: 120000, P99Write: 10, P99Read: 100}, true},
		{"clear loss", Metrics{Throughput: 80000, P99Write: 5, P99Read: 50}, false},
		{"tie, better p99", Metrics{Throughput: 100500, P99Write: 5, P99Read: 80}, true},
		{"tie, worse p99", Metrics{Throughput: 100500, P99Write: 20, P99Read: 200}, false},
	}
	for _, tc := range cases {
		if got := Better(tc.cand, base, 0.01); got != tc.want {
			t.Errorf("%s: Better = %v", tc.name, got)
		}
	}
}

func TestFlaggerJudge(t *testing.T) {
	f := New()
	if _, ok := f.Best(); ok {
		t.Fatal("fresh flagger has a best")
	}
	d := f.Judge(Metrics{Throughput: 1000})
	if !d.Keep {
		t.Fatal("first judgment must keep")
	}
	d = f.Judge(Metrics{Throughput: 1500})
	if !d.Keep {
		t.Fatalf("improvement rejected: %s", d.Reason)
	}
	d = f.Judge(Metrics{Throughput: 900})
	if d.Keep {
		t.Fatalf("regression kept: %s", d.Reason)
	}
	if best, _ := f.Best(); best.Throughput != 1500 {
		t.Fatalf("best = %v", best)
	}
}

func TestFlaggerSetBaseline(t *testing.T) {
	f := New()
	f.SetBaseline(Metrics{Throughput: 2000})
	if d := f.Judge(Metrics{Throughput: 1000}); d.Keep {
		t.Fatal("kept a config below the baseline")
	}
}

func TestDeteriorationNote(t *testing.T) {
	d := Decision{
		Current: Metrics{Throughput: 900, P99Write: 12, P99Read: 120},
		Best:    Metrics{Throughput: 1500},
	}
	note := DeteriorationNote(d, "a=1 -> 2")
	for _, want := range []string{"900", "1500", "a=1 -> 2"} {
		if !contains(note, want) {
			t.Fatalf("note missing %q:\n%s", want, note)
		}
	}
}

func TestEarlyStop(t *testing.T) {
	es := NewEarlyStop(100000)
	// Before the 30s check window: never stop.
	if !es.Monitor(bench.Progress{Elapsed: 5 * time.Second, Throughput: 1}) {
		t.Fatal("stopped before check window")
	}
	// After the window, above half of best: continue.
	if !es.Monitor(bench.Progress{Elapsed: 31 * time.Second, Throughput: 60000}) {
		t.Fatal("stopped a healthy run")
	}
	// After the window, collapsed: stop.
	if es.Monitor(bench.Progress{Elapsed: 31 * time.Second, Throughput: 20000}) {
		t.Fatal("did not stop a collapsed run")
	}
	// Disabled when no best is known.
	es0 := NewEarlyStop(0)
	if !es0.Monitor(bench.Progress{Elapsed: time.Hour, Throughput: 1}) {
		t.Fatal("stopped with no reference")
	}
}

func TestFromReport(t *testing.T) {
	r := &bench.Report{
		Throughput: 12345,
		Read:       lsm.NewHistogram(),
		Write:      lsm.NewHistogram(),
	}
	r.Write.Add(10 * time.Microsecond)
	r.Read.Add(100 * time.Microsecond)
	m := FromReport(r)
	if m.Throughput != 12345 || m.P99Write == 0 || m.P99Read == 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

func contains(s, sub string) bool {
	return len(sub) == 0 || (len(s) >= len(sub) && searchIn(s, sub))
}

func searchIn(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
