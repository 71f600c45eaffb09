package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/lsm"
)

// testCfg is small/fast: 1/800 of the paper's ops.
func testCfg() Config {
	return Config{Scale: 800, Seed: 9, MaxIterations: 2}
}

func TestPaperOps(t *testing.T) {
	fr, rrReads, rrPreload, rrwr, mix := PaperOps(50)
	if fr != 1_000_000 || rrReads != 200_000 || rrPreload != 500_000 || rrwr != 500_000 || mix != 500_000 {
		t.Fatalf("PaperOps(50) = %d %d %d %d %d", fr, rrReads, rrPreload, rrwr, mix)
	}
}

func TestWorkloadSpecs(t *testing.T) {
	cfg := testCfg().withDefaults()
	for _, name := range Workloads() {
		s, err := workloadSpec(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if workloadDescription(name) == name {
			t.Errorf("%s: missing workload description", name)
		}
	}
	if _, err := workloadSpec("nope", cfg); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRunSessionQuick(t *testing.T) {
	s, err := RunSession(context.Background(), device.NVMe(), device.Profile4C4G(), "fillrandom", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 3 { // baseline + 2 iterations
		t.Fatalf("points = %d", len(s.Points))
	}
	if s.Points[0].Iteration != 0 || !s.Points[0].Kept {
		t.Fatalf("baseline point wrong: %+v", s.Points[0])
	}
	if s.TunedMetrics().Throughput < s.DefaultMetrics().Throughput {
		t.Fatal("tuned below default: flagger failed")
	}
	if s.Device != "NVMe SSD" || s.Profile != "4CPU+4GiB" {
		t.Fatalf("labels: %q %q", s.Device, s.Profile)
	}
}

func TestFormatTables(t *testing.T) {
	s, err := RunSession(context.Background(), device.NVMe(), device.Profile2C4G(), "fillrandom", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	sessions := []*Session{s}
	t1 := FormatTable1(sessions)
	if !strings.Contains(t1, "Table 1") || !strings.Contains(t1, "Default") || !strings.Contains(t1, "Tuned") {
		t.Fatalf("table 1:\n%s", t1)
	}
	if !strings.Contains(FormatTable2(sessions), "p99 Latency") {
		t.Fatal("table 2 header")
	}
	if !strings.Contains(FormatTable3(sessions), "FR") {
		t.Fatal("table 3 workload column")
	}
	if !strings.Contains(FormatTable4(sessions), "Workload") {
		t.Fatal("table 4 header")
	}
	fig := FormatFigure("Figure X", sessions)
	for _, want := range []string{"(a) Throughput", "(b) P99 Latency Write", "(c) P99 Latency Read", "iter0"} {
		if !strings.Contains(fig, want) {
			t.Fatalf("figure missing %q:\n%s", want, fig)
		}
	}
	csv := CSVFigure(sessions)
	if !strings.HasPrefix(csv, "workload,iteration,") || strings.Count(csv, "\n") != len(s.Points)+1 {
		t.Fatalf("csv:\n%s", csv)
	}
}

func TestOptionTrajectory(t *testing.T) {
	s, err := RunSession(context.Background(), device.SATAHDD(), device.Profile2C4G(), "fillrandom", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	tr := OptionTrajectory(s)
	if len(tr.Options) == 0 {
		t.Fatal("no options changed across a tuning session")
	}
	if len(tr.ByIteration) != len(s.Result.Iterations) {
		t.Fatalf("iterations: %d vs %d", len(tr.ByIteration), len(s.Result.Iterations))
	}
	for _, name := range tr.Options {
		if tr.Defaults[name] == "" && name != "wal_dir" {
			t.Errorf("option %s has no default recorded", name)
		}
	}
	out := FormatTable5(tr)
	if !strings.Contains(out, "Table 5") || !strings.Contains(out, tr.Options[0]) {
		t.Fatalf("table 5:\n%s", out)
	}
}

func TestParseDiffLine(t *testing.T) {
	name, oldV, newV, ok := parseDiffLine("DBOptions.max_background_jobs: 2 -> 4")
	if !ok || name != "max_background_jobs" || oldV != "2" || newV != "4" {
		t.Fatalf("parseDiffLine = %q %q %q %v", name, oldV, newV, ok)
	}
	if _, _, _, ok := parseDiffLine("garbage"); ok {
		t.Fatal("garbage parsed")
	}
}

func TestHostMonitorUnscaled(t *testing.T) {
	h := &HostMonitor{Device: device.NVMe(), Profile: device.Profile4C8G()}
	info := h.Host()
	if info.MemoryBytes != 8*device.GiB || info.CPUs != 4 {
		t.Fatalf("host info scaled or wrong: %+v", info)
	}
	if info.Storage.Kind != "NVMe SSD" {
		t.Fatalf("storage kind = %q", info.Storage.Kind)
	}
	_ = h.Sample()
}

func TestSimRunnerScalesOptions(t *testing.T) {
	r := &SimRunner{Device: device.NVMe(), Profile: device.Profile4C4G(), Workload: "fillrandom", Cfg: testCfg().withDefaults()}
	// An unscaled 64MB write buffer at scale 800 must shrink to the floor.
	rep, err := r.RunBenchmarkConfig(lsm.NewConfigSet(lsm.DBBenchDefaults()), nil)
	if err != nil {
		t.Fatal(err)
	}
	// 62500 ops x ~420B = 26MB written; with the scaled (80KiB) buffer the
	// engine must have flushed many times.
	if rep.Stats["rocksdb.flush.count"] < 10 {
		t.Fatalf("only %d flushes: option scaling ineffective", rep.Stats["rocksdb.flush.count"])
	}
}

func TestHDDWorkloadSweepSkipsReadrandom(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := testCfg()
	cfg.MaxIterations = 1
	sessions, err := WorkloadSweep(context.Background(), device.SATAHDD(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sessions {
		if s.Workload == "readrandom" {
			t.Fatal("readrandom must be omitted on HDD (paper discards it)")
		}
	}
	if len(sessions) != 3 {
		t.Fatalf("sessions = %d, want 3", len(sessions))
	}
}
