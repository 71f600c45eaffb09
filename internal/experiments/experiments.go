// Package experiments reproduces the paper's evaluation (§5): Tables 1-5
// and Figures 3-4, at a configurable scale (see lsm.Scaled and DESIGN.md §2
// for the scaling substitution). Each experiment is an ELMo-Tune session —
// the full feedback loop against the simulated GPT-4 expert — on a given
// device model, hardware profile and workload.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/flagger"
	"repro/internal/llm"
	"repro/internal/lsm"
	"repro/internal/mockllm"
	"repro/internal/sysmon"
)

// Config shapes an experiment run.
type Config struct {
	// Scale divides the paper's operation counts, the hardware memory and
	// every byte-dimensioned option. Default 40 (50M-op fillrandom becomes
	// 1.25M ops on a 102 MiB-memory host with a 1.6 MiB write buffer).
	Scale int64
	// Seed drives workloads, the engine and the expert.
	Seed int64
	// MaxIterations per tuning session (paper: 7).
	MaxIterations int
	// Client overrides the LLM (default: mockllm.NewExpert(Seed)).
	Client llm.Client
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
	// OnDB, when set, is called with each freshly opened database before its
	// benchmark runs (used to repoint a live /metrics exporter at the
	// current iteration's DB).
	OnDB func(*lsm.DB)
	// Trace, when set, receives the tuning loop's JSONL trace (one
	// core.TraceRecord per iteration).
	Trace io.Writer
	// InsightPath, when set, names the cross-session insight memory file:
	// the session recalls the best configuration found for similar workload
	// fingerprints and records its own outcome at the end.
	InsightPath string
	// ColumnFamilies, when non-empty, opens every session database with
	// these named families (beyond "default"), spreads workload traffic
	// across them, and lets the tuner adjust each family's CFOptions
	// independently.
	ColumnFamilies []string
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 40
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 7
	}
	if c.Client == nil {
		c.Client = mockllm.NewExpert(c.Seed)
	}
	return c
}

// PaperOps returns the paper's op counts divided by scale: fillrandom 50M;
// readrandom 10M reads over 25M preloaded; RRWR 25M; mixgraph 25M.
func PaperOps(scale int64) (fr, rrReads, rrPreload, rrwr, mix int64) {
	return 50_000_000 / scale,
		10_000_000 / scale,
		25_000_000 / scale,
		25_000_000 / scale,
		25_000_000 / scale
}

// workloadSpec builds the scaled Spec for one of the paper's workloads.
func workloadSpec(name string, cfg Config) (*bench.Spec, error) {
	fr, rrReads, rrPreload, rrwr, mix := PaperOps(cfg.Scale)
	// db_bench's default value size: with 25M keys this makes the dataset
	// comparable to the 4 GiB hosts' memory, the regime where cache tuning
	// has leverage (and the regime the paper ran in).
	const valueSize = 100
	switch name {
	case "fillrandom":
		return bench.FillRandom(fr, valueSize, cfg.Seed), nil
	case "readrandom":
		return bench.ReadRandom(rrReads, uint64(rrPreload), valueSize, cfg.Seed), nil
	case "readrandomwriterandom":
		return bench.ReadRandomWriteRandom(rrwr, valueSize, cfg.Seed), nil
	case "mixgraph":
		return bench.Mixgraph(mix, valueSize, cfg.Seed), nil
	default:
		return nil, fmt.Errorf("experiments: unknown workload %q", name)
	}
}

// workloadDescription is the user's expected-workload statement per §5.1.
func workloadDescription(name string) string {
	switch name {
	case "fillrandom":
		return "write intensive: 100% random-key inserts"
	case "readrandom":
		return "read intensive: 100% random point lookups on a preloaded database"
	case "readrandomwriterandom":
		return "mixed: two threads interleaving random reads (90%) and writes (10%)"
	case "mixgraph":
		return "production-like mix: 50% reads / 50% writes, skewed key popularity"
	default:
		return name
	}
}

// SimRunner executes benchmarks for one (device, profile) pair, creating a
// fresh scaled environment and database per call so iterations are
// independent, like the paper's separate db_bench invocations.
type SimRunner struct {
	Device   *device.Model
	Profile  device.Profile
	Workload string
	Cfg      Config
	runs     int
}

// RunBenchmarkConfig implements core.ConfigRunner: the whole multi-family
// configuration is opened (named families and their per-family options
// included) and the workload spreads traffic across Cfg.ColumnFamilies.
func (s *SimRunner) RunBenchmarkConfig(cfg *lsm.ConfigSet, monitor func(bench.Progress) bool) (*bench.Report, error) {
	s.runs++
	env := lsm.NewScaledSimEnv(s.Device, s.Profile, s.Cfg.Scale, s.Cfg.Seed+int64(s.runs))
	c := cfg.Scaled(s.Cfg.Scale)
	c.Default.Env = env
	c.Default.Stats = lsm.NewStatistics()
	c.Default.Seed = s.Cfg.Seed
	db, err := lsm.OpenConfig("/bench-db", c)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	if s.Cfg.OnDB != nil {
		s.Cfg.OnDB(db)
	}
	spec, err := workloadSpec(s.Workload, s.Cfg)
	if err != nil {
		return nil, err
	}
	spec.ColumnFamilies = s.Cfg.ColumnFamilies
	r := &bench.Runner{DB: db, Spec: spec, Monitor: monitor}
	return r.Run()
}

// HostMonitor reports the UNSCALED hardware profile so prompts (and the
// expert's memory-aware sizing) see the paper's real machine sizes.
type HostMonitor struct {
	Device  *device.Model
	Profile device.Profile
}

// Host implements sysmon.Monitor.
func (h *HostMonitor) Host() sysmon.HostInfo {
	env := lsm.NewSimEnv(h.Device, h.Profile, 1)
	return sysmon.NewSimMonitor(env).Host()
}

// Sample implements sysmon.Monitor.
func (h *HostMonitor) Sample() sysmon.Usage { return sysmon.Usage{} }

// IterPoint is one bar of the paper's per-iteration figures.
type IterPoint struct {
	Iteration  int
	Throughput float64
	P99Write   float64
	P99Read    float64
	Kept       bool
}

// Session is one complete tuning run and its derived series.
type Session struct {
	Workload string
	// Device and Profile name the simulated hardware (RunSession only).
	Device  string
	Profile string
	Result  *core.Result
	// Points holds iterations 0..N (0 = default config).
	Points []IterPoint
	// Elapsed is the wall time of the whole session.
	Elapsed time.Duration
}

// DefaultMetrics and TunedMetrics are the table cells.
func (s *Session) DefaultMetrics() flagger.Metrics { return s.Result.BaselineMetrics }

// TunedMetrics returns the best configuration's metrics.
func (s *Session) TunedMetrics() flagger.Metrics { return s.Result.BestMetrics }

// RunSession executes one full ELMo-Tune session on the simulated device.
func RunSession(ctx context.Context, dev *device.Model, prof device.Profile, workload string, cfg Config) (*Session, error) {
	cfg = cfg.withDefaults()
	s, err := RunSessionOn(ctx, &SimRunner{Device: dev, Profile: prof, Workload: workload, Cfg: cfg},
		&HostMonitor{Device: dev, Profile: prof}, workload, cfg)
	if err != nil {
		return nil, err
	}
	s.Device, s.Profile = dev.Kind.String(), prof.Name
	return s, nil
}

// RunSessionOn executes one full ELMo-Tune session on any runner: the
// simulator's or the real filesystem's. monitor describes the host to the
// prompts. The 30-second early-stop window is divided by cfg.Scale, so a
// runner on wall time runs at Scale 1.
func RunSessionOn(ctx context.Context, runner core.ConfigRunner, monitor sysmon.Monitor, workload string, cfg Config) (*Session, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	// Seed the session with one CFOptions entry per requested family so the
	// LLM sees (and may tune) each of them from iteration 1.
	initial := lsm.NewConfigSet(lsm.DBBenchDefaults())
	for _, name := range cfg.ColumnFamilies {
		initial.CF(name)
	}
	res, err := core.Run(ctx, core.Config{
		Client:              cfg.Client,
		Runner:              runner,
		Monitor:             monitor,
		InitialConfig:       initial,
		WorkloadName:        workload,
		WorkloadDescription: workloadDescription(workload),
		MaxIterations:       cfg.MaxIterations,
		// Keep tuning through plateaus: the paper always runs 7 iterations.
		StallLimit: cfg.MaxIterations + 1,
		// The paper's 30-second monitor window, in the runner's clock.
		EarlyStopCheckAfter: 30 * time.Second / time.Duration(cfg.Scale),
		Logf:                cfg.Logf,
		Trace:               cfg.Trace,
		InsightPath:         cfg.InsightPath,
	})
	if err != nil {
		return nil, err
	}
	s := &Session{
		Workload: workload,
		Result:   res,
		Elapsed:  time.Since(start),
	}
	s.Points = append(s.Points, IterPoint{
		Iteration:  0,
		Throughput: res.BaselineMetrics.Throughput,
		P99Write:   res.BaselineMetrics.P99Write,
		P99Read:    res.BaselineMetrics.P99Read,
		Kept:       true,
	})
	for _, it := range res.Iterations {
		s.Points = append(s.Points, IterPoint{
			Iteration:  it.Number,
			Throughput: it.Metrics.Throughput,
			P99Write:   it.Metrics.P99Write,
			P99Read:    it.Metrics.P99Read,
			Kept:       it.Kept,
		})
	}
	return s, nil
}
