// Package core implements the ELMo-Tune feedback loop (the paper's Figure
// 2): prompt generation, the LLM call, option evaluation, safeguard
// enforcement, benchmarking with the 30-second monitor, and the active
// flagger's keep/revert decision — iterated until the stopping criterion.
package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/bench"
	"repro/internal/flagger"
	"repro/internal/llm"
	"repro/internal/lsm"
	"repro/internal/parser"
	"repro/internal/safeguard"
	"repro/internal/sysmon"
)

// ConfigRunner executes one benchmark under a configuration: it opens every
// column family in the ConfigSet and drives traffic to all of them.
// Implementations create a fresh database/environment per call so
// iterations are comparable (cf. db_bench runs in the paper). monitor may be
// nil. A single-family caller wraps its options with lsm.NewConfigSet.
type ConfigRunner interface {
	RunBenchmarkConfig(cfg *lsm.ConfigSet, monitor func(bench.Progress) bool) (*bench.Report, error)
}

// ConfigRunnerFunc adapts a function to ConfigRunner.
type ConfigRunnerFunc func(cfg *lsm.ConfigSet, monitor func(bench.Progress) bool) (*bench.Report, error)

// RunBenchmarkConfig implements ConfigRunner.
func (f ConfigRunnerFunc) RunBenchmarkConfig(cfg *lsm.ConfigSet, monitor func(bench.Progress) bool) (*bench.Report, error) {
	return f(cfg, monitor)
}

// Config wires one tuning session.
type Config struct {
	// Client is the LLM (GPT-4 API or the mock expert).
	Client llm.Client
	// Runner executes benchmarks.
	Runner ConfigRunner
	// Monitor characterizes the host for prompts.
	Monitor sysmon.Monitor
	// InitialConfig is iteration 0's configuration (db_bench defaults in
	// the paper). Cloned; never mutated. A multi-family set shows the LLM
	// every [CFOptions "<name>"] section, and it may tune families
	// independently; a single-family caller wraps its options with
	// lsm.NewConfigSet.
	InitialConfig *lsm.ConfigSet
	// WorkloadName is the db_bench benchmark name (appears in prompts).
	WorkloadName string
	// WorkloadDescription is the user's expected-workload statement — the
	// only user input the framework needs.
	WorkloadDescription string
	// MaxIterations bounds the loop (paper: 7). Default 7.
	MaxIterations int
	// MinImprovement is the relative throughput gain under which an
	// iteration counts as stalled; StallLimit consecutive stalled
	// iterations stop the loop early. Defaults: 0.01 and 3.
	MinImprovement float64
	StallLimit     int
	// ExtraBlacklist adds options to the safeguard blacklist.
	ExtraBlacklist []string
	// DisableSafeguards removes the blacklist entirely (ablation only:
	// quantifies what the Safeguard Enforcer contributes).
	DisableSafeguards bool
	// KeepAllIterations disables the Active Flagger's revert logic: every
	// iteration's configuration is kept regardless of measurement
	// (ablation only).
	KeepAllIterations bool
	// EarlyStop enables the 30-second benchmark monitor (default true
	// semantics: set DisableEarlyStop to turn off).
	DisableEarlyStop bool
	// EarlyStopCheckAfter overrides the monitor's 30-second window (useful
	// when benchmarks run in scaled virtual time).
	EarlyStopCheckAfter time.Duration
	// RetryUnparseable re-asks once with a format reminder when a response
	// contains no usable changes (default true semantics: set
	// DisableFormatRetry to turn off).
	DisableFormatRetry bool
	// InsightPath, when set, names the cross-session insight-memory file:
	// the session loads it, feeds the insight nearest to the measured
	// workload into every prompt, and appends its own outcome on completion.
	InsightPath string
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
	// Trace, when set, receives one JSONL TraceRecord per iteration
	// (including the baseline): options diff applied, safeguard rejections,
	// benchmark summary, engine stats dump and histograms, and the
	// flagger's keep/revert decision. Encoding errors are logged, never
	// fatal.
	Trace io.Writer
}

// Iteration records everything about one loop turn, for analysis and for
// the per-iteration figures.
type Iteration struct {
	Number       int
	Response     string
	Parsed       parser.Result
	Decisions    []safeguard.Decision
	AppliedDiff  []string
	Report       *bench.Report
	Metrics      flagger.Metrics
	Kept         bool
	EarlyStopped bool
	// Config is the full multi-family configuration measured this iteration.
	Config *lsm.ConfigSet
	// LLMDuration is the (wall) time of the LLM calls, the format retry
	// included.
	LLMDuration time.Duration
}

// Result is a whole tuning session.
type Result struct {
	Baseline        *bench.Report
	BaselineMetrics flagger.Metrics
	Iterations      []Iteration
	// BestConfig is the best full multi-family configuration found: what
	// ELMo-Tune outputs.
	BestConfig  *lsm.ConfigSet
	BestMetrics flagger.Metrics
	// StoppedEarly reports the stall criterion fired before MaxIterations.
	StoppedEarly bool
}

// ImprovementFactor returns best/baseline throughput (1.0 = no gain).
func (r *Result) ImprovementFactor() float64 {
	if r.BaselineMetrics.Throughput == 0 {
		return 1
	}
	return r.BestMetrics.Throughput / r.BaselineMetrics.Throughput
}

// Run executes the feedback loop offline: every iteration benchmarks its
// configuration on a fresh database. The loop itself is session.run.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Client == nil || cfg.Runner == nil || cfg.InitialConfig == nil {
		return nil, fmt.Errorf("core: Client, Runner and InitialConfig are required")
	}
	initial := cfg.InitialConfig
	if err := initial.Validate(); err != nil {
		return nil, fmt.Errorf("core: initial configuration: %w", err)
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 7
	}
	if cfg.MinImprovement <= 0 {
		cfg.MinImprovement = 0.01
	}
	if cfg.StallLimit <= 0 {
		cfg.StallLimit = 3
	}
	s := &session{
		Config:       cfg,
		target:       &benchTarget{runner: cfg.Runner, cfg: initial, earlyStop: !cfg.DisableEarlyStop, checkAfter: cfg.EarlyStopCheckAfter},
		enforcer:     safeguard.New(),
		trace:        NewTraceWriter(cfg.Trace),
		current:      initial.Clone(),
		unit:         "iteration",
		reverted:     "reverted",
		baselineLine: "iteration 0 (default config): %.0f ops/sec",
		traceKind:    "iteration",
	}
	if cfg.DisableSafeguards {
		s.enforcer = safeguard.NewUnsafe()
	}
	s.enforcer.Blacklist(cfg.ExtraBlacklist...)
	err := s.run(ctx)
	if s.baseline == nil {
		return nil, err
	}
	res := &Result{
		Baseline:        s.baseline.report,
		BaselineMetrics: s.baseline.metrics,
		BestConfig:      s.current.Clone(),
		BestMetrics:     s.best,
		StoppedEarly:    s.stoppedEarly,
	}
	for _, r := range s.rounds {
		res.Iterations = append(res.Iterations, r.Iteration)
	}
	return res, err
}

// benchTarget is offline tuning's target: landing a configuration is
// remembering it (so rolling back is free), and measuring is one benchmark of
// it on a fresh database, watched by the early-stop monitor once there is a
// best to fall short of.
type benchTarget struct {
	runner     ConfigRunner
	cfg        *lsm.ConfigSet
	earlyStop  bool
	checkAfter time.Duration
}

func (t *benchTarget) land(next *lsm.ConfigSet, _ []safeguard.Decision) (string, time.Duration, error) {
	t.cfg = next
	return "", 0, nil
}

func (t *benchTarget) measure(_ context.Context, best float64) (*window, error) {
	w := &window{}
	var monitor func(bench.Progress) bool
	if t.earlyStop && best > 0 {
		es := flagger.NewEarlyStop(best)
		if t.checkAfter > 0 {
			es.CheckAfter = t.checkAfter
		}
		monitor = func(p bench.Progress) bool {
			ok := es.Monitor(p)
			w.earlyStopped = w.earlyStopped || !ok
			return ok
		}
	}
	var err error
	w.report, err = t.runner.RunBenchmarkConfig(t.cfg.Clone(), monitor)
	if err != nil {
		return nil, err
	}
	rep := w.report
	w.LiveObservation = LiveObservation{rep.Throughput, rep.WorkloadSnap, rep.StatsDump, rep.HistogramDump}
	w.metrics = flagger.FromReport(rep)
	return w, nil
}

// WriteOptionsFile persists the session's best configuration as a RocksDB
// OPTIONS file — the framework's final output. Multi-family sessions emit
// one CFOptions/TableOptions section pair per column family.
func (r *Result) WriteOptionsFile(path string) error {
	return r.BestConfig.ToINI().Save(path)
}
