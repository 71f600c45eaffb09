package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/flagger"
	"repro/internal/llm"
	"repro/internal/lsm"
	"repro/internal/safeguard"
	"repro/internal/sysmon"
)

// ErrReopenUnsupported is returned by LiveTargets that cannot restart the
// database (e.g. a remote server reached over the wire). The loop then
// applies only the runtime-mutable subset of a change set.
var ErrReopenUnsupported = errors.New("core: target cannot reopen")

// LiveObservation is one measured window of a running instance's traffic.
type LiveObservation struct {
	// Throughput is foreground ops/sec over the window.
	Throughput float64
	// Workload characterizes the window (mix, write amp, stalls); the
	// session scores its drift against the previous window it measured.
	Workload *lsm.WorkloadSnapshot
	// StatsDump and Histograms carry the engine telemetry text fed back to
	// the prompt (either may be empty for remote targets).
	StatsDump  string
	Histograms string
}

// LiveTarget is a RUNNING database instance the loop can retune in place —
// the counterpart of ConfigRunner, which opens a fresh database per
// measurement. Implementations: EmbeddedTarget (a *lsm.DB in this process)
// and cmd/elmotune's server-backed target (a kvserver over the wire).
type LiveTarget interface {
	// Config returns the target's current effective configuration.
	Config() (*lsm.ConfigSet, error)
	// ApplyLive applies runtime-mutable changes without a reopen. cf ""
	// targets the default family / DB scope; the implementation routes each
	// name by registry section.
	ApplyLive(cf string, changes map[string]string) error
	// Reopen restarts the instance under cfg, for change sets touching
	// immutable knobs. Targets that cannot return ErrReopenUnsupported.
	Reopen(cfg *lsm.ConfigSet) error
	// Observe watches the live workload for roughly d and reports the
	// window. It must honor ctx cancellation.
	Observe(ctx context.Context, d time.Duration) (*LiveObservation, error)
}

// LiveConfig wires one live-retuning session.
type LiveConfig struct {
	// Client is the LLM (or the mock expert).
	Client llm.Client
	// Target is the running instance to retune.
	Target LiveTarget
	// Monitor characterizes the host for prompts (optional).
	Monitor sysmon.Monitor
	// WorkloadName / WorkloadDescription appear in prompts.
	WorkloadName        string
	WorkloadDescription string
	// ObserveWindow is how long each measurement watches the live traffic.
	// Default 5s.
	ObserveWindow time.Duration
	// MaxRounds bounds the initial tuning rounds (default 3).
	MaxRounds int
	// DriftThreshold re-triggers tuning when a watch window's workload
	// drift score reaches it (default 0.5; see WorkloadSnapshot.DriftFrom).
	DriftThreshold float64
	// WatchWindows is how many post-tuning windows to keep observing for
	// drift (default 0: stop after the tuning rounds).
	WatchWindows int
	// ExtraBlacklist adds options to the safeguard blacklist.
	ExtraBlacklist []string
	// InsightPath, when set, names the cross-session insight-memory file.
	InsightPath string
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
	// Trace, when set, receives a baseline record and then one JSONL
	// TraceRecord per round, however the round ended, including apply mode
	// (in_place vs reopen) and measured apply downtime.
	Trace *TraceWriter
}

// LiveRound records one live tuning round.
type LiveRound struct {
	Number    int
	Trigger   string // "initial" or "drift"
	Decisions []safeguard.Decision
	// AppliedDiff is the option diff applied this round (nil when nothing
	// usable survived the safeguard).
	AppliedDiff []string
	// ApplyMode is "in_place", "reopen" or "" (nothing applied).
	ApplyMode string
	// Downtime is how long the apply blocked traffic: the SetOptions calls
	// for in_place, close-to-reopen for reopen.
	Downtime time.Duration
	// Before/After are the observation windows around the apply.
	Before, After *LiveObservation
	// Kept reports the flagger's verdict on the post-apply window; a false
	// Kept means the round's changes were rolled back, or (After == nil)
	// that the round applied nothing.
	Kept bool
}

// LiveResult is a whole live-retuning session.
type LiveResult struct {
	Rounds []LiveRound
	// DriftRetunes counts rounds triggered by workload drift.
	DriftRetunes int
	// FinalConfig is the configuration in effect when the session ended.
	FinalConfig *lsm.ConfigSet
	// BestThroughput is the best post-apply window measured.
	BestThroughput float64
}

// RunLive executes the feedback loop against a running instance: observe ->
// prompt -> LLM -> safeguard -> apply WITHOUT stopping the database
// (SetOptions for mutable knobs, a measured reopen for immutable ones) ->
// observe -> keep or roll back. After the initial rounds it keeps watching
// the workload and re-triggers tuning when the drift score crosses the
// threshold. The loop itself is session.run.
func RunLive(ctx context.Context, cfg LiveConfig) (*LiveResult, error) {
	if cfg.Client == nil || cfg.Target == nil {
		return nil, fmt.Errorf("core: Client and Target are required")
	}
	if cfg.ObserveWindow <= 0 {
		cfg.ObserveWindow = 5 * time.Second
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 3
	}
	if cfg.DriftThreshold <= 0 {
		cfg.DriftThreshold = 0.5
	}
	current, err := cfg.Target.Config()
	if err != nil {
		return nil, fmt.Errorf("core: target config: %w", err)
	}
	s := &session{
		Config: Config{
			Client:              cfg.Client,
			Monitor:             cfg.Monitor,
			WorkloadName:        cfg.WorkloadName,
			WorkloadDescription: cfg.WorkloadDescription,
			MaxIterations:       cfg.MaxRounds,
			InsightPath:         cfg.InsightPath,
			Logf:                cfg.Logf,
		},
		target:         liveTarget{cfg.Target, cfg.ObserveWindow},
		enforcer:       safeguard.New(),
		trace:          cfg.Trace,
		current:        current,
		live:           true,
		unit:           "round",
		reverted:       "rolled back",
		baselineLine:   "window 0 (current config): %.0f ops/sec",
		traceKind:      "live_round",
		watchWindows:   cfg.WatchWindows,
		driftThreshold: cfg.DriftThreshold,
	}
	// Probe whether the target can reopen: if it can, immutable knobs are
	// legal (they just cost a restart); if not, vetting rejects them.
	s.enforcer.LiveMode = errors.Is(cfg.Target.Reopen(nil), ErrReopenUnsupported)
	s.enforcer.Blacklist(cfg.ExtraBlacklist...)
	err = s.run(ctx)
	if s.baseline == nil {
		return nil, err
	}
	res := &LiveResult{
		DriftRetunes:   s.driftRetunes,
		FinalConfig:    s.current.Clone(),
		BestThroughput: s.baseline.Throughput,
	}
	for _, r := range s.rounds {
		res.Rounds = append(res.Rounds, r.live)
		if r.Kept && r.after.Throughput > res.BestThroughput {
			res.BestThroughput = r.after.Throughput
		}
	}
	return res, err
}

// liveTarget is live tuning's target: a LiveTarget observed one window at a
// time.
type liveTarget struct {
	LiveTarget
	window time.Duration
}

func (t liveTarget) measure(ctx context.Context, _ float64) (*window, error) {
	obs, err := t.Observe(ctx, t.window)
	if err != nil {
		return nil, err
	}
	return &window{LiveObservation: *obs, metrics: flagger.Metrics{Throughput: obs.Throughput}}, nil
}

// land moves the instance to next: through SetOptions when every changed
// knob is runtime-mutable, through one measured reopen otherwise (a target
// that cannot reopen says so; vetting keeps such changes from getting here).
// The values sent are next's, so the same call rolls a change set back.
func (t liveTarget) land(next *lsm.ConfigSet, applied []safeguard.Decision) (string, time.Duration, error) {
	start := time.Now()
	for _, d := range applied {
		if !lsm.IsMutableOption(d.Change.Name) {
			err := t.Reopen(next.Clone())
			return "reopen", time.Since(start), err
		}
	}
	for _, cf := range next.Names() {
		opts, batch := next.Lookup(cf), make(map[string]string)
		for _, d := range applied {
			if next.Owner(d.Change.CF, d.Change.Name) == opts {
				batch[d.Change.Name], _ = opts.GetByName(d.Change.Name) // a name ApplyConfig just set
			}
		}
		if cf == lsm.DefaultColumnFamilyName {
			cf = ""
		}
		if len(batch) > 0 {
			if err := t.ApplyLive(cf, batch); err != nil {
				return "in_place", time.Since(start), err
			}
		}
	}
	return "in_place", time.Since(start), nil
}

// EmbeddedTarget adapts an in-process *lsm.DB (plus the directory to reopen
// it from) to LiveTarget.
type EmbeddedTarget struct {
	mu  sync.Mutex
	dir string
	db  *lsm.DB
}

// NewEmbeddedTarget wraps an open database. dir must be the directory db was
// opened from (used by Reopen).
func NewEmbeddedTarget(dir string, db *lsm.DB) *EmbeddedTarget {
	return &EmbeddedTarget{dir: dir, db: db}
}

// DB returns the current database handle (it changes across Reopen).
func (t *EmbeddedTarget) DB() *lsm.DB {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.db
}

// Config implements LiveTarget.
func (t *EmbeddedTarget) Config() (*lsm.ConfigSet, error) {
	return t.DB().Config(), nil
}

// ApplyLive implements LiveTarget; cf "" targets the default family.
func (t *EmbeddedTarget) ApplyLive(cf string, changes map[string]string) error {
	db := t.DB()
	var h *lsm.ColumnFamilyHandle
	if cf != "" && cf != lsm.DefaultColumnFamilyName {
		var err error
		if h, err = db.GetColumnFamily(cf); err != nil {
			return err
		}
	}
	return db.SetOptions(h, changes)
}

// Reopen implements LiveTarget: close and reopen under cfg. A nil cfg is the
// capability probe — embedded targets can always reopen.
func (t *EmbeddedTarget) Reopen(cfg *lsm.ConfigSet) error {
	if cfg == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.db.Close(); err != nil {
		return err
	}
	db, err := lsm.OpenConfig(t.dir, cfg)
	if err != nil {
		return fmt.Errorf("core: reopen %s: %w", t.dir, err)
	}
	t.db = db
	return nil
}

// Observe implements LiveTarget: a workload window between two counter
// readings over real time.
func (t *EmbeddedTarget) Observe(ctx context.Context, d time.Duration) (*LiveObservation, error) {
	db := t.DB()
	before := db.WorkloadCounters()
	start := time.Now()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(d):
	}
	ws := lsm.NewWorkloadSnapshot(before, db.WorkloadCounters())
	obs := &LiveObservation{Workload: &ws}
	if wall := time.Since(start).Seconds(); wall > 0 {
		obs.Throughput = float64(ws.Reads+ws.Writes+ws.Scans) / wall
	}
	if s, ok := db.GetProperty("rocksdb.stats"); ok {
		obs.StatsDump = s
	}
	obs.Histograms = db.Histograms().String()
	return obs, nil
}
