package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/lsm"
	"repro/internal/mockllm"
	"repro/internal/safeguard"
)

// AblationRow summarizes one framework variant's outcome.
type AblationRow struct {
	Variant     string
	Baseline    float64 // ops/sec, iteration 0
	Final       float64 // ops/sec of the configuration the variant outputs
	Best        float64 // best ops/sec ever measured
	Reverted    int     // iterations the flagger rejected
	Blocked     int     // suggestions stopped by safeguards
	UnsafeFinal bool    // final config contains a durability-critical change
}

// Ablation quantifies the framework's design choices (DESIGN.md §4's
// ablation benches): the full loop versus a loop without the Safeguard
// Enforcer and a loop without the Active Flagger, against an expert with an
// elevated dangerous/hallucination rate so the differences are visible.
func Ablation(ctx context.Context, dev *device.Model, prof device.Profile, workload string, cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	variants := []struct {
		name   string
		tweak  func(*core.Config)
		expert func() *mockllm.Expert
	}{
		{
			name:  "full framework",
			tweak: func(*core.Config) {},
			expert: func() *mockllm.Expert {
				e := mockllm.NewExpert(cfg.Seed)
				e.DangerousRate = 0.5
				e.HallucinationRate = 0.3
				return e
			},
		},
		{
			name:  "no safeguards",
			tweak: func(c *core.Config) { c.DisableSafeguards = true },
			expert: func() *mockllm.Expert {
				e := mockllm.NewExpert(cfg.Seed)
				e.DangerousRate = 0.5
				e.HallucinationRate = 0.3
				return e
			},
		},
		{
			name:  "no active flagger",
			tweak: func(c *core.Config) { c.KeepAllIterations = true; c.DisableEarlyStop = true },
			expert: func() *mockllm.Expert {
				e := mockllm.NewExpert(cfg.Seed)
				e.DangerousRate = 0.5
				e.HallucinationRate = 0.3
				return e
			},
		},
	}
	var rows []AblationRow
	for _, v := range variants {
		runner := &SimRunner{Device: dev, Profile: prof, Workload: workload, Cfg: cfg}
		cc := core.Config{
			Client:              v.expert(),
			Runner:              runner,
			Monitor:             &HostMonitor{Device: dev, Profile: prof},
			InitialConfig:       lsm.NewConfigSet(lsm.DBBenchDefaults()),
			WorkloadName:        workload,
			WorkloadDescription: workloadDescription(workload),
			MaxIterations:       cfg.MaxIterations,
			StallLimit:          cfg.MaxIterations + 1,
			Logf:                cfg.Logf,
		}
		v.tweak(&cc)
		res, err := core.Run(ctx, cc)
		if err != nil {
			return rows, fmt.Errorf("ablation %q: %w", v.name, err)
		}
		row := AblationRow{
			Variant:  v.name,
			Baseline: res.BaselineMetrics.Throughput,
			Best:     res.BestMetrics.Throughput,
		}
		// "Final" is what the variant would ship: the last kept config's
		// measurement (for keep-all, the last iteration even if it was a
		// regression).
		row.Final = res.BestMetrics.Throughput
		if cc.KeepAllIterations && len(res.Iterations) > 0 {
			row.Final = res.Iterations[len(res.Iterations)-1].Metrics.Throughput
		}
		for _, it := range res.Iterations {
			if !it.Kept {
				row.Reverted++
			}
			for _, d := range it.Decisions {
				if d.Verdict == safeguard.Blacklisted || d.Verdict == safeguard.Hallucinated ||
					d.Verdict == safeguard.Invalid {
					row.Blocked++
				}
			}
		}
		best := res.BestConfig.Default
		row.UnsafeFinal = best.DisableWAL || best.AvoidFlushDuringShutdown ||
			best.ParanoidChecks != lsm.DBBenchDefaults().ParanoidChecks
		if cc.KeepAllIterations && len(res.Iterations) > 0 {
			lastOpts := res.Iterations[len(res.Iterations)-1].Config.Default
			row.UnsafeFinal = lastOpts.DisableWAL || lastOpts.AvoidFlushDuringShutdown
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatAblation renders the ablation rows.
func FormatAblation(rows []AblationRow) string {
	var b strings.Builder
	title := "Ablation: framework components under a misbehaving expert"
	b.WriteString(title + "\n")
	b.WriteString(strings.Repeat("-", len(title)) + "\n")
	fmt.Fprintf(&b, "%-20s | %12s | %12s | %8s | %8s | %s\n",
		"variant", "baseline", "final", "reverted", "blocked", "unsafe final config")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s | %12.0f | %12.0f | %8d | %8d | %v\n",
			r.Variant, r.Baseline, r.Final, r.Reverted, r.Blocked, r.UnsafeFinal)
	}
	return b.String()
}
