// Package finetune implements the extension the paper's discussion proposes
// (§6): "The LLM model is particularly good at providing a jumpstart to
// configuration. A solution that leverages this property, in cohesion with
// fine-tuning mechanisms, would enable faster and potentially better
// tuning." The Tuner takes the LLM-found configuration and hill-climbs a
// small set of numeric options with multiplicative steps, keeping only
// measured improvements — the classic local search that LLMs are bad at
// (they reason in blog-sized granularity) and machines are good at.
package finetune

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/flagger"
	"repro/internal/lsm"
)

// Knob is one numeric option the fine-tuner may adjust.
type Knob struct {
	// Name is the registry option name.
	Name string
	// Factors are the multiplicative steps tried around the current value
	// (e.g. 0.5 and 2.0).
	Factors []float64
	// Min and Max clamp the explored values.
	Min, Max int64
}

// DefaultKnobs are the high-leverage numeric options worth polishing after
// the LLM's jumpstart.
func DefaultKnobs() []Knob {
	return []Knob{
		{Name: "write_buffer_size", Factors: []float64{0.5, 2}, Min: 1 << 20, Max: 1 << 30},
		{Name: "block_cache_size", Factors: []float64{0.5, 2}, Min: 1 << 20, Max: 8 << 30},
		{Name: "max_bytes_for_level_base", Factors: []float64{0.5, 2}, Min: 4 << 20, Max: 8 << 30},
		{Name: "target_file_size_base", Factors: []float64{0.5, 2}, Min: 1 << 20, Max: 1 << 30},
		{Name: "compaction_readahead_size", Factors: []float64{0.5, 2}, Min: 1 << 16, Max: 64 << 20},
	}
}

// Config wires a fine-tuning pass.
type Config struct {
	// Runner executes benchmarks (same contract as the main loop).
	Runner core.ConfigRunner
	// Start is the configuration to polish (the tuning session's best). The
	// knobs move the default family's options; every other family rides
	// along, so each trial measures the whole configuration.
	Start *lsm.ConfigSet
	// StartMetrics seeds the comparison (pass the session's BestMetrics;
	// zero means the tuner measures Start first).
	StartMetrics flagger.Metrics
	// Knobs defaults to DefaultKnobs.
	Knobs []Knob
	// MaxRounds bounds full passes over the knob set (default 2).
	MaxRounds int
	// Tolerance is the relative improvement below which a trial is not
	// kept (default 1%).
	Tolerance float64
	// Logf receives progress lines.
	Logf func(format string, args ...any)
}

// Step records one trial.
type Step struct {
	Knob    string
	Value   string
	Metrics flagger.Metrics
	Kept    bool
}

// Result is a completed fine-tuning pass.
type Result struct {
	// Best is the best whole configuration measured.
	Best        *lsm.ConfigSet
	BestMetrics flagger.Metrics
	Steps       []Step
	// Trials is the number of benchmark runs spent.
	Trials int
}

// Run hill-climbs the knobs, one at a time, keeping improvements.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Runner == nil || cfg.Start == nil {
		return nil, fmt.Errorf("finetune: Runner and Start are required")
	}
	if len(cfg.Knobs) == 0 {
		cfg.Knobs = DefaultKnobs()
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 2
	}
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = 0.01
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	res := &Result{Best: cfg.Start.Clone(), BestMetrics: cfg.StartMetrics}
	if res.BestMetrics.Throughput == 0 {
		rep, err := cfg.Runner.RunBenchmarkConfig(res.Best.Clone(), nil)
		if err != nil {
			return nil, fmt.Errorf("finetune: measuring start config: %w", err)
		}
		res.BestMetrics = flagger.FromReport(rep)
		res.Trials++
		logf("start: %.0f ops/sec", res.BestMetrics.Throughput)
	}

	for round := 0; round < cfg.MaxRounds; round++ {
		improvedThisRound := false
		for _, knob := range cfg.Knobs {
			if err := ctx.Err(); err != nil {
				return res, err
			}
			curStr, err := res.Best.Default.GetByName(knob.Name)
			if err != nil {
				continue // knob not applicable to this configuration
			}
			cur, err := strconv.ParseInt(curStr, 10, 64)
			if err != nil || cur <= 0 {
				continue // non-numeric or disabled (0/-1): leave to the LLM
			}
			for _, factor := range knob.Factors {
				val := int64(float64(cur) * factor)
				if val < knob.Min {
					val = knob.Min
				}
				if val > knob.Max {
					val = knob.Max
				}
				if val == cur {
					continue
				}
				trial := res.Best.Clone()
				if err := trial.Default.SetByName(knob.Name, strconv.FormatInt(val, 10)); err != nil {
					continue
				}
				if err := trial.Validate(); err != nil {
					continue
				}
				rep, err := cfg.Runner.RunBenchmarkConfig(trial.Clone(), nil)
				if err != nil {
					return res, fmt.Errorf("finetune: trial %s=%d: %w", knob.Name, val, err)
				}
				res.Trials++
				m := flagger.FromReport(rep)
				kept := flagger.Better(m, res.BestMetrics, cfg.Tolerance)
				res.Steps = append(res.Steps, Step{
					Knob: knob.Name, Value: strconv.FormatInt(val, 10), Metrics: m, Kept: kept,
				})
				if kept {
					logf("finetune: %s %d -> %d (%.0f -> %.0f ops/sec)",
						knob.Name, cur, val, res.BestMetrics.Throughput, m.Throughput)
					res.Best = trial
					res.BestMetrics = m
					cur = val
					improvedThisRound = true
				}
			}
		}
		if !improvedThisRound {
			break
		}
	}
	return res, nil
}

// ImprovementOver returns the throughput factor relative to a baseline.
func (r *Result) ImprovementOver(baseline flagger.Metrics) float64 {
	if baseline.Throughput == 0 {
		return 1
	}
	return r.BestMetrics.Throughput / baseline.Throughput
}
