package finetune

import (
	"context"
	"strconv"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/flagger"
	"repro/internal/lsm"
)

// syntheticRunner scores configurations analytically: throughput peaks when
// write_buffer_size hits an optimum, so the hill climber has a landscape to
// climb without paying for real benchmark runs.
func syntheticRunner(optimum int64) core.ConfigRunner {
	return core.ConfigRunnerFunc(func(cfg *lsm.ConfigSet, _ func(bench.Progress) bool) (*bench.Report, error) {
		// Score: 100k minus a penalty growing with log-distance from the
		// optimum.
		cur := cfg.Default.WriteBufferSize
		dist := float64(cur) / float64(optimum)
		if dist < 1 {
			dist = 1 / dist
		}
		tput := 100000 / dist
		r := &bench.Report{
			Throughput: tput,
			Ops:        1000,
			Elapsed:    time.Second,
			Read:       lsm.NewHistogram(),
			Write:      lsm.NewHistogram(),
		}
		r.Write.Add(10 * time.Microsecond)
		return r, nil
	})
}

func TestRunClimbsTowardOptimum(t *testing.T) {
	start := lsm.NewConfigSet(lsm.DBBenchDefaults()) // write_buffer_size 64MB
	optimum := int64(256 << 20)                      // 4 doublings away
	res, err := Run(context.Background(), Config{
		Runner:    syntheticRunner(optimum),
		Start:     start,
		MaxRounds: 4,
		Knobs:     []Knob{{Name: "write_buffer_size", Factors: []float64{0.5, 2}, Min: 1 << 20, Max: 1 << 30}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Default.WriteBufferSize != optimum {
		t.Fatalf("climbed to %d, want %d (steps: %+v)", res.Best.Default.WriteBufferSize, optimum, res.Steps)
	}
	if res.Trials == 0 || len(res.Steps) == 0 {
		t.Fatal("no trials recorded")
	}
	// Start options untouched.
	if start.Default.WriteBufferSize != 64<<20 {
		t.Fatal("start mutated")
	}
}

func TestRunKeepsOnlyImprovements(t *testing.T) {
	res, err := Run(context.Background(), Config{
		Runner: syntheticRunner(64 << 20), // already optimal
		Start:  lsm.NewConfigSet(lsm.DBBenchDefaults()),
		Knobs:  []Knob{{Name: "write_buffer_size", Factors: []float64{0.5, 2}, Min: 1 << 20, Max: 1 << 30}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Default.WriteBufferSize != 64<<20 {
		t.Fatalf("moved away from the optimum: %d", res.Best.Default.WriteBufferSize)
	}
	for _, s := range res.Steps {
		if s.Kept {
			t.Fatalf("kept a non-improving step: %+v", s)
		}
	}
}

func TestRunSkipsDisabledKnobs(t *testing.T) {
	start := lsm.NewConfigSet(lsm.DBBenchDefaults())
	start.Default.BytesPerSync = 0 // disabled: must be left alone
	calls := 0
	runner := core.ConfigRunnerFunc(func(_ *lsm.ConfigSet, _ func(bench.Progress) bool) (*bench.Report, error) {
		calls++
		r := &bench.Report{Throughput: 1000, Ops: 1, Elapsed: time.Second,
			Read: lsm.NewHistogram(), Write: lsm.NewHistogram()}
		return r, nil
	})
	res, err := Run(context.Background(), Config{
		Runner:       runner,
		Start:        start,
		StartMetrics: flagger.Metrics{Throughput: 1000},
		Knobs:        []Knob{{Name: "bytes_per_sync", Factors: []float64{2}, Min: 1, Max: 1 << 30}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("benchmarked a disabled knob %d times", calls)
	}
	if res.Best.Default.BytesPerSync != 0 {
		t.Fatal("disabled knob modified")
	}
}

func TestRunValidatesConfig(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestRunMeasuresStartWhenUnseeded(t *testing.T) {
	res, err := Run(context.Background(), Config{
		Runner:    syntheticRunner(64 << 20),
		Start:     lsm.NewConfigSet(lsm.DBBenchDefaults()),
		MaxRounds: 1,
		Knobs:     []Knob{{Name: "write_buffer_size", Factors: []float64{2}, Min: 1 << 20, Max: 1 << 30}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestMetrics.Throughput != 100000 {
		t.Fatalf("start not measured: %v", res.BestMetrics)
	}
}

// TestRunCarriesEveryFamily: the knobs move the default family, and every
// trial measures the whole configuration, so a named family's own values
// reach each benchmark and survive into Best.
func TestRunCarriesEveryFamily(t *testing.T) {
	const usersWBS = 8 << 20
	start := lsm.NewConfigSet(lsm.DBBenchDefaults())
	start.CF("users").WriteBufferSize = usersWBS
	score := syntheticRunner(256 << 20)
	trials := 0
	runner := core.ConfigRunnerFunc(func(cfg *lsm.ConfigSet, monitor func(bench.Progress) bool) (*bench.Report, error) {
		trials++
		users := cfg.Lookup("users")
		if users == nil {
			t.Fatalf("trial %d ran without the users family", trials)
		}
		if users.WriteBufferSize != usersWBS {
			t.Fatalf("trial %d ran users with write_buffer_size %d, want %d", trials, users.WriteBufferSize, usersWBS)
		}
		return score.RunBenchmarkConfig(cfg, monitor)
	})
	res, err := Run(context.Background(), Config{
		Runner:    runner,
		Start:     start,
		MaxRounds: 2,
		Knobs:     []Knob{{Name: "write_buffer_size", Factors: []float64{0.5, 2}, Min: 1 << 20, Max: 1 << 30}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if trials == 0 || trials != res.Trials {
		t.Fatalf("runner saw %d trials, result counts %d", trials, res.Trials)
	}
	if got := res.Best.Default.WriteBufferSize; got != 256<<20 {
		t.Fatalf("default family climbed to %d, want %d", got, 256<<20)
	}
	if users := res.Best.Lookup("users"); users == nil || users.WriteBufferSize != usersWBS {
		t.Fatalf("Best lost the users family's write_buffer_size: %+v", users)
	}
}

// TestJumpstartPlusFinetune is the paper's proposed pipeline end to end:
// LLM session first, hill climber second, on the real simulated stack.
func TestJumpstartPlusFinetune(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := experiments.Config{Scale: 800, Seed: 21, MaxIterations: 2}
	session, err := experiments.RunSession(context.Background(),
		device.NVMe(), device.Profile4C4G(), "fillrandom", cfg)
	if err != nil {
		t.Fatal(err)
	}
	runner := &experiments.SimRunner{
		Device: device.NVMe(), Profile: device.Profile4C4G(),
		Workload: "fillrandom", Cfg: cfg,
	}
	res, err := Run(context.Background(), Config{
		Runner:       runner,
		Start:        session.Result.BestConfig,
		StartMetrics: session.Result.BestMetrics,
		MaxRounds:    1,
		Knobs: []Knob{
			{Name: "write_buffer_size", Factors: []float64{2}, Min: 1 << 20, Max: 1 << 30},
			{Name: "max_bytes_for_level_base", Factors: []float64{2}, Min: 4 << 20, Max: 8 << 30},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fine-tuning must never end below the LLM's result.
	if res.BestMetrics.Throughput < session.Result.BestMetrics.Throughput {
		t.Fatalf("fine-tune regressed: %.0f < %.0f",
			res.BestMetrics.Throughput, session.Result.BestMetrics.Throughput)
	}
	if res.ImprovementOver(session.Result.BaselineMetrics) < 1 {
		t.Fatal("combined pipeline below baseline")
	}
	_ = strconv.Itoa
}
