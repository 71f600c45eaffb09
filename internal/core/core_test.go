package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/ini"
	"repro/internal/llm"
	"repro/internal/lsm"
	"repro/internal/mockllm"
	"repro/internal/safeguard"
)

// quickCfg is a small/fast experiment configuration for tests.
func quickCfg(seed int64) experiments.Config {
	return experiments.Config{Scale: 400, Seed: seed, MaxIterations: 4}
}

// quickRunner builds a test ConfigRunner at the quick scale.
func quickRunner(workload string, seed int64) *experiments.SimRunner {
	return &experiments.SimRunner{
		Device:   device.NVMe(),
		Profile:  device.Profile4C4G(),
		Workload: workload,
		Cfg:      quickCfg(seed),
	}
}

func TestRunEndToEnd(t *testing.T) {
	expert := mockllm.NewExpert(7)
	expert.FormatNoiseRate = 0.3
	res, err := core.Run(context.Background(), core.Config{
		Client:              expert,
		Runner:              quickRunner("fillrandom", 7),
		Monitor:             &experiments.HostMonitor{Device: device.NVMe(), Profile: device.Profile4C4G()},
		InitialConfig:       lsm.NewConfigSet(lsm.DBBenchDefaults()),
		WorkloadName:        "fillrandom",
		WorkloadDescription: "write intensive",
		MaxIterations:       4,
		StallLimit:          10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline == nil || len(res.Iterations) == 0 {
		t.Fatal("missing baseline or iterations")
	}
	if res.BestMetrics.Throughput < res.BaselineMetrics.Throughput {
		t.Fatalf("best (%f) below baseline (%f): the flagger must never regress",
			res.BestMetrics.Throughput, res.BaselineMetrics.Throughput)
	}
	// The tuned config must differ from default in at least one honored
	// option after 4 iterations against the expert.
	if res.BestConfig.Default.MaxBackgroundJobs == lsm.DBBenchDefaults().MaxBackgroundJobs &&
		res.BestConfig.Default.WALBytesPerSync == 0 {
		t.Logf("best options unchanged — unusual but not fatal")
	}
	// Iterations carry full provenance.
	for _, it := range res.Iterations {
		if it.Response == "" || it.Report == nil || it.Config == nil {
			t.Fatalf("iteration %d incomplete", it.Number)
		}
	}
}

func TestRunImprovesWriteWorkload(t *testing.T) {
	res, err := core.Run(context.Background(), core.Config{
		Client:        mockllm.NewExpert(3),
		Runner:        quickRunner("fillrandom", 3),
		Monitor:       &experiments.HostMonitor{Device: device.NVMe(), Profile: device.Profile4C4G()},
		InitialConfig: lsm.NewConfigSet(lsm.DBBenchDefaults()),
		WorkloadName:  "fillrandom",
		MaxIterations: 5,
		StallLimit:    10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if f := res.ImprovementFactor(); f < 1.0 {
		t.Fatalf("improvement factor %v < 1", f)
	}
}

func TestRunSafeguardsBlockDangerousSuggestions(t *testing.T) {
	// An adversarial expert that always suggests disabling the WAL plus
	// one hallucinated option and one good option.
	client := &llm.FuncClient{Fn: func(_ context.Context, msgs []llm.Message) (string, error) {
		return "disable_wal=true\nflush_job_count=8\nmax_background_jobs=4\n", nil
	}}
	res, err := core.Run(context.Background(), core.Config{
		Client:        client,
		Runner:        quickRunner("fillrandom", 5),
		InitialConfig: lsm.NewConfigSet(lsm.DBBenchDefaults()),
		WorkloadName:  "fillrandom",
		MaxIterations: 2,
		StallLimit:    10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestConfig.Default.DisableWAL {
		t.Fatal("blacklisted disable_wal reached the configuration")
	}
	it := res.Iterations[0]
	sum := safeguard.Summary(it.Decisions)
	if sum[safeguard.Blacklisted] != 1 || sum[safeguard.Hallucinated] != 1 {
		t.Fatalf("safeguard summary = %v", sum)
	}
	if res.BestConfig.Default.MaxBackgroundJobs != 4 {
		t.Fatalf("good option not applied: %d", res.BestConfig.Default.MaxBackgroundJobs)
	}
}

func TestRunRevertsRegressions(t *testing.T) {
	// First suggestion is terrible (single background job and tiny
	// buffers); later suggestions are no-ops. The flagger must revert and
	// the deterioration prompt must reach the client.
	calls := 0
	var sawDeterioration bool
	client := &llm.FuncClient{Fn: func(_ context.Context, msgs []llm.Message) (string, error) {
		calls++
		text := msgs[len(msgs)-1].Content
		if strings.Contains(text, "deteriorated") {
			sawDeterioration = true
		}
		if calls == 1 {
			// Harmful: starve background work and shrink buffers.
			return "max_background_jobs=1\nwrite_buffer_size=1048576\nlevel0_slowdown_writes_trigger=4\nlevel0_stop_writes_trigger=6\nlevel0_file_num_compaction_trigger=2\n", nil
		}
		return "max_background_jobs=4\n", nil
	}}
	res, err := core.Run(context.Background(), core.Config{
		Client:           client,
		Runner:           quickRunner("fillrandom", 11),
		InitialConfig:    lsm.NewConfigSet(lsm.DBBenchDefaults()),
		WorkloadName:     "fillrandom",
		MaxIterations:    3,
		StallLimit:       10,
		DisableEarlyStop: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	first := res.Iterations[0]
	if first.Kept {
		t.Fatalf("harmful iteration kept: %+v", first.Metrics)
	}
	if !sawDeterioration {
		t.Fatal("deterioration prompt never sent")
	}
	// The final best config must not contain the harmful values.
	if res.BestConfig.Default.WriteBufferSize == 1048576 {
		t.Fatal("reverted change leaked into best options")
	}
}

func TestRunFormatRetry(t *testing.T) {
	const perCall = 20 * time.Millisecond
	calls := 0
	client := &llm.FuncClient{Fn: func(_ context.Context, msgs []llm.Message) (string, error) {
		calls++
		time.Sleep(perCall)
		if calls%2 == 1 {
			return "I think the configuration could be improved in several ways, but let me describe them qualitatively first.", nil
		}
		return "max_background_jobs=4", nil
	}}
	res, err := core.Run(context.Background(), core.Config{
		Client:        client,
		Runner:        quickRunner("fillrandom", 13),
		InitialConfig: lsm.NewConfigSet(lsm.DBBenchDefaults()),
		WorkloadName:  "fillrandom",
		MaxIterations: 1,
		StallLimit:    10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (format retry)", calls)
	}
	if len(res.Iterations[0].Parsed.Changes) == 0 {
		t.Fatal("retry response not parsed")
	}
	if d := res.Iterations[0].LLMDuration; d < 2*perCall {
		t.Fatalf("LLMDuration = %v, want >= %v (both calls)", d, 2*perCall)
	}
}

func TestRunLLMFailure(t *testing.T) {
	// An LLM outage must not abort the session or lose the best config:
	// the failed iteration is recorded as reverted and the loop continues.
	calls := 0
	client := &llm.FuncClient{Fn: func(context.Context, []llm.Message) (string, error) {
		calls++
		if calls == 1 {
			return "", fmt.Errorf("api down")
		}
		return "max_background_jobs=4", nil
	}}
	res, err := core.Run(context.Background(), core.Config{
		Client:        client,
		Runner:        quickRunner("fillrandom", 17),
		InitialConfig: lsm.NewConfigSet(lsm.DBBenchDefaults()),
		WorkloadName:  "fillrandom",
		MaxIterations: 2,
		StallLimit:    10,
	})
	if err != nil {
		t.Fatalf("transient LLM failure aborted the session: %v", err)
	}
	if len(res.Iterations) != 2 {
		t.Fatalf("iterations = %d, want 2", len(res.Iterations))
	}
	failed := res.Iterations[0]
	if failed.Kept {
		t.Fatal("failed-LLM iteration marked kept")
	}
	if got := failed.Config.Default.ToINI().String(); got != lsm.DBBenchDefaults().ToINI().String() {
		t.Fatal("failed-LLM iteration did not keep the previous configuration")
	}
	if res.BestConfig == nil {
		t.Fatal("best options lost")
	}
}

func TestRunLLMFailurePersistentStops(t *testing.T) {
	calls := 0
	client := &llm.FuncClient{Fn: func(context.Context, []llm.Message) (string, error) {
		calls++
		return "", fmt.Errorf("api down")
	}}
	res, err := core.Run(context.Background(), core.Config{
		Client:        client,
		Runner:        quickRunner("fillrandom", 17),
		InitialConfig: lsm.NewConfigSet(lsm.DBBenchDefaults()),
		WorkloadName:  "fillrandom",
		MaxIterations: 10,
		StallLimit:    2,
	})
	if err != nil {
		t.Fatalf("persistent LLM failure should stop, not error: %v", err)
	}
	if !res.StoppedEarly {
		t.Fatal("stall limit did not fire")
	}
	if calls != 2 || len(res.Iterations) != 2 {
		t.Fatalf("calls=%d iterations=%d, want 2/2 (stall limit 2)", calls, len(res.Iterations))
	}
	if got := res.BestConfig.Default.ToINI().String(); got != lsm.DBBenchDefaults().ToINI().String() {
		t.Fatal("best options drifted across failed iterations")
	}
}

func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	client := &llm.FuncClient{Fn: func(context.Context, []llm.Message) (string, error) {
		cancel() // cancel as soon as the loop consults the LLM
		return "max_background_jobs=4", nil
	}}
	res, err := core.Run(ctx, core.Config{
		Client:        client,
		Runner:        quickRunner("fillrandom", 19),
		InitialConfig: lsm.NewConfigSet(lsm.DBBenchDefaults()),
		WorkloadName:  "fillrandom",
		MaxIterations: 5,
	})
	if err == nil {
		t.Fatal("cancellation ignored")
	}
	if res == nil {
		t.Fatal("partial result lost on cancellation")
	}
}

func TestRunMissingConfig(t *testing.T) {
	if _, err := core.Run(context.Background(), core.Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestRunInvalidCombinationSkipsIteration(t *testing.T) {
	calls := 0
	client := &llm.FuncClient{Fn: func(context.Context, []llm.Message) (string, error) {
		calls++
		if calls == 1 {
			// Individually valid, jointly invalid.
			return "min_write_buffer_number_to_merge=4\nmax_write_buffer_number=2\n", nil
		}
		return "max_background_jobs=4", nil
	}}
	res, err := core.Run(context.Background(), core.Config{
		Client:        client,
		Runner:        quickRunner("fillrandom", 23),
		InitialConfig: lsm.NewConfigSet(lsm.DBBenchDefaults()),
		WorkloadName:  "fillrandom",
		MaxIterations: 2,
		StallLimit:    10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations[0].Kept {
		t.Fatal("invalid combination iteration was kept")
	}
	if res.Iterations[0].Report != nil {
		t.Fatal("invalid combination should not be benchmarked")
	}
}

func TestWriteOptionsFile(t *testing.T) {
	res, err := core.Run(context.Background(), core.Config{
		Client:        mockllm.NewExpert(29),
		Runner:        quickRunner("fillrandom", 29),
		InitialConfig: lsm.NewConfigSet(lsm.DBBenchDefaults()),
		WorkloadName:  "fillrandom",
		MaxIterations: 1,
		StallLimit:    10,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/OPTIONS-tuned"
	if err := res.WriteOptionsFile(path); err != nil {
		t.Fatal(err)
	}
	doc, err := ini.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, unknown, err := lsm.ConfigSetFromINI(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(unknown) != 0 {
		t.Fatalf("unknown keys in written OPTIONS: %v", unknown)
	}
	if loaded == nil {
		t.Fatal("nil options from written file")
	}
}

// TestTraceAndTelemetryFeedback is the observability acceptance test: a
// tuning run with Trace set writes one valid JSONL record per iteration
// (baseline included), and the engine stats dump captured by one iteration's
// benchmark is fed back verbatim into the next iteration's prompt.
func TestTraceAndTelemetryFeedback(t *testing.T) {
	const maxIters = 3
	runs := 0
	runner := core.ConfigRunnerFunc(func(_ *lsm.ConfigSet, monitor func(bench.Progress) bool) (*bench.Report, error) {
		runs++
		return &bench.Report{
			Workload:      "fillrandom",
			Ops:           1000,
			Elapsed:       time.Second,
			Throughput:    100_000 + float64(runs)*10_000, // always improving: every iteration kept
			Read:          lsm.NewHistogram(),
			Write:         lsm.NewHistogram(),
			StatsDump:     fmt.Sprintf("SENTINEL-STATS-DUMP run %d\n** Compaction Stats [default] **", runs),
			HistogramDump: fmt.Sprintf("rocksdb.db.write.micros P50 : 1.00 P95 : 2.00 P99 : 3.00 COUNT : %d SUM : 1", runs),
			Stats:         map[string]int64{"rocksdb.flush.count": int64(runs)},
		}, nil
	})
	var prompts []string
	client := &llm.FuncClient{Fn: func(_ context.Context, msgs []llm.Message) (string, error) {
		prompts = append(prompts, msgs[len(msgs)-1].Content)
		// A different value each round so every iteration has a non-empty
		// applied diff.
		return fmt.Sprintf("max_background_jobs=%d\n", 3+len(prompts)), nil
	}}
	var traceBuf bytes.Buffer
	res, err := core.Run(context.Background(), core.Config{
		Client:        client,
		Runner:        runner,
		InitialConfig: lsm.NewConfigSet(lsm.DBBenchDefaults()),
		WorkloadName:  "fillrandom",
		MaxIterations: maxIters,
		StallLimit:    10,
		Trace:         &traceBuf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) != maxIters {
		t.Fatalf("iterations = %d, want %d", len(res.Iterations), maxIters)
	}

	// One valid JSON record per line: baseline + every iteration.
	lines := strings.Split(strings.TrimSpace(traceBuf.String()), "\n")
	if len(lines) != maxIters+1 {
		t.Fatalf("trace records = %d, want %d:\n%s", len(lines), maxIters+1, traceBuf.String())
	}
	var records []core.TraceRecord
	for i, line := range lines {
		var rec core.TraceRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("trace line %d invalid JSON: %v\n%s", i, err, line)
		}
		records = append(records, rec)
	}
	if records[0].Kind != "baseline" || records[0].Iteration != 0 || !records[0].Kept {
		t.Fatalf("baseline record = %+v", records[0])
	}
	if records[0].StatsDump != "SENTINEL-STATS-DUMP run 1\n** Compaction Stats [default] **" {
		t.Fatalf("baseline stats dump = %q", records[0].StatsDump)
	}
	for i := 1; i <= maxIters; i++ {
		r := records[i]
		if r.Kind != "iteration" || r.Iteration != i {
			t.Fatalf("record %d = %+v", i, r)
		}
		if !r.Kept || r.Reverted {
			t.Fatalf("improving iteration %d not kept: %+v", i, r)
		}
		if r.OpsPerSec <= 0 || r.StatsDump == "" || r.Histograms == "" {
			t.Fatalf("record %d missing telemetry: %+v", i, r)
		}
		if len(r.AppliedDiff) == 0 {
			t.Fatalf("record %d missing applied diff", i)
		}
		if r.Tickers["rocksdb.flush.count"] != int64(i+1) {
			t.Fatalf("record %d tickers = %v", i, r.Tickers)
		}
	}

	// Feedback: each prompt embeds the stats dump and histogram text of the
	// preceding run — the trace and the prompt see the same telemetry.
	if len(prompts) != maxIters {
		t.Fatalf("prompts = %d, want %d", len(prompts), maxIters)
	}
	for i, p := range prompts {
		wantStats := fmt.Sprintf("SENTINEL-STATS-DUMP run %d", i+1)
		if !strings.Contains(p, wantStats) {
			t.Fatalf("prompt %d missing %q:\n%s", i+1, wantStats, p)
		}
		wantHist := fmt.Sprintf("COUNT : %d", i+1)
		if !strings.Contains(p, "rocksdb.db.write.micros") || !strings.Contains(p, wantHist) {
			t.Fatalf("prompt %d missing histogram feedback:\n%s", i+1, p)
		}
	}
}

// TestTraceRecordsRejectedCombination: an unbenchmarkable change set still
// produces a trace record marking the rejection.
func TestTraceRecordsRejectedCombination(t *testing.T) {
	calls := 0
	client := &llm.FuncClient{Fn: func(context.Context, []llm.Message) (string, error) {
		calls++
		if calls == 1 {
			return "min_write_buffer_number_to_merge=4\nmax_write_buffer_number=2\n", nil
		}
		return "max_background_jobs=4", nil
	}}
	var traceBuf bytes.Buffer
	_, err := core.Run(context.Background(), core.Config{
		Client:        client,
		Runner:        quickRunner("fillrandom", 37),
		InitialConfig: lsm.NewConfigSet(lsm.DBBenchDefaults()),
		WorkloadName:  "fillrandom",
		MaxIterations: 2,
		StallLimit:    10,
		Trace:         &traceBuf,
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(traceBuf.String()), "\n")
	if len(lines) != 3 { // baseline + rejected iteration + normal iteration
		t.Fatalf("trace records = %d:\n%s", len(lines), traceBuf.String())
	}
	var rec core.TraceRecord
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Kept || !rec.Reverted || !strings.Contains(rec.Reason, "rejected by validation") {
		t.Fatalf("rejected-combination record = %+v", rec)
	}
	if rec.OpsPerSec != 0 {
		t.Fatalf("unbenchmarked iteration reports throughput: %+v", rec)
	}
}

func TestSimRunnerFreshPerIteration(t *testing.T) {
	r := quickRunner("fillrandom", 31)
	rep1, err := r.RunBenchmarkConfig(lsm.NewConfigSet(lsm.DBBenchDefaults()), nil)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := r.RunBenchmarkConfig(lsm.NewConfigSet(lsm.DBBenchDefaults()), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Different seeds per run produce near-but-not-identical results, and
	// both start from an empty database (same op counts).
	if rep1.Ops != rep2.Ops {
		t.Fatalf("runs differ in op count: %d vs %d", rep1.Ops, rep2.Ops)
	}
	_ = bench.Progress{}
}

// TestRunTunesOneColumnFamilyIndependently is the multi-family acceptance
// check: a CF-scoped suggestion must change only that family's options, the
// other families (including default) must be untouched, and the full
// configuration must flow to a ConfigRunner and into the saved OPTIONS file.
func TestRunTunesOneColumnFamilyIndependently(t *testing.T) {
	initial := lsm.NewConfigSet(lsm.DBBenchDefaults())
	initial.CF("hot")
	defaultWBS := initial.Default.WriteBufferSize

	runs := 0
	var lastCfg *lsm.ConfigSet
	runner := core.ConfigRunnerFunc(func(cfg *lsm.ConfigSet, monitor func(bench.Progress) bool) (*bench.Report, error) {
		runs++
		lastCfg = cfg
		return &bench.Report{
			Workload:   "fillrandom",
			Ops:        1000,
			Elapsed:    time.Second,
			Throughput: 100_000 + float64(runs)*10_000, // always improving
			Read:       lsm.NewHistogram(),
			Write:      lsm.NewHistogram(),
		}, nil
	})
	var prompts []string
	client := &llm.FuncClient{Fn: func(_ context.Context, msgs []llm.Message) (string, error) {
		prompts = append(prompts, msgs[len(msgs)-1].Content)
		return "[CFOptions \"hot\"]\nwrite_buffer_size=134217728\n", nil
	}}
	res, err := core.Run(context.Background(), core.Config{
		Client:           client,
		Runner:           runner,
		InitialConfig:    initial,
		WorkloadName:     "fillrandom",
		MaxIterations:    1,
		StallLimit:       10,
		DisableEarlyStop: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) != 1 || !res.Iterations[0].Kept {
		t.Fatalf("iterations = %+v", res.Iterations)
	}

	// The prompt presented both families' sections.
	if !strings.Contains(prompts[0], `[CFOptions "hot"]`) || !strings.Contains(prompts[0], `[CFOptions "default"]`) {
		t.Fatalf("prompt missing per-family sections:\n%s", prompts[0])
	}

	// Only the hot family moved.
	best := res.BestConfig
	if got := best.Lookup("hot").WriteBufferSize; got != 134217728 {
		t.Fatalf("hot write_buffer_size = %d, want 134217728", got)
	}
	if got := best.Default.WriteBufferSize; got != defaultWBS {
		t.Fatalf("default write_buffer_size leaked to %d (was %d)", got, defaultWBS)
	}
	// The input configuration was not mutated in place.
	if got := initial.Lookup("hot").WriteBufferSize; got != defaultWBS {
		t.Fatalf("initial config mutated: hot = %d", got)
	}

	// The full multi-family configuration reached the benchmark.
	if lastCfg == nil || lastCfg.Lookup("hot") == nil {
		t.Fatal("ConfigRunner never saw the hot family")
	}
	if got := lastCfg.Lookup("hot").WriteBufferSize; got != 134217728 {
		t.Fatalf("benchmark ran hot with write_buffer_size %d", got)
	}

	// And the saved OPTIONS file keeps both sections with distinct values.
	path := filepath.Join(t.TempDir(), "OPTIONS")
	if err := res.WriteOptionsFile(path); err != nil {
		t.Fatal(err)
	}
	doc, err := ini.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := doc.Section(`CFOptions "hot"`).Get("write_buffer_size"); v != "134217728" {
		t.Fatalf("saved hot write_buffer_size = %q", v)
	}
	if v, _ := doc.Section(`CFOptions "default"`).Get("write_buffer_size"); v != fmt.Sprint(defaultWBS) {
		t.Fatalf("saved default write_buffer_size = %q", v)
	}
}

// TestRunRejectsHallucinatedColumnFamily: a suggestion scoped to a family
// the configuration does not define is flagged as a hallucination and never
// applied.
func TestRunRejectsHallucinatedColumnFamily(t *testing.T) {
	runs := 0
	runner := core.ConfigRunnerFunc(func(cfg *lsm.ConfigSet, monitor func(bench.Progress) bool) (*bench.Report, error) {
		runs++
		return &bench.Report{
			Workload:   "fillrandom",
			Ops:        1000,
			Elapsed:    time.Second,
			Throughput: 100_000,
			Read:       lsm.NewHistogram(),
			Write:      lsm.NewHistogram(),
		}, nil
	})
	client := &llm.FuncClient{Fn: func(_ context.Context, msgs []llm.Message) (string, error) {
		return "[CFOptions \"ghost\"]\nwrite_buffer_size=268435456\n", nil
	}}
	res, err := core.Run(context.Background(), core.Config{
		Client:           client,
		Runner:           runner,
		InitialConfig:    lsm.NewConfigSet(lsm.DBBenchDefaults()),
		WorkloadName:     "fillrandom",
		MaxIterations:    1,
		StallLimit:       10,
		DisableEarlyStop: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	it := res.Iterations[0]
	var ghost *safeguard.Decision
	for i := range it.Decisions {
		if it.Decisions[i].Change.CF == "ghost" {
			ghost = &it.Decisions[i]
		}
	}
	if ghost == nil || ghost.Verdict != safeguard.Hallucinated {
		t.Fatalf("ghost decision = %+v", ghost)
	}
	if len(it.AppliedDiff) != 0 {
		t.Fatalf("hallucinated change applied: %v", it.AppliedDiff)
	}
	if res.BestConfig.Lookup("ghost") != nil {
		t.Fatal("ghost family materialized in the best configuration")
	}
}

func TestRunWorkloadCharacterizationInPrompt(t *testing.T) {
	// Baseline runs a write-heavy workload, iteration 1 a read-heavy one:
	// the prompt for iteration 1 must carry the measured write-heavy
	// characterization with drift 0, and the prompt for iteration 2 must
	// report a large drift from the read<->write flip.
	var prompts []string
	client := &llm.FuncClient{Fn: func(_ context.Context, msgs []llm.Message) (string, error) {
		prompts = append(prompts, msgs[len(msgs)-1].Content)
		return "max_background_jobs=4\n", nil
	}}
	calls := 0
	runner := core.ConfigRunnerFunc(func(cfg *lsm.ConfigSet, mon func(bench.Progress) bool) (*bench.Report, error) {
		wl := "fillrandom"
		if calls > 0 {
			wl = "readrandom"
		}
		calls++
		return quickRunner(wl, 11).RunBenchmarkConfig(cfg, mon)
	})
	var traceBuf bytes.Buffer
	_, err := core.Run(context.Background(), core.Config{
		Client:           client,
		Runner:           runner,
		InitialConfig:    lsm.NewConfigSet(lsm.DBBenchDefaults()),
		WorkloadName:     "mixed",
		MaxIterations:    2,
		StallLimit:       10,
		DisableEarlyStop: true,
		Trace:            &traceBuf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(prompts) < 2 {
		t.Fatalf("got %d prompts, want 2", len(prompts))
	}
	driftOf := func(prompt string) float64 {
		i := strings.Index(prompt, "workload drift vs previous window: ")
		if i < 0 {
			t.Fatalf("prompt missing drift line:\n%s", prompt)
		}
		var d float64
		fmt.Sscanf(prompt[i:], "workload drift vs previous window: %f", &d)
		return d
	}
	for _, p := range prompts {
		if !strings.Contains(p, "## Workload characterization (measured)") ||
			!strings.Contains(p, "ops mix:") {
			t.Fatalf("prompt missing workload characterization:\n%s", p)
		}
	}
	if d := driftOf(prompts[0]); d != 0 {
		t.Fatalf("baseline-window drift = %v, want 0", d)
	}
	if d := driftOf(prompts[1]); d < 1.0 {
		t.Fatalf("read<->write flip drift = %v, want >= 1.0", d)
	}
	// The JSONL trace carries the snapshot too.
	dec := json.NewDecoder(&traceBuf)
	sawDrift := false
	for dec.More() {
		var rec core.TraceRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		if rec.Kind == "iteration" && rec.WorkloadSnap != nil && rec.WorkloadSnap.Drift >= 1.0 {
			sawDrift = true
		}
	}
	if !sawDrift {
		t.Fatal("no iteration trace record carried a drifted workload snapshot")
	}
}
