package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/ini"
	"repro/internal/llm"
	"repro/internal/lsm"
	"repro/internal/mockllm"
	"repro/internal/parser"
	"repro/internal/prompt"
	"repro/internal/safeguard"
)

// The tune workload is one offline ELMo-Tune session: the mock expert
// retunes the simulated engine for readrandomwriterandom on the NVMe 4+8
// profile, seven iterations. No socket and no OS file is involved; the
// sim-mode engine, the virtual-thread benchmark runner and the tuning loop
// do all the work. The session is fixed work, not fixed time: its length
// follows from the scale, which is chosen from --seconds.

const (
	tuneWorkload   = "readrandomwriterandom"
	tuneIterations = 7
	// The session's seed is fixed. A tuning session is a chain of marginal
	// keep-or-revert decisions; any change to the benchmark's key sequence
	// flips some of them, and what follows is a different session with
	// different configurations, memory and run time (19 % spread in
	// ops_per_s and 49 % in rss_peak_mb across ten seeds, against 5 % and
	// 10 % with the seed held). --seed is recorded and otherwise ignored.
	tuneSeed = 42
	// tuneWorkPerSecond relates the scale to the session's wall time on the
	// reference box: seven iterations at scale s take about 1850/s seconds.
	tuneWorkPerSecond = 1850
)

func tuneScale(seconds float64) int64 {
	return max(40, int64(math.Round(tuneWorkPerSecond/seconds)))
}

// timedRunner wraps the session's benchmark runner: it times every run and
// keeps the reports, which is how the benchmark sees inside core.Run.
type timedRunner struct {
	inner   core.ConfigRunner
	ends    []time.Time
	wall    []time.Duration
	reports []*bench.Report
}

func (t *timedRunner) RunBenchmark(opts *lsm.Options, monitor func(bench.Progress) bool) (*bench.Report, error) {
	return t.RunBenchmarkConfig(lsm.NewConfigSet(opts), monitor)
}

func (t *timedRunner) RunBenchmarkConfig(cfg *lsm.ConfigSet, monitor func(bench.Progress) bool) (*bench.Report, error) {
	start := time.Now()
	rep, err := t.inner.RunBenchmarkConfig(cfg, monitor)
	t.ends = append(t.ends, time.Now())
	t.wall = append(t.wall, time.Since(start))
	t.reports = append(t.reports, rep)
	return rep, err
}

// timedClient wraps the LLM: it times every call, keeps prompts and
// replies for the replayed per-layer timings, and marks the first call,
// which is where set-up ends and the measured phase starts.
type timedClient struct {
	inner   llm.Client
	onFirst func()
	wall    []time.Duration
	prompts [][]llm.Message
	replies []string
}

func (t *timedClient) Name() string { return t.inner.Name() }

func (t *timedClient) Complete(ctx context.Context, msgs []llm.Message) (string, error) {
	if len(t.wall) == 0 {
		t.onFirst()
	}
	start := time.Now()
	reply, err := t.inner.Complete(ctx, msgs)
	t.wall = append(t.wall, time.Since(start))
	t.prompts = append(t.prompts, msgs)
	t.replies = append(t.replies, reply)
	return reply, err
}

func runTune(c *runConfig) (*result, error) {
	res := newResult()
	scale := tuneScale(c.seconds)
	dev, prof := device.NVMe(), device.Profile4C8G()
	expCfg := experiments.Config{Scale: scale, Seed: tuneSeed, MaxIterations: tuneIterations}
	newRunner := func() *experiments.SimRunner {
		return &experiments.SimRunner{Device: dev, Profile: prof, Workload: tuneWorkload, Cfg: expCfg}
	}
	initial := lsm.NewConfigSet(lsm.DBBenchDefaults())

	// Set-up is everything before the first LLM call: building the
	// simulated environment and measuring the untuned baseline. The session
	// does that once; the extra rounds repeat the same baseline run so that
	// setup_s is a median, not one sample.
	var setups []float64
	for r := 1; r < c.setupRounds(); r++ {
		start := time.Now()
		if _, err := newRunner().RunBenchmarkConfig(initial.Clone(), nil); err != nil {
			return nil, fmt.Errorf("baseline: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		// Drop the round's simulated disk before the next one is built, so
		// that peak memory is the session's and not two rounds'.
		runtime.GC()
	}

	runner := &timedRunner{inner: newRunner()}
	var before procSample
	start := time.Now()
	client := &timedClient{inner: mockllm.NewExpert(tuneSeed)}
	client.onFirst = func() {
		setups = append(setups, time.Since(start).Seconds())
		before = sampleProc()
	}
	session, err := core.Run(context.Background(), core.Config{
		Client:              client,
		Runner:              runner,
		Monitor:             &experiments.HostMonitor{Device: dev, Profile: prof},
		InitialConfig:       initial,
		WorkloadName:        tuneWorkload,
		WorkloadDescription: "mixed: two threads interleaving random reads (90%) and writes (10%)",
		MaxIterations:       tuneIterations,
		StallLimit:          tuneIterations + 1,
		// The paper's 30-second monitor window in scaled virtual time. It is
		// this session's setting, not a copy that has to track another: a run
		// the monitor cuts short is marked Aborted and exempt from the op
		// count check.
		EarlyStopCheckAfter: 30 * time.Second / time.Duration(scale),
	})
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	after := sampleProc()
	if len(client.wall) == 0 || len(runner.reports) < 2 {
		return nil, fmt.Errorf("session made %d LLM calls and %d benchmark runs", len(client.wall), len(runner.reports))
	}

	// Correctness: every iteration ran, each benchmark executed as many ops as
	// the untuned baseline (the workload does not depend on the configuration;
	// only the 30-second monitor may cut a run short), and the tuned
	// configuration survives a round trip through the OPTIONS format.
	if len(session.Iterations) != tuneIterations {
		res.fail(fmt.Sprintf("session ran %d iterations, want %d", len(session.Iterations), tuneIterations))
	}
	baseline := runner.reports[0]
	if baseline == nil || baseline.Aborted || baseline.Ops <= 0 {
		return nil, fmt.Errorf("the baseline benchmark did not run to its end")
	}
	expectedOps := baseline.Ops
	var simOps int64
	var virtual time.Duration
	var written tickers
	kept := 0
	for i, rep := range runner.reports[1:] {
		res.attempted += rep.Ops
		simOps += rep.Ops
		virtual += rep.Elapsed
		if rep.Ops != expectedOps && !rep.Aborted {
			res.attempted += expectedOps - rep.Ops
			res.failed += expectedOps - rep.Ops
			res.fail(fmt.Sprintf("iteration %d ran %d ops, want %d", i+1, rep.Ops, expectedOps))
		}
		for _, t := range []lsm.Ticker{lsm.TickerWALBytes, lsm.TickerFlushBytes, lsm.TickerCompactWriteBytes, lsm.TickerBytesWritten} {
			written[t] += rep.Stats[t.String()]
		}
	}
	for _, it := range session.Iterations {
		if it.Kept {
			kept++
		}
	}
	text := session.BestConfig.ToINI().String()
	if err := optionsRoundTrip(text); err != nil {
		res.fail("tuned OPTIONS: " + err.Error())
	}

	measured := after.wall.Sub(before.wall)
	m := res.metrics
	if c.trace {
		gcMetrics(m, before, after)
		tuneLayers(m, session, runner, client, measured, simOps, virtual, kept)
	} else {
		// One iteration is the tuner's unit of user-visible work: from one
		// benchmark result to the next, through prompt, LLM, parser,
		// safeguard and a full simulated benchmark.
		var iter []float64
		for i := 1; i < len(runner.ends); i++ {
			iter = append(iter, float64(runner.ends[i].Sub(runner.ends[i-1]).Microseconds()))
		}
		m.set("setup_s", median(setups), "s")
		m.set("ops_per_s", float64(simOps)/measured.Seconds(), "1/s")
		m.set("p50_us", median(iter), "us")
		procMetrics(m, before, after, simOps)
		m.set("write_amp", written.writeAmp(), "x")
	}
	res.note("measured_s", measured.Seconds())
	res.note("ops", simOps)
	res.note("sim_scale", scale)
	res.note("improvement_x", session.ImprovementFactor())
	res.note("kept", kept)
	res.note("llm_calls", len(client.wall))
	return res, nil
}

// optionsRoundTrip parses an OPTIONS text, loads it into a configuration,
// renders that again and requires the identical text.
func optionsRoundTrip(text string) error {
	f, err := ini.ParseString(text)
	if err != nil {
		return err
	}
	cs, unknown, err := lsm.ConfigSetFromINI(f)
	if err != nil {
		return err
	}
	if len(unknown) > 0 {
		return fmt.Errorf("unknown options after round trip: %s", strings.Join(unknown, ", "))
	}
	if back := cs.ToINI().String(); back != text {
		return fmt.Errorf("round trip changed the file (%d -> %d bytes)", len(text), len(back))
	}
	return nil
}

// tuneLayers reports where a session's time went. The benchmark runs and the
// LLM calls were timed as they happened; the loop's own layers (prompt,
// parser, safeguard, ini) are too small to time inside one session, so they
// are replayed on the session's recorded prompts and replies.
func tuneLayers(m metrics, session *core.Result, runner *timedRunner, client *timedClient,
	measured time.Duration, simOps int64, virtual time.Duration, kept int) {
	iters := float64(len(session.Iterations))
	var runWall, llmWall time.Duration
	for _, d := range runner.wall[1:] {
		runWall += d
	}
	for _, d := range client.wall {
		llmWall += d
	}
	m.set("core.session_s", measured.Seconds(), "s")
	m.set("core.iterations", iters, "count")
	m.set("core.kept", float64(kept), "count")
	m.set("core.reverted", iters-float64(kept), "count")
	m.set("core.llm_calls", float64(len(client.wall)), "count")
	m.set("core.self_ms_per_iter", float64((measured-runWall-llmWall).Microseconds())/1e3/iters, "ms")
	m.set("core.improvement_x", session.ImprovementFactor(), "x")
	if kept > 0 {
		m.set("core.llm_calls_per_kept", float64(len(client.wall))/float64(kept), "count")
	}
	m.set("experiments.simrun_s_per_iter", runWall.Seconds()/float64(len(runner.wall)-1), "s")
	m.set("lsm.sim_ops_per_wall_s", float64(simOps)/runWall.Seconds(), "1/s")
	m.set("lsm.sim_virtual_s", virtual.Seconds(), "s")
	m.set("mockllm.complete_ms", float64(llmWall.Microseconds())/1e3/float64(len(client.wall)), "ms")

	const reps = 50
	perCall := func(d time.Duration, calls int) float64 {
		return float64(d.Nanoseconds()) / 1e3 / float64(calls)
	}

	var promptBytes int
	for _, msgs := range client.prompts {
		for _, msg := range msgs {
			promptBytes += len(msg.Content)
		}
	}
	m.set("prompt.bytes", float64(promptBytes)/float64(len(client.prompts)), "B")

	// prompt.Build on the inputs each iteration would have seen: the
	// configuration in force and the previous benchmark's texts.
	var inputs []prompt.Inputs
	cur, last := session.BestConfig, session.Baseline
	for _, it := range session.Iterations {
		inputs = append(inputs, prompt.Inputs{
			Iteration: it.Number, WorkloadName: tuneWorkload, Config: cur,
			LastReport: last.Format(), StatsDump: last.StatsDump, Histograms: last.HistogramDump,
			Workload: last.WorkloadSnap,
		})
		if it.Report != nil {
			last = it.Report
		}
		if it.Kept && it.Config != nil {
			cur = it.Config
		}
	}
	start := time.Now()
	for r := 0; r < reps; r++ {
		for _, in := range inputs {
			prompt.Build(in)
		}
	}
	m.set("prompt.build_us", perCall(time.Since(start), reps*len(inputs)), "us")

	start = time.Now()
	for r := 0; r < reps; r++ {
		for _, reply := range client.replies {
			parser.Parse(reply)
		}
	}
	m.set("parser.parse_us", perCall(time.Since(start), reps*len(client.replies)), "us")

	enforcer := safeguard.New()
	base := lsm.NewConfigSet(lsm.DBBenchDefaults())
	var proposed, accepted int
	var parsed [][]parser.Change
	for _, reply := range client.replies {
		changes := parser.Parse(reply).Changes
		parsed = append(parsed, changes)
		for _, d := range enforcer.VetConfig(base, changes) {
			proposed++
			if d.Verdict == safeguard.Accepted {
				accepted++
			}
		}
	}
	start = time.Now()
	for r := 0; r < reps; r++ {
		for _, changes := range parsed {
			enforcer.VetConfig(base, changes)
		}
	}
	m.set("safeguard.vet_us", perCall(time.Since(start), reps*len(parsed)), "us")
	if proposed > 0 {
		m.set("safeguard.accept_rate", float64(accepted)/float64(proposed), "ratio")
	}

	text := session.BestConfig.ToINI().String()
	start = time.Now()
	for r := 0; r < reps; r++ {
		// The session's result passed optionsRoundTrip before this point.
		_ = optionsRoundTrip(text)
	}
	m.set("ini.roundtrip_us", perCall(time.Since(start), reps), "us")
}
