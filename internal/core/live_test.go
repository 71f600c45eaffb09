package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/lsm"
)

// scriptedLLM replays canned responses in order (repeating the last one).
type scriptedLLM struct {
	responses []string
	calls     atomic.Int32
}

func (s *scriptedLLM) Complete(_ context.Context, _ []llm.Message) (string, error) {
	n := int(s.calls.Add(1)) - 1
	if n >= len(s.responses) {
		n = len(s.responses) - 1
	}
	return s.responses[n], nil
}

func (s *scriptedLLM) Name() string { return "scripted" }

// liveHarness opens an OS-env DB, drives phased traffic against it, and
// wraps it in an EmbeddedTarget. The returned flip() switches the traffic
// from write-heavy to read-heavy (a drift the watch phase must catch).
func liveHarness(t *testing.T) (*core.EmbeddedTarget, func(), func()) {
	t.Helper()
	dir := t.TempDir()
	opts := lsm.DefaultOptions()
	opts.DisableInfoLog = true
	db, err := lsm.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	target := core.NewEmbeddedTarget(dir, db)

	stop := make(chan struct{})
	var reading atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		key := make([]byte, 16)
		val := make([]byte, 128)
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			db := target.DB()
			copy(key, []byte("key-"))
			for j := 0; j < 8; j++ {
				key[4+j] = byte('a' + (i>>uint(j*3))&7)
			}
			if reading.Load() {
				db.Get(nil, key)
			} else {
				if err := db.Put(nil, key, val); err != nil {
					return
				}
			}
			i++
			if i%64 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	flip := func() { reading.Store(true) }
	cleanup := func() {
		close(stop)
		<-done
		target.DB().Close()
	}
	return target, flip, cleanup
}

// TestRunLiveAppliesInPlace proves the loop retunes a RUNNING database: the
// scripted model's mutable changes must land through SetOptions (no reopen),
// with measured downtime, and be visible in the live DB's effective options.
func TestRunLiveAppliesInPlace(t *testing.T) {
	target, _, cleanup := liveHarness(t)
	defer cleanup()

	res, err := core.RunLive(context.Background(), core.LiveConfig{
		Client:        &scriptedLLM{responses: []string{"write_buffer_size=1048576\nmax_background_jobs=6"}},
		Target:        target,
		WorkloadName:  "livewrite",
		ObserveWindow: 50 * time.Millisecond,
		MaxRounds:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 1 {
		t.Fatalf("rounds = %d, want 1", len(res.Rounds))
	}
	r := res.Rounds[0]
	if r.ApplyMode != "in_place" {
		t.Fatalf("apply mode = %q, want in_place", r.ApplyMode)
	}
	if len(r.AppliedDiff) == 0 {
		t.Fatal("no applied diff recorded")
	}
	if r.Downtime < 0 {
		t.Fatalf("downtime = %v", r.Downtime)
	}
	// Kept: the new values are in effect. Rolled back: the OLD values are
	// back in effect, through the same in-place path.
	o, def := target.DB().Options(), lsm.DefaultOptions()
	if r.Kept && (o.WriteBufferSize != 1048576 || o.MaxBackgroundJobs != 6) {
		t.Fatalf("kept round but live options not applied: wbs=%d jobs=%d", o.WriteBufferSize, o.MaxBackgroundJobs)
	}
	if !r.Kept && (o.WriteBufferSize != def.WriteBufferSize || o.MaxBackgroundJobs != def.MaxBackgroundJobs) {
		t.Fatalf("rolled-back round but live options not restored: wbs=%d jobs=%d", o.WriteBufferSize, o.MaxBackgroundJobs)
	}
}

// TestRunLiveReopenForImmutable proves immutable knobs still apply — through
// a measured reopen — when the target supports it.
func TestRunLiveReopenForImmutable(t *testing.T) {
	target, _, cleanup := liveHarness(t)
	defer cleanup()

	res, err := core.RunLive(context.Background(), core.LiveConfig{
		Client:        &scriptedLLM{responses: []string{"num_levels=5\nwrite_buffer_size=1048576"}},
		Target:        target,
		WorkloadName:  "livewrite",
		ObserveWindow: 50 * time.Millisecond,
		MaxRounds:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rounds[0]
	if r.ApplyMode != "reopen" {
		t.Fatalf("apply mode = %q, want reopen", r.ApplyMode)
	}
	if r.Downtime <= 0 {
		t.Fatalf("reopen downtime = %v, want > 0", r.Downtime)
	}
	o := target.DB().Options()
	if r.Kept && o.NumLevels != 5 {
		t.Fatalf("kept round but num_levels = %d", o.NumLevels)
	}
	if !r.Kept && o.NumLevels != lsm.DefaultOptions().NumLevels {
		t.Fatalf("rolled-back round but num_levels = %d", o.NumLevels)
	}
}

// TestRunLiveDriftRetunes proves the watch phase re-triggers tuning when the
// measured workload shape flips (write-heavy -> read-heavy).
func TestRunLiveDriftRetunes(t *testing.T) {
	target, flip, cleanup := liveHarness(t)
	defer cleanup()

	// Flip the traffic to reads shortly after the initial round finishes.
	go func() {
		time.Sleep(250 * time.Millisecond)
		flip()
	}()
	res, err := core.RunLive(context.Background(), core.LiveConfig{
		Client: &scriptedLLM{responses: []string{
			"write_buffer_size=1048576",
			"block_cache=16777216", // the "retuned for reads" suggestion
		}},
		Target:         target,
		WorkloadName:   "livemixed",
		ObserveWindow:  60 * time.Millisecond,
		MaxRounds:      1,
		WatchWindows:   20,
		DriftThreshold: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DriftRetunes == 0 {
		t.Fatal("workload flipped write->read but no drift retune fired")
	}
	found := false
	for _, r := range res.Rounds {
		if r.Trigger == "drift" {
			found = true
		}
	}
	if !found {
		t.Fatal("no round recorded with trigger=drift")
	}
}

// TestInsightMemoryRoundTrip proves a session's outcome is persisted and the
// nearest-fingerprint lookup surfaces it for a later session's prompt.
func TestInsightMemoryRoundTrip(t *testing.T) {
	path := t.TempDir() + "/insights.json"
	target, _, cleanup := liveHarness(t)
	defer cleanup()

	_, err := core.RunLive(context.Background(), core.LiveConfig{
		Client:        &scriptedLLM{responses: []string{"write_buffer_size=1048576"}},
		Target:        target,
		WorkloadName:  "livewrite",
		ObserveWindow: 50 * time.Millisecond,
		MaxRounds:     1,
		InsightPath:   path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("insight file not written: %v", err)
	}
	store, err := core.LoadInsights(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(store.Insights) != 1 {
		t.Fatalf("insights = %d, want 1", len(store.Insights))
	}
	ins := store.Insights[0]
	if ins.Workload != "livewrite" {
		t.Errorf("workload = %q", ins.Workload)
	}
	// The harness writes (plus the loop's reads of stats) — write-dominated.
	if ins.WriteFraction < 0.5 {
		t.Errorf("write fraction = %v, want write-heavy fingerprint", ins.WriteFraction)
	}
	// A same-shape later session finds it.
	near := store.Nearest(&lsm.WorkloadSnapshot{WriteFraction: 1}, 1.0)
	if near == nil {
		t.Fatal("Nearest returned nil for a matching fingerprint")
	}
	if lines := near.PromptLines(); len(lines) == 0 {
		t.Fatal("no prompt lines from insight")
	}
	// A completely different shape (beyond maxDist) finds nothing.
	if store.Nearest(&lsm.WorkloadSnapshot{ScanFraction: 1}, 0.5) != nil {
		t.Error("Nearest matched a far fingerprint within a tight radius")
	}
}

// scriptTarget is a LiveTarget whose throughput is a function of the
// configuration in effect, so a test scripts which rounds improve and which
// regress. It cannot reopen; it records every ApplyLive batch.
type scriptTarget struct {
	cfg       *lsm.ConfigSet
	ops       func(*lsm.Options) float64
	applied   []map[string]string
	observes  int
	onObserve func(n int) // called at the start of the n-th Observe (1-based)
}

func (t *scriptTarget) Config() (*lsm.ConfigSet, error) { return t.cfg.Clone(), nil }

func (t *scriptTarget) ApplyLive(_ string, changes map[string]string) error {
	t.applied = append(t.applied, changes)
	for name, value := range changes {
		if err := t.cfg.Default.SetByName(name, value); err != nil {
			return err
		}
	}
	return nil
}

func (t *scriptTarget) Reopen(*lsm.ConfigSet) error { return core.ErrReopenUnsupported }

func (t *scriptTarget) Observe(ctx context.Context, _ time.Duration) (*core.LiveObservation, error) {
	t.observes++
	if t.onObserve != nil {
		t.onObserve(t.observes)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &core.LiveObservation{
		Throughput: t.ops(t.cfg.Default),
		Workload:   &lsm.WorkloadSnapshot{Writes: 1000, WriteFraction: 1},
	}, nil
}

// TestRunLivePostRollbackReference: after a rolled-back round the next round
// starts from a window measured under the configuration in effect. Round 1
// regresses (1000 -> 500) and rolls back; round 2's proposal (800) is better
// than round 1's rejected window but worse than the configuration it would
// replace, so it must roll back too — and each rollback must send the OLD
// value, not the rejected one.
func TestRunLivePostRollbackReference(t *testing.T) {
	orig := lsm.DefaultOptions().WriteBufferSize
	target := &scriptTarget{
		cfg: lsm.NewConfigSet(lsm.DefaultOptions()),
		ops: func(o *lsm.Options) float64 {
			switch o.WriteBufferSize {
			case 1 << 20:
				return 500
			case 2 << 20:
				return 800
			}
			return 1000
		},
	}
	var prompts []string
	client := &llm.FuncClient{Fn: func(_ context.Context, msgs []llm.Message) (string, error) {
		prompts = append(prompts, msgs[len(msgs)-1].Content)
		return fmt.Sprintf("write_buffer_size=%d", len(prompts)<<20), nil
	}}
	res, err := core.RunLive(context.Background(), core.LiveConfig{
		Client: client, Target: target, WorkloadName: "livewrite", MaxRounds: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 2 || res.Rounds[0].Kept || res.Rounds[1].Kept {
		t.Fatalf("want two rolled-back rounds, got %+v", res.Rounds)
	}
	if got := res.Rounds[1].Before.Throughput; got != 1000 {
		t.Fatalf("round 2 started from a %.0f ops/sec window, want the 1000 ops/sec one measured under the configuration in effect", got)
	}
	if got := res.FinalConfig.Default.WriteBufferSize; got != orig || target.cfg.Default.WriteBufferSize != orig {
		t.Fatalf("write_buffer_size = %d (reported) / %d (target), want the original %d",
			got, target.cfg.Default.WriteBufferSize, orig)
	}
	var sent []string
	for _, batch := range target.applied {
		sent = append(sent, batch["write_buffer_size"])
	}
	want := []string{"1048576", fmt.Sprint(orig), "2097152", fmt.Sprint(orig)}
	if strings.Join(sent, ",") != strings.Join(want, ",") {
		t.Fatalf("ApplyLive sent %v, want %v", sent, want)
	}
	// The model is told why round 1 was undone, and shown the window of the
	// configuration in effect rather than the rejected one.
	if !strings.Contains(prompts[1], "deteriorated") || !strings.Contains(prompts[1], "round 1 (rolled back): 500 ops/sec") {
		t.Fatalf("round 2 prompt lacks the rollback note:\n%s", prompts[1])
	}
}

// roundScript is one session's worth of LLM behaviour covering every way a
// round can end. Throughput follows max_background_jobs: 2 (default) -> 1000,
// 4 -> 2000, 6 -> 500.
//
//	round 1: prose, then (format retry) jobs=4      -> kept
//	round 2: the LLM call fails                     -> skipped, session goes on
//	round 3: only a blacklisted change              -> nothing applicable
//	round 4: individually valid, jointly invalid    -> rejected by validation
//	round 5: jobs=6                                 -> rolled back
func roundScript() (client *llm.FuncClient, ops func(*lsm.Options) float64) {
	calls := 0
	client = &llm.FuncClient{Fn: func(context.Context, []llm.Message) (string, error) {
		calls++
		switch calls {
		case 1:
			return "Let me first describe the configuration qualitatively.", nil
		case 2:
			return "max_background_jobs=4", nil
		case 3:
			return "", errors.New("api down")
		case 4:
			return "disable_wal=true", nil
		case 5:
			return "min_write_buffer_number_to_merge=4\nmax_write_buffer_number=2\n", nil
		}
		return "max_background_jobs=6", nil
	}}
	ops = func(o *lsm.Options) float64 {
		switch o.MaxBackgroundJobs {
		case 4:
			return 2000
		case 6:
			return 500
		}
		return 1000
	}
	return client, ops
}

// TestEveryRoundTracedOnce runs roundScript through both entry points: the
// format retry and the LLM-failure policy work live as they do offline, the
// session survives every kind of round, and each round — kept, rolled back,
// nothing applicable, rejected by validation, LLM failure — appends exactly
// one trace record.
func TestEveryRoundTracedOnce(t *testing.T) {
	const rounds = 5
	check := func(t *testing.T, trace *bytes.Buffer, kind string, kept, wantKept []bool, final *lsm.Options) {
		t.Helper()
		if fmt.Sprint(kept) != fmt.Sprint(wantKept) {
			t.Fatalf("kept = %v, want %v", kept, wantKept)
		}
		if final.MaxBackgroundJobs != 4 {
			t.Fatalf("final max_background_jobs = %d, want 4 (round 1 kept, round 5 undone)", final.MaxBackgroundJobs)
		}
		seen := make(map[int]int)
		dec := json.NewDecoder(trace)
		for dec.More() {
			var rec core.TraceRecord
			if err := dec.Decode(&rec); err != nil {
				t.Fatal(err)
			}
			if rec.Kind == "baseline" {
				continue
			}
			if rec.Kind != kind {
				t.Fatalf("record kind %q, want %q", rec.Kind, kind)
			}
			seen[rec.Iteration]++
			if rec.Kept != kept[rec.Iteration-1] || rec.Reverted == rec.Kept {
				t.Fatalf("round %d record kept=%v reverted=%v, want kept=%v", rec.Iteration, rec.Kept, rec.Reverted, kept[rec.Iteration-1])
			}
		}
		for n := 1; n <= rounds; n++ {
			if seen[n] != 1 {
				t.Fatalf("round %d has %d trace records, want exactly 1 (all: %v)", n, seen[n], seen)
			}
		}
		if len(seen) != rounds {
			t.Fatalf("trace names rounds %v, want 1..%d", seen, rounds)
		}
	}

	t.Run("live", func(t *testing.T) {
		client, ops := roundScript()
		target := &scriptTarget{cfg: lsm.NewConfigSet(lsm.DefaultOptions()), ops: ops}
		var trace bytes.Buffer
		res, err := core.RunLive(context.Background(), core.LiveConfig{
			Client: client, Target: target, WorkloadName: "livewrite",
			MaxRounds: rounds, Trace: core.NewTraceWriter(&trace),
		})
		if err != nil {
			t.Fatalf("session did not survive its rounds: %v", err)
		}
		var kept []bool
		for _, r := range res.Rounds {
			kept = append(kept, r.Kept)
		}
		if r := res.Rounds[0]; len(r.AppliedDiff) == 0 || r.ApplyMode != "in_place" {
			t.Fatalf("format retry did not rescue round 1: %+v", r)
		}
		if r := res.Rounds[1]; r.After != nil || r.ApplyMode != "" {
			t.Fatalf("failed-LLM round touched the target: %+v", r)
		}
		check(t, &trace, "live_round", kept, []bool{true, false, false, false, false}, res.FinalConfig.Default)
	})

	t.Run("offline", func(t *testing.T) {
		client, ops := roundScript()
		runner := core.ConfigRunnerFunc(func(cfg *lsm.ConfigSet, _ func(bench.Progress) bool) (*bench.Report, error) {
			return &bench.Report{Workload: "fillrandom", Ops: 1000, Elapsed: time.Second,
				Throughput: ops(cfg.Default), Read: lsm.NewHistogram(), Write: lsm.NewHistogram()}, nil
		})
		var trace bytes.Buffer
		res, err := core.Run(context.Background(), core.Config{
			Client: client, Runner: runner, InitialConfig: lsm.NewConfigSet(lsm.DefaultOptions()),
			WorkloadName: "fillrandom", MaxIterations: rounds, StallLimit: 10, Trace: &trace,
		})
		if err != nil {
			t.Fatal(err)
		}
		var kept []bool
		for _, it := range res.Iterations {
			kept = append(kept, it.Kept)
		}
		// Offline benchmarks round 3's unchanged configuration again; the
		// rerun ties the best, and a tie on every metric is kept.
		check(t, &trace, "iteration", kept, []bool{true, false, true, false, false}, res.BestConfig.Default)
	})
}

// TestRunLiveCancelDuringObserve: cancellation that lands while the loop is
// inside Observe ends the session at once, with the rounds completed so far.
func TestRunLiveCancelDuringObserve(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	target := &scriptTarget{
		cfg: lsm.NewConfigSet(lsm.DefaultOptions()),
		ops: func(o *lsm.Options) float64 { return float64(o.MaxBackgroundJobs) * 1000 },
		onObserve: func(n int) {
			if n == 3 { // baseline, round 1's window, then round 2's
				cancel()
			}
		},
	}
	calls := 0
	client := &llm.FuncClient{Fn: func(context.Context, []llm.Message) (string, error) {
		calls++
		return fmt.Sprintf("max_background_jobs=%d", 2+2*calls), nil
	}}
	res, err := core.RunLive(ctx, core.LiveConfig{Client: client, Target: target, MaxRounds: 5})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Rounds) != 1 || !res.Rounds[0].Kept {
		t.Fatalf("partial result = %+v, want round 1 kept", res)
	}
	if calls != 2 || target.observes != 3 {
		t.Fatalf("session kept going after cancellation: %d LLM calls, %d observes", calls, target.observes)
	}
}
