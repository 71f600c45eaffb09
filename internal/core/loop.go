package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/flagger"
	"repro/internal/ini"
	"repro/internal/llm"
	"repro/internal/lsm"
	"repro/internal/parser"
	"repro/internal/prompt"
	"repro/internal/safeguard"
	"repro/internal/sysmon"
)

// tuneTarget is what a session tunes: something a configuration can be
// landed on and measured under. Rolling back is landing the previous
// configuration again.
type tuneTarget interface {
	// land puts next into effect; applied are the accepted changes that lead
	// to it. mode says how it got there ("" when landing costs nothing).
	land(next *lsm.ConfigSet, applied []safeguard.Decision) (mode string, downtime time.Duration, err error)
	// measure reports one window under the landed configuration. best is the
	// throughput to beat, 0 for a window nothing is judged against.
	measure(ctx context.Context, best float64) (*window, error)
}

// window is one measurement: a benchmark run offline, an observation window
// live.
type window struct {
	LiveObservation
	metrics      flagger.Metrics // what the flagger compares; live windows carry throughput only
	report       *bench.Report   // offline: the run behind the window
	earlyStopped bool            // offline: the benchmark monitor cut the run short
}

// round is one turn of the loop, in both result forms: the embedded
// Iteration is Run's, live is RunLive's (close copies the shared fields).
type round struct {
	Iteration
	live  LiveRound
	drift float64 // the score that triggered a drift round
	after *window
}

// session is the one tuning loop. Run (offline, a benchmark per iteration)
// and RunLive (a running instance retuned in place) fill in the first group
// of fields, call run, and read their results off the second.
type session struct {
	// Config holds the settings; RunLive maps a LiveConfig onto the fields
	// that apply to it.
	Config
	target   tuneTarget
	enforcer *safeguard.Enforcer
	trace    *TraceWriter
	current  *lsm.ConfigSet // configuration in effect
	// live says the target is a running instance rather than a benchmark
	// repeated on a fresh database, which changes four things. Prompts say
	// so. Windows of live traffic are comparable only with their neighbour,
	// so a round is judged against the window it started from, not the best
	// of the session, and kept within 1% of it (undoing costs the instance
	// another SetOptions or reopen). A round that changed nothing measures
	// nothing. And after a rollback the next round starts from the window
	// the undone round started from: that one, not the rejected one,
	// describes the configuration in effect. Offline the rejected run is
	// what the paper's deterioration prompt shows.
	live bool
	// Wording of history lines, log lines and trace records.
	unit, reverted, baselineLine, traceKind string
	// After the tuning rounds, watchWindows more windows are measured; a
	// drift score of driftThreshold or more triggers another round.
	watchWindows   int
	driftThreshold float64

	flag         *flagger.Flagger
	host         sysmon.HostInfo
	insights     *InsightStore
	baseline     *window
	last         *window         // what the next prompt shows and the next round starts from
	best         flagger.Metrics // of the last kept window
	history      []string
	detNote      string // when set, the next prompt is the deterioration prompt
	stalled      int
	stoppedEarly bool
	driftRetunes int
	rounds       []*round
}

// run measures the baseline, runs the tuning rounds, watches for drift and
// saves the session's insight. On error the state built so far stands.
func (s *session) run(ctx context.Context) error {
	if s.Logf == nil {
		s.Logf = func(string, ...any) {}
	}
	if s.Monitor != nil {
		s.host = s.Monitor.Host()
	}
	var err error
	if s.InsightPath != "" {
		if s.insights, err = LoadInsights(s.InsightPath); err != nil {
			s.Logf("insights: %v (continuing without)", err)
		}
	}
	initial := s.current

	s.Logf("%s 0: measuring baseline (%s)", s.unit, s.WorkloadName)
	if s.baseline, err = s.target.measure(ctx, 0); err != nil {
		return fmt.Errorf("core: baseline measurement: %w", err)
	}
	s.last, s.best = s.baseline, s.baseline.metrics
	s.flag = flagger.New()
	s.flag.SetBaseline(s.best)
	s.Logf("%s 0: %.0f ops/sec", s.unit, s.baseline.Throughput)
	s.emit(TraceRecord{Kind: "baseline", Kept: true}, s.baseline)
	s.history = append(s.history, fmt.Sprintf(s.baselineLine, s.baseline.Throughput))

	n := 0
	for n < s.MaxIterations && !s.stoppedEarly {
		n++
		if err := s.tune(ctx, n, "initial", 0); err != nil {
			return err
		}
	}
	for w := 1; w <= s.watchWindows; w++ {
		obs, err := s.target.measure(ctx, 0)
		if err != nil {
			return fmt.Errorf("core: watch measurement: %w", err)
		}
		s.last = obs
		d := 0.0
		if obs.Workload != nil {
			d = obs.Workload.Drift
		}
		s.Logf("watch %d: %.0f ops/sec, drift %.3f", w, obs.Throughput, d)
		if d >= s.driftThreshold {
			s.Logf("workload drift %.3f >= %.2f, retuning", d, s.driftThreshold)
			s.driftRetunes++
			n++
			if err := s.tune(ctx, n, "drift", d); err != nil {
				return err
			}
		}
	}

	if s.insights != nil {
		// The fingerprint is the last window's; without one the insight still
		// matches by workload name.
		ins := Insight{Workload: s.WorkloadName, Throughput: s.best.Throughput,
			BestDiff: ini.Diff(initial.ToINI(), s.current.ToINI())}
		if ws := s.last.Workload; ws != nil {
			ins.ReadFraction, ins.WriteFraction, ins.ScanFraction = ws.ReadFraction, ws.WriteFraction, ws.ScanFraction
		}
		s.insights.Add(ins)
		if err := s.insights.Save(); err != nil {
			s.Logf("insights: save: %v", err)
		}
	}
	return nil
}

// tune runs one round: prompt -> LLM -> format check -> safeguard -> land ->
// measure -> keep or roll back. A returned error ends the session.
func (s *session) tune(ctx context.Context, n int, trigger string, drift float64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	r := &round{drift: drift}
	r.Number, r.Config = n, s.current
	r.live.Trigger, r.live.Before = trigger, &s.last.LiveObservation
	in := prompt.Inputs{
		Iteration:           n,
		WorkloadName:        s.WorkloadName,
		WorkloadDescription: s.WorkloadDescription,
		Host:                s.host,
		Config:              s.current,
		StatsDump:           s.last.StatsDump,
		Histograms:          s.last.Histograms,
		Workload:            s.last.Workload,
		History:             s.history,
		Insights:            s.insights.Nearest(s.last.Workload, 1.0).PromptLines(),
		Live:                s.live,
		Deteriorated:        s.detNote != "",
		DeteriorationNote:   s.detNote,
	}
	if trigger == "drift" {
		in.WorkloadDescription = strings.TrimSpace(s.WorkloadDescription +
			"\nNOTE: the measured workload DRIFTED from the shape the current configuration was tuned for; retune for the new shape.")
	}
	if s.last.report != nil {
		in.LastReport = s.last.report.Format()
	}
	var err error
	if r.Response, r.Parsed, r.LLMDuration, err = s.ask(ctx, n, prompt.Build(in)); err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		// An LLM outage keeps the configuration, tells the model next round,
		// and counts against the stall limit.
		s.stalled++
		s.close(r, "LLM call failed: "+err.Error(),
			"The previous LLM call failed; no changes were applied: "+err.Error())
		return nil
	}

	r.Decisions = s.enforcer.VetConfig(s.current, r.Parsed.Changes)
	for _, rejected := range rejectedStrings(r.Decisions) {
		s.Logf("%s %d: %s", s.unit, n, rejected)
	}
	next, applied, err := safeguard.ApplyConfig(s.current, r.Decisions)
	if err != nil {
		// The changes are inconsistent together: skip the round, tell the
		// model next round.
		s.close(r, "combination rejected by validation: "+err.Error(),
			"The proposed combination was rejected by validation: "+err.Error())
		return nil
	}
	if len(applied) == 0 && s.live {
		s.close(r, "no applicable changes", "")
		return nil
	}
	r.AppliedDiff, r.Config = ini.Diff(s.current.ToINI(), next.ToINI()), next

	if r.live.ApplyMode, r.live.Downtime, err = s.target.land(next, applied); err != nil {
		return fmt.Errorf("core: apply at %s %d: %w", s.unit, n, err)
	}
	if r.after, err = s.target.measure(ctx, s.best.Throughput); err != nil {
		return fmt.Errorf("core: measurement at %s %d: %w", s.unit, n, err)
	}
	// The Active Flagger: keep what beats the reference (p99 breaks
	// throughput ties), never a run the monitor had to stop.
	if s.live {
		s.flag.SetBaseline(s.last.metrics)
	}
	decision := s.flag.Judge(r.after.metrics)
	r.Kept = s.KeepAllIterations || (decision.Keep && !r.after.earlyStopped)
	if r.Kept {
		if s.best.Throughput > 0 && r.after.Throughput/s.best.Throughput-1 >= s.MinImprovement {
			s.stalled = 0
		} else {
			s.stalled++
		}
		s.current, s.last, s.best, s.detNote = next, r.after, r.after.metrics, ""
		s.close(r, decision.Reason, "")
		return nil
	}
	if _, _, err := s.target.land(s.current, applied); err != nil {
		return fmt.Errorf("core: rollback at %s %d: %w", s.unit, n, err)
	}
	note := flagger.DeteriorationNote(decision, strings.Join(r.AppliedDiff, "\n"))
	if r.after.earlyStopped {
		note += "\n(The run was stopped by the 30-second monitor because throughput collapsed.)"
	}
	if !s.live {
		s.last = r.after
	}
	s.stalled++
	s.close(r, decision.Reason, note)
	return nil
}

// ask sends the prompt and parses the reply; a reply with no usable changes
// is re-asked once with a format reminder. dur covers every call made.
func (s *session) ask(ctx context.Context, n int, msgs []llm.Message) (response string, parsed parser.Result, dur time.Duration, err error) {
	for attempt := 1; ; attempt++ {
		start := time.Now()
		response, err = s.Client.Complete(ctx, msgs)
		dur += time.Since(start)
		if err != nil {
			return "", parser.Result{}, dur, err
		}
		parsed = parser.Parse(response)
		if len(parsed.Changes) > 0 || attempt == 2 || s.DisableFormatRetry {
			return response, parsed, dur, nil
		}
		s.Logf("%s %d: unparseable response, re-asking with format reminder", s.unit, n)
		msgs = append(msgs, llm.Assistant(response),
			llm.User("Your reply contained no parseable option changes. Reply ONLY with lines of the form option_name=value."))
	}
}

// close ends a round: both result forms completed, one log line, a history
// line if it measured, one trace record, the stall check. A non-empty note is
// what the next prompt tells the model about this round.
func (s *session) close(r *round, reason, note string) {
	s.Logf("%s %d: kept=%v (%s)", s.unit, r.Number, r.Kept, reason)
	if note != "" {
		s.detNote = note
	}
	r.Config = r.Config.Clone()
	r.Options = r.Config.Default
	rec := TraceRecord{
		Kind:                s.traceKind,
		Iteration:           r.Number,
		AppliedDiff:         r.AppliedDiff,
		Rejected:            rejectedStrings(r.Decisions),
		Kept:                r.Kept,
		Reverted:            !r.Kept,
		Reason:              reason,
		LLMMillis:           r.LLMDuration.Milliseconds(),
		ApplyMode:           r.live.ApplyMode,
		ApplyDowntimeMillis: r.live.Downtime.Milliseconds(),
		Drift:               r.drift,
	}
	if w := r.after; w != nil {
		verdict := s.reverted
		if r.Kept {
			verdict = strings.TrimSuffix("kept, "+r.live.ApplyMode, ", ")
		}
		s.history = append(s.history, fmt.Sprintf("%s %d (%s): %.0f ops/sec", s.unit, r.Number, verdict, w.Throughput))
		r.Report, r.Metrics, r.EarlyStopped, rec.EarlyStopped = w.report, w.metrics, w.earlyStopped, w.earlyStopped
		r.live.After = &w.LiveObservation
	}
	r.live.Number, r.live.Decisions, r.live.AppliedDiff, r.live.Kept = r.Number, r.Decisions, r.AppliedDiff, r.Kept
	s.emit(rec, r.after)
	s.rounds = append(s.rounds, r)
	if s.StallLimit > 0 && s.stalled >= s.StallLimit {
		s.Logf("stopping: %d consecutive %ss without >%.1f%% improvement", s.stalled, s.unit, s.MinImprovement*100)
		s.stoppedEarly = true
	}
}

// emit writes one trace record, with w's numbers (and a benchmark report's
// telemetry) when a window is behind it. Tracing is observability: errors
// are logged, never fatal.
func (s *session) emit(rec TraceRecord, w *window) {
	rec.Workload = s.WorkloadName
	if w != nil {
		rec.OpsPerSec, rec.WorkloadSnap = w.Throughput, w.Workload
		if rep := w.report; rep != nil {
			rec.P99WriteMicros, rec.P99ReadMicros = w.metrics.P99Write, w.metrics.P99Read
			rec.StatsDump, rec.Histograms, rec.Tickers = rep.StatsDump, rep.HistogramDump, rep.Stats
		}
	}
	if err := s.trace.write(rec); err != nil {
		s.Logf("trace: %v", err)
	}
}
