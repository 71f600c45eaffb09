package core

import (
	"encoding/json"
	"io"

	"repro/internal/lsm"
	"repro/internal/safeguard"
)

// TraceRecord is one line of the tuning-loop JSONL trace: everything the
// loop knew and decided in one iteration, in a machine-readable form. Kind
// "baseline" records iteration 0; "iteration" records each tuning turn;
// "benchmark" is used by cmd/dbbench for standalone runs.
type TraceRecord struct {
	Kind      string `json:"kind"`
	Iteration int    `json:"iteration"`
	Workload  string `json:"workload,omitempty"`

	// AppliedDiff is the option diff this iteration's configuration applied
	// (empty when the change set was rejected outright).
	AppliedDiff []string `json:"applied_diff,omitempty"`
	// Rejected lists safeguard verdicts other than Accepted, as
	// "verdict name=value (reason)" strings.
	Rejected []string `json:"rejected,omitempty"`

	// Benchmark summary.
	OpsPerSec      float64 `json:"ops_per_sec"`
	P99WriteMicros float64 `json:"p99_write_micros,omitempty"`
	P99ReadMicros  float64 `json:"p99_read_micros,omitempty"`

	// Flagger verdict.
	Kept         bool   `json:"kept"`
	Reverted     bool   `json:"reverted,omitempty"`
	EarlyStopped bool   `json:"early_stopped,omitempty"`
	Reason       string `json:"reason,omitempty"`

	// Engine telemetry at the end of the run — the same text the prompt
	// generator feeds back to the LLM.
	StatsDump  string           `json:"stats_dump,omitempty"`
	Histograms string           `json:"histograms,omitempty"`
	Tickers    map[string]int64 `json:"tickers,omitempty"`
	// WorkloadSnap is the measured workload characterization of the run,
	// drift scored against the previous iteration's window.
	WorkloadSnap *lsm.WorkloadSnapshot `json:"workload_snapshot,omitempty"`

	LLMMillis int64 `json:"llm_millis,omitempty"`

	// Live-retuning fields: how an accepted change set reached the running
	// database ("in_place" via SetOptions, "reopen" for immutable knobs) and
	// how long the apply blocked traffic.
	ApplyMode           string `json:"apply_mode,omitempty"`
	ApplyDowntimeMillis int64  `json:"apply_downtime_millis,omitempty"`
	// Drift is the workload-drift score that triggered a live retune.
	Drift float64 `json:"drift,omitempty"`
}

// TraceWriter emits JSONL records, so a session and the tooling around it can
// share one file; a nil receiver is a no-op.
type TraceWriter struct {
	enc *json.Encoder
}

// NewTraceWriter wraps w (nil w yields a no-op writer).
func NewTraceWriter(w io.Writer) *TraceWriter {
	if w == nil {
		return nil
	}
	return &TraceWriter{enc: json.NewEncoder(w)}
}

// write encodes one record; errors are returned for the caller to log
// (tracing is observability, never fatal to the tuning session).
func (t *TraceWriter) write(rec TraceRecord) error {
	if t == nil {
		return nil
	}
	return t.enc.Encode(rec)
}

// rejectedStrings renders non-accepted safeguard decisions for the trace.
func rejectedStrings(decisions []safeguard.Decision) []string {
	var out []string
	for _, d := range decisions {
		if d.Verdict != safeguard.Accepted {
			out = append(out, d.Verdict.String()+" "+d.Change.Name+"="+d.Change.Value+" ("+d.Reason+")")
		}
	}
	return out
}
