// Package prompt implements the framework's Prompt Generator: it interlaces
// system information (sysmon), workload statistics, the current option file
// and the latest benchmark report into the calibrated prompts the paper
// sends to the LLM, including the intermediate "performance deteriorated"
// prompt issued by the Active Flagger.
package prompt

import (
	"fmt"
	"strings"

	"repro/internal/llm"
	"repro/internal/lsm"
	"repro/internal/sysmon"
)

// Inputs collects everything one tuning-iteration prompt interlaces.
type Inputs struct {
	// Iteration number (1-based; iteration 0 is the untuned baseline).
	Iteration int
	// WorkloadName is the db_bench benchmark name.
	WorkloadName string
	// WorkloadDescription is the user's expected-workload statement, e.g.
	// "write intensive, 100% random inserts" (the only user input the
	// framework requires).
	WorkloadDescription string
	// Host is the sysmon characterization (psutil/fio stand-ins).
	Host sysmon.HostInfo
	// Config is the configuration currently in effect, rendered as the full
	// OPTIONS file ([DBOptions] plus one CFOptions/TableOptions section pair
	// per column family).
	Config *lsm.ConfigSet
	// LastReport is the most recent benchmark output (db_bench style).
	LastReport string
	// StatsDump is the engine's rocksdb.stats property text from the last
	// run: cumulative stall/flush/compaction counters and the per-level
	// compaction-stats table — the telemetry an operator would read.
	StatsDump string
	// Histograms is the engine's latency-histogram summary (RocksDB-style
	// P50/P95/P99 lines per operation type).
	Histograms string
	// Workload is the measured workload characterization of the last run:
	// ops mix, per-family traffic shares, write amplification, stall
	// fraction and the drift score versus the previous iteration's window.
	Workload *lsm.WorkloadSnapshot
	// History summarizes prior iterations ("iter 3: 120000 ops/sec ...").
	History []string
	// Insights carries cross-session memory: the best configuration a
	// previous tuning session found for a similar workload fingerprint.
	Insights []string
	// Live marks a running-instance session: changes are applied through
	// SetOptions without a reopen, so only runtime-mutable options take
	// effect immediately.
	Live bool
	// Deteriorated marks the intermediate prompt after a reverted
	// iteration; DeteriorationNote carries the diff and the numbers.
	Deteriorated      bool
	DeteriorationNote string
}

// SystemPrompt frames the model as the tuning expert, states the rules of
// engagement, and pins the response format expectations.
func SystemPrompt() string {
	return strings.TrimSpace(`
You are an expert database performance engineer specializing in tuning
LSM-tree based key-value stores (RocksDB). You will receive: the host's
hardware profile, the expected workload, the current OPTIONS file, and the
latest benchmark results. Recommend configuration changes that improve
throughput and tail latency for this workload on this hardware.

Rules:
- Only change options that exist in RocksDB 8.x.
- Respect the machine's memory and CPU budget when sizing buffers/caches.
- Limit each reply to at most 10 option changes.
- Never disable the write-ahead log, fsync, or data verification.
- Reply with a short rationale and the changed options either as an ini
  block or as explicit "option = value" lines.
- When the database has multiple column families, scope each change by
  placing it under the matching [CFOptions "<name>"] header; unscoped
  changes apply to the "default" family. Never invent column families.`)
}

// Build renders the full conversation for one iteration.
func Build(in Inputs) []llm.Message {
	var b strings.Builder
	fmt.Fprintf(&b, "Iteration: %d\n\n", in.Iteration)
	b.WriteString("## System information (collected via psutil/fio)\n")
	b.WriteString(sysmon.Describe(in.Host))
	b.WriteString("\n## Workload\n")
	fmt.Fprintf(&b, "Benchmark: %s\n", in.WorkloadName)
	if in.WorkloadDescription != "" {
		fmt.Fprintf(&b, "Expected workload: %s\n", in.WorkloadDescription)
	}
	if in.Live {
		b.WriteString("\nThis database is RUNNING and will be retuned in place via SetOptions.\n" +
			"Prefer options that are mutable at runtime (write buffers, triggers,\n" +
			"background jobs, block cache size); options needing a reopen cost a\n" +
			"service interruption and may be rejected.\n")
	}
	if len(in.Insights) > 0 {
		b.WriteString("\n## Insights from previous tuning sessions\n")
		for _, line := range in.Insights {
			b.WriteString(line)
			b.WriteString("\n")
		}
	}
	if len(in.History) > 0 {
		b.WriteString("\n## Tuning history\n")
		for _, h := range in.History {
			fmt.Fprintf(&b, "- %s\n", h)
		}
	}
	if in.Deteriorated {
		b.WriteString("\n## IMPORTANT: performance deteriorated\n")
		b.WriteString("The previous change set REGRESSED performance and has been reverted.\n")
		if in.DeteriorationNote != "" {
			b.WriteString(in.DeteriorationNote)
			b.WriteString("\n")
		}
		b.WriteString("Propose a different, more conservative change set.\n")
	}
	if in.LastReport != "" {
		b.WriteString("\n## Latest benchmark output\n```\n")
		b.WriteString(strings.TrimSpace(in.LastReport))
		b.WriteString("\n```\n")
	}
	if in.StatsDump != "" {
		b.WriteString("\n## Engine statistics (rocksdb.stats)\n```\n")
		b.WriteString(strings.TrimSpace(in.StatsDump))
		b.WriteString("\n```\n")
	}
	if in.Histograms != "" {
		b.WriteString("\n## Engine latency histograms\n```\n")
		b.WriteString(strings.TrimSpace(in.Histograms))
		b.WriteString("\n```\n")
	}
	if in.Workload != nil {
		b.WriteString("\n## Workload characterization (measured)\n```\n")
		b.WriteString(strings.TrimSpace(in.Workload.String()))
		b.WriteString("\n```\n")
		if in.Workload.Drift > 0.5 {
			b.WriteString("The measured workload shifted noticeably since the last iteration;\n" +
				"re-examine assumptions carried over from earlier rounds.\n")
		}
	}
	if in.Config != nil {
		names := in.Config.Names()
		if len(names) > 1 {
			fmt.Fprintf(&b, "\n## Column families\n")
			fmt.Fprintf(&b, "The database has %d column families: %s.\n",
				len(names), strings.Join(names, ", "))
			b.WriteString("Scope per-family changes under the matching [CFOptions \"<name>\"]\n" +
				"section header; unscoped changes apply to the \"default\" family.\n")
		}
		b.WriteString("\n## Current OPTIONS file\n```ini\n")
		b.WriteString(in.Config.ToINI().String())
		b.WriteString("```\n")
	}
	b.WriteString("\nRecommend the next configuration changes.\n")
	return []llm.Message{
		llm.System(SystemPrompt()),
		llm.User(b.String()),
	}
}
