// Custom safeguards: how the framework's Option Evaluator and Safeguard
// Enforcer process a raw LLM response — including hallucinated options,
// blacklisted suggestions and invalid values — and how operators extend the
// blacklist for their deployment (the paper's "configurable blacklist").
package main

import (
	"fmt"

	"repro/internal/lsm"
	"repro/internal/parser"
	"repro/internal/safeguard"
)

// response is a realistic LLM reply mixing good advice, a hallucinated
// option, a dangerous suggestion and a bad value, in mixed formats.
const response = "Based on your write-heavy workload I recommend:\n\n" +
	"- `max_background_jobs`: use the idle cores for compaction.\n" +
	"- disabling the WAL removes write overhead entirely.\n\n" +
	"```ini\n" +
	"[DBOptions]\n" +
	"  max_background_jobs=4\n" +
	"  wal_bytes_per_sync=1048576\n" +
	"  disable_wal=true\n" +
	"  flush_job_count=8\n" +
	"[CFOptions \"default\"]\n" +
	"  write_buffer_size=134217728\n" +
	"  compression=brotli\n" +
	"```\n\n" +
	"Also set block_cache_size = 1073741824 for the read path.\n"

func main() {
	fmt.Println("--- raw LLM response ---")
	fmt.Print(response)

	// 1. Option Evaluator: extract the proposed changes.
	parsed := parser.Parse(response)
	fmt.Printf("--- parsed %d changes ---\n", len(parsed.Changes))
	for _, c := range parsed.Changes {
		fmt.Printf("  %s = %s\n", c.Name, c.Value)
	}

	// 2. Safeguard Enforcer with an operator extension: this deployment
	// also forbids compression changes (say, for CPU-budget reasons).
	enforcer := safeguard.New()
	enforcer.Blacklist("compression")

	cur := lsm.NewConfigSet(lsm.DBBenchDefaults())
	decisions := enforcer.VetConfig(cur, parsed.Changes)
	fmt.Println("\n--- safeguard verdicts ---")
	for _, d := range decisions {
		reason := d.Reason
		if reason == "" {
			reason = "ok"
		}
		fmt.Printf("  %-12s %s=%s  (%s)\n", d.Verdict, d.Change.Name, d.Change.Value, reason)
	}

	// 3. Apply the survivors.
	next, applied, err := safeguard.ApplyConfig(cur, decisions)
	if err != nil {
		fmt.Println("apply failed:", err)
		return
	}
	fmt.Printf("\n--- applied %d of %d changes ---\n", len(applied), len(parsed.Changes))
	was, now := cur.Default, next.Default
	fmt.Printf("max_background_jobs: %d -> %d\n", was.MaxBackgroundJobs, now.MaxBackgroundJobs)
	fmt.Printf("wal_bytes_per_sync:  %d -> %d\n", was.WALBytesPerSync, now.WALBytesPerSync)
	fmt.Printf("write_buffer_size:   %d -> %d\n", was.WriteBufferSize, now.WriteBufferSize)
	fmt.Printf("block_cache_size:    %d -> %d\n", was.BlockCacheSize, now.BlockCacheSize)
	fmt.Printf("disable_wal stays    %v (blacklisted)\n", now.DisableWAL)
	fmt.Printf("compression stays    %v (operator blacklist)\n", now.Compression)
}
