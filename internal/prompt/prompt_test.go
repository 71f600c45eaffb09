package prompt

import (
	"strings"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/lsm"
	"repro/internal/sysmon"
)

func testHost() sysmon.HostInfo {
	return sysmon.HostInfo{
		CPUs:        4,
		MemoryBytes: 4 << 30,
		OS:          "linux (simulated)",
		Storage: sysmon.StorageInfo{
			Name: "nvme0n1", Kind: "NVMe SSD",
			RandReadLatency: 70 * time.Microsecond,
			SeqReadMBps:     2800, SeqWriteMBps: 1900,
			SyncLatency: 120 * time.Microsecond,
		},
	}
}

func TestBuildContainsEverything(t *testing.T) {
	msgs := Build(Inputs{
		Iteration:           3,
		WorkloadName:        "fillrandom",
		WorkloadDescription: "write intensive",
		Host:                testHost(),
		Config:              lsm.NewConfigSet(lsm.DBBenchDefaults()),
		LastReport:          "fillrandom : 3.1 micros/op 320000 ops/sec",
		History:             []string{"iteration 0 (default config): 320000 ops/sec"},
	})
	if len(msgs) != 2 {
		t.Fatalf("messages = %d", len(msgs))
	}
	if msgs[0].Role != llm.RoleSystem || msgs[1].Role != llm.RoleUser {
		t.Fatalf("roles = %s, %s", msgs[0].Role, msgs[1].Role)
	}
	sys := msgs[0].Content
	for _, want := range []string{"RocksDB", "10 option changes", "write-ahead log"} {
		if !strings.Contains(sys, want) {
			t.Errorf("system prompt missing %q", want)
		}
	}
	user := msgs[1].Content
	for _, want := range []string{
		"Iteration: 3",
		"CPU cores: 4",
		"Memory: 4.0 GiB",
		"NVMe SSD",
		"fillrandom",
		"write intensive",
		"320000 ops/sec",
		"write_buffer_size=67108864",
		"[DBOptions]",
		"Tuning history",
	} {
		if !strings.Contains(user, want) {
			t.Errorf("user prompt missing %q", want)
		}
	}
}

func TestBuildEngineTelemetrySections(t *testing.T) {
	msgs := Build(Inputs{
		Iteration:    2,
		WorkloadName: "fillrandom",
		Host:         testHost(),
		StatsDump:    "** Compaction Stats [default] **\n  L0  3  0.50 ...",
		Histograms:   "rocksdb.db.write.micros P50 : 3.10 P95 : 9.80 P99 : 14.20 COUNT : 123 SUM : 456",
	})
	user := msgs[1].Content
	for _, want := range []string{
		"## Engine statistics (rocksdb.stats)",
		"** Compaction Stats [default] **",
		"## Engine latency histograms",
		"P99 : 14.20",
	} {
		if !strings.Contains(user, want) {
			t.Errorf("user prompt missing %q:\n%s", want, user)
		}
	}
	// Both dumps must be fenced so the model sees them as verbatim output.
	if strings.Count(user, "```") < 4 {
		t.Errorf("telemetry sections not fenced:\n%s", user)
	}

	// And both sections disappear when there is no telemetry.
	bare := Build(Inputs{Iteration: 1, WorkloadName: "fillrandom", Host: testHost()})[1].Content
	if strings.Contains(bare, "Engine statistics") || strings.Contains(bare, "Engine latency histograms") {
		t.Errorf("phantom telemetry sections:\n%s", bare)
	}
}

func TestBuildDeteriorated(t *testing.T) {
	msgs := Build(Inputs{
		Iteration:         2,
		WorkloadName:      "mixgraph",
		Host:              testHost(),
		Deteriorated:      true,
		DeteriorationNote: "dropped from 100k to 50k ops/sec",
	})
	user := msgs[1].Content
	if !strings.Contains(user, "deteriorated") || !strings.Contains(user, "REGRESSED") {
		t.Fatalf("deterioration framing missing:\n%s", user)
	}
	if !strings.Contains(user, "dropped from 100k") {
		t.Fatal("deterioration note missing")
	}
}

func TestBuildMinimal(t *testing.T) {
	msgs := Build(Inputs{Iteration: 1, WorkloadName: "readrandom", Host: testHost()})
	if len(msgs) != 2 || !strings.Contains(msgs[1].Content, "readrandom") {
		t.Fatal("minimal build broken")
	}
	// No options section when Options is nil.
	if strings.Contains(msgs[1].Content, "Current OPTIONS file") {
		t.Fatal("phantom options section")
	}
}

func TestSystemPromptStable(t *testing.T) {
	if SystemPrompt() != SystemPrompt() {
		t.Fatal("system prompt not deterministic")
	}
}
