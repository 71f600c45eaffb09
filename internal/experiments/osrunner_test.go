package experiments

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/lsm"
	"repro/internal/mockllm"
	"repro/internal/sysmon"
)

func TestOSRunnerRealFiles(t *testing.T) {
	r := &OSRunner{BaseDir: t.TempDir(), Workload: "fillrandom", Ops: 5000, ValueSize: 100, Seed: 3}
	rep, err := r.RunBenchmarkConfig(lsm.NewConfigSet(lsm.DBBenchDefaults()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 5000 || rep.Throughput <= 0 {
		t.Fatalf("report: ops=%d tput=%f", rep.Ops, rep.Throughput)
	}
	// Second run gets a fresh directory (fresh DB, same op count).
	rep2, err := r.RunBenchmarkConfig(lsm.NewConfigSet(lsm.DBBenchDefaults()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Ops != rep.Ops {
		t.Fatalf("runs differ in ops: %d vs %d", rep2.Ops, rep.Ops)
	}
}

func TestOSRunnerBadWorkload(t *testing.T) {
	r := &OSRunner{BaseDir: t.TempDir(), Workload: "nope"}
	if _, err := r.RunBenchmarkConfig(lsm.NewConfigSet(lsm.DBBenchDefaults()), nil); err == nil {
		t.Fatal("bad workload accepted")
	}
}

// TestFullLoopOverHTTP exercises the complete wire path: the mock expert
// served over an OpenAI-compatible HTTP API (as cmd/mockllm does), consumed
// by the tuning loop through the real HTTP client, driving real-file
// benchmarks.
func TestFullLoopOverHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	expert := mockllm.NewExpert(5)
	mux := http.NewServeMux()
	mux.Handle("/v1/chat/completions", llm.ServeChat(expert))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	res, err := core.Run(context.Background(), core.Config{
		Client:        llm.NewHTTPClient(srv.URL+"/v1", "", "mock-gpt-4"),
		Runner:        &OSRunner{BaseDir: t.TempDir(), Workload: "fillrandom", Ops: 5000, ValueSize: 100, Seed: 5},
		Monitor:       sysmon.NewOSMonitor(),
		InitialConfig: lsm.NewConfigSet(lsm.DBBenchDefaults()),
		WorkloadName:  "fillrandom",
		MaxIterations: 2,
		StallLimit:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) != 2 {
		t.Fatalf("iterations = %d", len(res.Iterations))
	}
	for _, it := range res.Iterations {
		if len(it.Parsed.Changes) == 0 {
			t.Fatalf("iteration %d parsed nothing over HTTP", it.Number)
		}
	}
}
