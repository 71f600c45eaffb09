package core_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/llm"
	"repro/internal/mockllm"
)

var updateGolden = flag.Bool("update", false, "rewrite internal/core/testdata golden files")

// hashingClient records the SHA-256 of every prompt (all messages, in order)
// before handing it to the wrapped client.
type hashingClient struct {
	llm.Client
	sums []string
}

func (h *hashingClient) Complete(ctx context.Context, msgs []llm.Message) (string, error) {
	sum := sha256.New()
	for _, m := range msgs {
		sum.Write([]byte(m.Role))
		sum.Write([]byte{0})
		sum.Write([]byte(m.Content))
		sum.Write([]byte{0})
	}
	h.sums = append(h.sums, hex.EncodeToString(sum.Sum(nil)))
	return h.Client.Complete(ctx, msgs)
}

// goldenIteration is the per-iteration slice of a session the golden pins.
type goldenIteration struct {
	Number       int      `json:"number"`
	Throughput   float64  `json:"throughput"`
	Kept         bool     `json:"kept"`
	EarlyStopped bool     `json:"early_stopped"`
	AppliedDiff  []string `json:"applied_diff"`
}

type goldenSession struct {
	BaselineThroughput float64           `json:"baseline_throughput"`
	Iterations         []goldenIteration `json:"iterations"`
	PromptSHA256       []string          `json:"prompt_sha256"`
}

// TestGoldenOfflineSession pins one short deterministic offline session byte
// for byte: what every iteration measured and decided, the hash of every
// prompt the model saw, and the JSONL trace. Under SimEnv the engine times
// itself on the virtual clock, so the only wall-clock fields are the two the
// tuning loop measures around the LLM call and the apply, zeroed below. Any
// drift in prompts, decisions or trace records fails here.
// Regenerate with `go test ./internal/core -run TestGoldenOfflineSession -update`
// only for a change that is meant to alter offline behaviour.
func TestGoldenOfflineSession(t *testing.T) {
	client := &hashingClient{Client: mockllm.NewExpert(42)}
	var trace bytes.Buffer
	s, err := experiments.RunSession(context.Background(), device.NVMe(), device.Profile4C8G(),
		"readrandomwriterandom", experiments.Config{
			Scale: 400, Seed: 42, MaxIterations: 3, Client: client, Trace: &trace,
		})
	if err != nil {
		t.Fatal(err)
	}

	got := goldenSession{
		BaselineThroughput: s.Result.BaselineMetrics.Throughput,
		PromptSHA256:       client.sums,
	}
	for _, it := range s.Result.Iterations {
		got.Iterations = append(got.Iterations, goldenIteration{
			Number:       it.Number,
			Throughput:   it.Metrics.Throughput,
			Kept:         it.Kept,
			EarlyStopped: it.EarlyStopped,
			AppliedDiff:  it.AppliedDiff,
		})
	}
	session, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	session = append(session, '\n')

	// Zero the two wall-clock fields, keep every other byte of every record.
	var records bytes.Buffer
	enc := json.NewEncoder(&records)
	dec := json.NewDecoder(&trace)
	for dec.More() {
		var rec core.TraceRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		rec.LLMMillis, rec.ApplyDowntimeMillis = 0, 0
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}

	compareGolden(t, "offline_session.json", session)
	compareGolden(t, "offline_trace.jsonl", records.Bytes())
}

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := i - 80
	if lo < 0 {
		lo = 0
	}
	clip := func(b []byte) []byte {
		if hi := i + 80; hi < len(b) {
			return b[lo:hi]
		}
		return b[lo:]
	}
	t.Fatalf("%s drifted at byte %d (got %d bytes, want %d)\n got: …%s…\nwant: …%s…",
		path, i, len(got), len(want), clip(got), clip(want))
}
