package core

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/lsm"
)

// Insight is one tuning session's distilled outcome: the workload's
// fingerprint (mix fractions), the best configuration found (as the option
// diff from the session's starting point) and the throughput it reached.
// Sessions append an insight on completion; later sessions inject the insight
// nearest to their measured workload into the prompt, so knowledge crosses
// process restarts without any model fine-tuning.
type Insight struct {
	Workload      string  `json:"workload"`
	ReadFraction  float64 `json:"read_fraction"`
	WriteFraction float64 `json:"write_fraction"`
	ScanFraction  float64 `json:"scan_fraction"`
	Throughput    float64 `json:"ops_per_sec"`
	// BestDiff is the option diff (ini.Diff lines) between the session's
	// initial and best configuration.
	BestDiff []string `json:"best_diff,omitempty"`
	SavedAt  string   `json:"saved_at,omitempty"`
}

// InsightStore is the on-disk insight memory: one JSON file holding every
// recorded session.
type InsightStore struct {
	Path     string
	Insights []Insight
}

// LoadInsights reads the store at path; a missing file yields an empty store
// (the first session has nothing to remember yet).
func LoadInsights(path string) (*InsightStore, error) {
	s := &InsightStore{Path: path}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: insight store: %w", err)
	}
	if err := json.Unmarshal(data, &s.Insights); err != nil {
		return nil, fmt.Errorf("core: insight store %s: %w", path, err)
	}
	return s, nil
}

// Nearest returns the stored insight whose workload fingerprint is closest
// (L1 distance over the mix fractions) to ws, or nil when the store is empty
// or nothing is within maxDist.
func (s *InsightStore) Nearest(ws *lsm.WorkloadSnapshot, maxDist float64) *Insight {
	if s == nil || ws == nil {
		return nil
	}
	best, bestD := -1, maxDist
	for i, ins := range s.Insights {
		d := math.Abs(ins.ReadFraction-ws.ReadFraction) +
			math.Abs(ins.WriteFraction-ws.WriteFraction) +
			math.Abs(ins.ScanFraction-ws.ScanFraction)
		if d <= bestD {
			best, bestD = i, d
		}
	}
	if best < 0 {
		return nil
	}
	return &s.Insights[best]
}

// Add appends one session's insight (in memory; call Save to persist).
func (s *InsightStore) Add(ins Insight) {
	if ins.SavedAt == "" {
		ins.SavedAt = time.Now().UTC().Format(time.RFC3339)
	}
	s.Insights = append(s.Insights, ins)
}

// Save writes the store back to its path.
func (s *InsightStore) Save() error {
	data, err := json.MarshalIndent(s.Insights, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(s.Path, append(data, '\n'), 0o644)
}

// PromptLines renders an insight as the prompt-section lines a later session
// feeds back to the model.
func (ins *Insight) PromptLines() []string {
	if ins == nil {
		return nil
	}
	out := []string{fmt.Sprintf(
		"A previous session on workload %q (%.0f%% read / %.0f%% write / %.0f%% scan) reached %.0f ops/sec with these changes:",
		ins.Workload, ins.ReadFraction*100, ins.WriteFraction*100, ins.ScanFraction*100, ins.Throughput)}
	if len(ins.BestDiff) == 0 {
		out = append(out, "  (the untuned defaults were already best)")
	}
	for _, d := range ins.BestDiff {
		out = append(out, "  "+d)
	}
	return out
}
