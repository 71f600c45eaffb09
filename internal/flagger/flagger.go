// Package flagger implements the framework's Active Flagger: it extracts
// the key data points from each benchmark report, compares them with the
// previous iteration, and decides whether to keep the new configuration or
// revert it and issue a deterioration prompt. It also hosts the Benchmark
// Monitor policy — the constant watch that early-stops a clearly
// regressing run within its first 30 seconds (the paper's "redo" path).
package flagger

import (
	"fmt"
	"time"

	"repro/internal/bench"
)

// Metrics are the key data points the flagger compares.
type Metrics struct {
	Throughput float64 // ops/sec
	P99Write   float64 // microseconds (0 when no writes)
	P99Read    float64 // microseconds (0 when no reads)
}

// FromReport extracts metrics from a structured benchmark report.
func FromReport(r *bench.Report) Metrics {
	return Metrics{
		Throughput: r.Throughput,
		P99Write:   r.P99Write(),
		P99Read:    r.P99Read(),
	}
}

// Better reports whether candidate improves on baseline. Throughput
// dominates; p99 latencies break near-ties (within tolerance), mirroring
// how the paper keeps configurations only when the numbers improve.
func Better(candidate, baseline Metrics, tolerance float64) bool {
	if tolerance <= 0 {
		tolerance = 0.01
	}
	switch {
	case candidate.Throughput > baseline.Throughput*(1+tolerance):
		return true
	case candidate.Throughput < baseline.Throughput*(1-tolerance):
		return false
	default:
		// Throughput is a wash: compare tail latency (sum of the sides
		// that exist).
		c := candidate.P99Write + candidate.P99Read
		b := baseline.P99Write + baseline.P99Read
		if b == 0 {
			return c == 0
		}
		return c < b
	}
}

// Decision is the flagger's outcome for one iteration.
type Decision struct {
	Keep    bool
	Reason  string
	Current Metrics
	Best    Metrics
}

// Flagger tracks the best configuration seen and judges each iteration.
type Flagger struct {
	// Tolerance is the relative throughput band treated as "no change"
	// (default 1%).
	Tolerance float64
	best      Metrics
	hasBest   bool
}

// New returns a flagger with the default tolerance.
func New() *Flagger { return &Flagger{Tolerance: 0.01} }

// Best returns the best metrics seen so far.
func (f *Flagger) Best() (Metrics, bool) { return f.best, f.hasBest }

// SetBaseline seeds the comparison with iteration 0's metrics.
func (f *Flagger) SetBaseline(m Metrics) {
	f.best = m
	f.hasBest = true
}

// Judge compares an iteration's metrics against the best-so-far, advancing
// the best when the iteration is kept.
func (f *Flagger) Judge(m Metrics) Decision {
	if !f.hasBest {
		f.best = m
		f.hasBest = true
		return Decision{Keep: true, Reason: "first measurement (baseline)", Current: m, Best: m}
	}
	if Better(m, f.best, f.Tolerance) {
		prev := f.best
		f.best = m
		return Decision{
			Keep:    true,
			Reason:  fmt.Sprintf("improved: %.0f -> %.0f ops/sec", prev.Throughput, m.Throughput),
			Current: m,
			Best:    m,
		}
	}
	return Decision{
		Keep:    false,
		Reason:  fmt.Sprintf("deteriorated: %.0f ops/sec vs best %.0f", m.Throughput, f.best.Throughput),
		Current: m,
		Best:    f.best,
	}
}

// DeteriorationNote renders the intermediate-prompt text for a reverted
// iteration.
func DeteriorationNote(d Decision, appliedDiff string) string {
	note := fmt.Sprintf(
		"Measured %.0f ops/sec (p99 write %.2fus, p99 read %.2fus) versus the previous best %.0f ops/sec.\n",
		d.Current.Throughput, d.Current.P99Write, d.Current.P99Read, d.Best.Throughput)
	if appliedDiff != "" {
		note += "The reverted change set was:\n" + appliedDiff
	}
	return note
}

// EarlyStop is the Benchmark Monitor policy: watch the first CheckAfter of
// a run; if interim throughput is below Fraction of the best-known
// throughput, abort the run (it will be reported as deteriorated without
// wasting the full benchmark).
type EarlyStop struct {
	// CheckAfter is how much (virtual) time must elapse before judging
	// (the paper uses the first 30 seconds).
	CheckAfter time.Duration
	// Fraction of best throughput below which the run is hopeless.
	Fraction float64
	// Best is the reference throughput (0 disables early stopping).
	Best float64
}

// NewEarlyStop returns the paper's 30-second/50% policy against a known
// best throughput.
func NewEarlyStop(best float64) *EarlyStop {
	return &EarlyStop{CheckAfter: 30 * time.Second, Fraction: 0.5, Best: best}
}

// Monitor adapts the policy to the bench.Runner Monitor callback.
func (e *EarlyStop) Monitor(p bench.Progress) bool {
	if e.Best <= 0 || p.Elapsed < e.CheckAfter {
		return true
	}
	return p.Throughput >= e.Best*e.Fraction
}
