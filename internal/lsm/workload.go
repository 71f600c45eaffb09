package lsm

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// WorkloadSnapshot characterizes the traffic a DB served over one
// observation window: the read/write/scan mix, how that traffic spread
// across column families, and the derived health signals a tuner cares
// about (write amplification, stall fraction, memtable hit ratio). It is
// computed from two readings of cumulative counters (WorkloadCounters), so
// back-to-back windows describe disjoint stretches of traffic.
type WorkloadSnapshot struct {
	// WindowStart/WindowEnd bound the window on the env clock.
	WindowStart time.Duration `json:"window_start_ns"`
	WindowEnd   time.Duration `json:"window_end_ns"`

	// Operation counts inside the window.
	Reads  int64 `json:"reads"`
	Writes int64 `json:"writes"`
	Scans  int64 `json:"scans"`

	// Mix fractions (each in [0,1]; zero-op windows leave all three 0).
	ReadFraction  float64 `json:"read_fraction"`
	WriteFraction float64 `json:"write_fraction"`
	ScanFraction  float64 `json:"scan_fraction"`

	// CFTraffic is each family's share of total ops, by name.
	CFTraffic map[string]float64 `json:"cf_traffic,omitempty"`

	// WriteAmp is (flush bytes + compaction write bytes) / user bytes
	// written inside the window (0 when nothing was written).
	WriteAmp float64 `json:"write_amp"`
	// StallFraction is stall time / window wall time.
	StallFraction float64 `json:"stall_fraction"`
	// MemtableHitRatio is memtable hits / (hits + misses) for the window.
	MemtableHitRatio float64 `json:"memtable_hit_ratio"`

	// Drift scores how different this window is from the previous window
	// its observer measured (0 = first window or identical shape). The tuning
	// session sets it.
	Drift float64 `json:"drift"`
}

// WorkloadCounters is one reading of the cumulative counters a workload
// window diffs: per-family foreground traffic, the ticker totals behind the
// health signals, and the env clock. A window is two readings taken by
// whoever observes it (NewWorkloadSnapshot); the DB keeps no window of its
// own. The JSON form is what a kvserver returns for OpWorkload.
type WorkloadCounters struct {
	// At is the env clock at the reading.
	At time.Duration `json:"at_ns"`
	// Families maps each family's name to its point lookups (MultiGet keys
	// count one each), written entries and iterator seeks.
	Families map[string]FamilyOps `json:"families"`
	// UserBytes is rocksdb.bytes.written; BackgroundBytes is flush plus
	// compaction write bytes.
	UserBytes       int64 `json:"user_bytes"`
	BackgroundBytes int64 `json:"background_bytes"`
	StallMicros     int64 `json:"stall_micros"`
	MemtableHits    int64 `json:"memtable_hits"`
	MemtableMisses  int64 `json:"memtable_misses"`
}

// FamilyOps is one family's cumulative foreground operation counts.
type FamilyOps struct {
	Reads  int64 `json:"reads"`
	Writes int64 `json:"writes"`
	Scans  int64 `json:"scans"`
}

// WorkloadCounters reads the DB's cumulative workload counters now.
func (db *DB) WorkloadCounters() WorkloadCounters {
	c := WorkloadCounters{At: db.env.Now(), Families: make(map[string]FamilyOps)}
	if snap := db.cfSnap.Load(); snap != nil {
		for _, cf := range *snap {
			c.Families[cf.name] = FamilyOps{cf.readOps.Load(), cf.writeOps.Load(), cf.scanOps.Load()}
		}
	}
	c.UserBytes = db.stats.Get(TickerBytesWritten)
	c.BackgroundBytes = db.stats.Get(TickerFlushBytes) + db.stats.Get(TickerCompactWriteBytes)
	c.StallMicros = db.stats.Get(TickerStallMicros)
	c.MemtableHits = db.stats.Get(TickerMemtableHit)
	c.MemtableMisses = db.stats.Get(TickerMemtableMiss)
	return c
}

// totals sums the families' operation counts.
func (c WorkloadCounters) totals() (t FamilyOps) {
	for _, f := range c.Families {
		t.Reads += f.Reads
		t.Writes += f.Writes
		t.Scans += f.Scans
	}
	return t
}

// NewWorkloadSnapshot describes the window between two readings of the same
// counters. Drift is left 0: scoring it needs the window before, which only
// the observer knows.
func NewWorkloadSnapshot(before, after WorkloadCounters) WorkloadSnapshot {
	b, a := before.totals(), after.totals()
	ws := WorkloadSnapshot{
		WindowStart: before.At,
		WindowEnd:   after.At,
		Reads:       a.Reads - b.Reads,
		Writes:      a.Writes - b.Writes,
		Scans:       a.Scans - b.Scans,
		CFTraffic:   make(map[string]float64),
	}
	total := ws.Reads + ws.Writes + ws.Scans
	if total > 0 {
		ws.ReadFraction = float64(ws.Reads) / float64(total)
		ws.WriteFraction = float64(ws.Writes) / float64(total)
		ws.ScanFraction = float64(ws.Scans) / float64(total)
		for name, f := range after.Families {
			g := before.Families[name]
			if d := (f.Reads + f.Writes + f.Scans) - (g.Reads + g.Writes + g.Scans); d > 0 {
				ws.CFTraffic[name] = float64(d) / float64(total)
			}
		}
	}
	if user := after.UserBytes - before.UserBytes; user > 0 {
		ws.WriteAmp = float64(after.BackgroundBytes-before.BackgroundBytes)/float64(user) + 1
	}
	if wall := after.At - before.At; wall > 0 {
		stall := time.Duration(after.StallMicros-before.StallMicros) * time.Microsecond
		ws.StallFraction = math.Min(1, float64(stall)/float64(wall))
	}
	hits := after.MemtableHits - before.MemtableHits
	if probes := hits + (after.MemtableMisses - before.MemtableMisses); probes > 0 {
		ws.MemtableHitRatio = float64(hits) / float64(probes)
	}
	return ws
}

// DriftFrom scores how far this window's shape moved from prev: the L1
// distance over the mix fractions and per-CF shares, plus the stall,
// memtable-hit and (normalized) write-amp deltas. 0 means identical shape;
// a full read-heavy -> write-heavy flip alone contributes 2.0.
func (ws WorkloadSnapshot) DriftFrom(prev *WorkloadSnapshot) float64 {
	if prev == nil {
		return 0
	}
	d := math.Abs(ws.ReadFraction-prev.ReadFraction) +
		math.Abs(ws.WriteFraction-prev.WriteFraction) +
		math.Abs(ws.ScanFraction-prev.ScanFraction)
	names := make(map[string]struct{}, len(ws.CFTraffic)+len(prev.CFTraffic))
	for n := range ws.CFTraffic {
		names[n] = struct{}{}
	}
	for n := range prev.CFTraffic {
		names[n] = struct{}{}
	}
	for n := range names {
		d += math.Abs(ws.CFTraffic[n] - prev.CFTraffic[n])
	}
	d += math.Abs(ws.StallFraction - prev.StallFraction)
	d += math.Abs(ws.MemtableHitRatio - prev.MemtableHitRatio)
	if m := math.Max(ws.WriteAmp, prev.WriteAmp); m > 0 {
		d += math.Abs(ws.WriteAmp-prev.WriteAmp) / m
	}
	return d
}

// String renders the snapshot as the compact block fed to tuning prompts.
func (ws WorkloadSnapshot) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "ops mix: %.1f%% read / %.1f%% write / %.1f%% scan (%d ops over %s)\n",
		ws.ReadFraction*100, ws.WriteFraction*100, ws.ScanFraction*100,
		ws.Reads+ws.Writes+ws.Scans, ws.WindowEnd-ws.WindowStart)
	if len(ws.CFTraffic) > 0 {
		names := make([]string, 0, len(ws.CFTraffic))
		for n := range ws.CFTraffic {
			names = append(names, n)
		}
		sort.Strings(names)
		parts := make([]string, 0, len(names))
		for _, n := range names {
			parts = append(parts, fmt.Sprintf("%s=%.1f%%", n, ws.CFTraffic[n]*100))
		}
		fmt.Fprintf(&sb, "cf traffic: %s\n", strings.Join(parts, " "))
	}
	fmt.Fprintf(&sb, "write amplification: %.2f\n", ws.WriteAmp)
	fmt.Fprintf(&sb, "stall fraction: %.3f\n", ws.StallFraction)
	fmt.Fprintf(&sb, "memtable hit ratio: %.3f\n", ws.MemtableHitRatio)
	fmt.Fprintf(&sb, "workload drift vs previous window: %.3f", ws.Drift)
	return sb.String()
}
