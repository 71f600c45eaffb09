package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/bench"
	"repro/internal/lsm"
)

// OSRunner executes benchmarks against the real filesystem — the
// production path: tuning an actual store on the machine ELMo-Tune runs on
// rather than a simulated device. Each call uses a fresh subdirectory so
// iterations are independent.
type OSRunner struct {
	// BaseDir holds the per-run database directories.
	BaseDir string
	// Workload is the db_bench benchmark name.
	Workload string
	// Ops and ValueSize size the workload.
	Ops       int64
	ValueSize int
	// Seed drives workload randomness.
	Seed int64
	// OnDB, when set, is called with each freshly opened database before its
	// benchmark runs (used to repoint a live /metrics exporter).
	OnDB func(*lsm.DB)
	// ColumnFamilies, when non-empty, spreads workload traffic across these
	// named families (created on open if missing).
	ColumnFamilies []string

	runs int
}

// RunBenchmarkConfig implements core.ConfigRunner: the whole multi-family
// configuration is opened on real files and traffic spreads across
// ColumnFamilies.
func (r *OSRunner) RunBenchmarkConfig(cfg *lsm.ConfigSet, monitor func(bench.Progress) bool) (*bench.Report, error) {
	r.runs++
	dir := filepath.Join(r.BaseDir, fmt.Sprintf("run-%03d", r.runs))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	c := cfg.Clone()
	c.Default.Env = lsm.NewOSEnv()
	c.Default.Stats = lsm.NewStatistics()
	db, err := lsm.OpenConfig(dir, c)
	if err != nil {
		return nil, err
	}
	defer func() {
		db.Close()
		os.RemoveAll(dir) // keep disk use bounded across iterations
	}()
	if r.OnDB != nil {
		r.OnDB(db)
	}
	valueSize := r.ValueSize
	if valueSize <= 0 {
		valueSize = 400
	}
	ops := r.Ops
	if ops <= 0 {
		ops = 100_000
	}
	spec, err := bench.WorkloadByName(r.Workload, ops, valueSize, r.Seed)
	if err != nil {
		return nil, err
	}
	spec.ColumnFamilies = r.ColumnFamilies
	return (&bench.Runner{DB: db, Spec: spec, Monitor: monitor}).Run()
}
