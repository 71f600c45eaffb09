package bench

import (
	"fmt"
	"math"
	"math/rand"
)

// Spec describes one benchmark run, mirroring the db_bench flags the paper
// uses (-benchmarks, -num, -reads, -threads, -value_size, -key_size).
type Spec struct {
	Name         string
	Threads      int
	OpsPerThread int64
	KeySize      int
	ValueSize    int
	// KeySpace is the number of distinct keys addressed.
	KeySpace uint64
	// ReadFraction of operations are Gets (remainder are Puts).
	ReadFraction float64
	// Zipfian selects the mixgraph-style skewed key popularity; otherwise
	// keys are uniform.
	Zipfian   bool
	ZipfTheta float64
	// Preload loads this many keys (batched, unmeasured) before the run.
	Preload uint64
	// ParetoValues draws value sizes from a bounded Pareto distribution
	// around ValueSize (mixgraph behaviour).
	ParetoValues bool
	// Sequential writes keys in ascending order (fillseq).
	Sequential bool
	// ScanFraction of operations are range scans of ScanLength entries
	// (seekrandom); reads+scans+writes partition the op mix.
	ScanFraction float64
	ScanLength   int
	// WriterThreads dedicates the first N threads to pure writes while the
	// rest follow ReadFraction (readwhilewriting).
	WriterThreads int
	// MultiGetBatch > 0 turns each read operation into a MultiGet of that
	// many keys drawn from the key distribution (readmulti). Against a
	// sharded server this exercises the cross-shard fan-out/gather path.
	MultiGetBatch int
	// Seed drives all workload randomness.
	Seed int64
	// ColumnFamilies routes traffic across named families: each key id maps
	// deterministically onto one of the listed families (id mod len), like
	// db_bench's -num_column_families. Empty (or "default"/"") entries mean
	// the default family; an empty list is the single-family workload.
	// Families missing from the DB are created at run start.
	ColumnFamilies []string
}

// Validate checks the spec.
func (s *Spec) Validate() error {
	if s.Threads < 1 {
		return fmt.Errorf("bench: threads must be >= 1")
	}
	if s.OpsPerThread < 1 {
		return fmt.Errorf("bench: ops_per_thread must be >= 1")
	}
	if s.KeySpace == 0 {
		return fmt.Errorf("bench: key space must be non-empty")
	}
	if s.ReadFraction < 0 || s.ReadFraction > 1 {
		return fmt.Errorf("bench: read fraction %v out of [0,1]", s.ReadFraction)
	}
	if s.ScanFraction < 0 || s.ScanFraction+s.ReadFraction > 1 {
		return fmt.Errorf("bench: scan fraction %v out of range", s.ScanFraction)
	}
	if s.ScanFraction > 0 && s.ScanLength < 1 {
		return fmt.Errorf("bench: scan_length must be >= 1 with scans")
	}
	if s.WriterThreads < 0 || s.WriterThreads > s.Threads {
		return fmt.Errorf("bench: writer_threads %d out of [0,%d]", s.WriterThreads, s.Threads)
	}
	if s.ValueSize <= 0 {
		return fmt.Errorf("bench: value_size must be positive")
	}
	if s.MultiGetBatch < 0 {
		return fmt.Errorf("bench: multiget batch %d negative", s.MultiGetBatch)
	}
	return nil
}

// TotalOps returns the op count across threads.
func (s *Spec) TotalOps() int64 { return int64(s.Threads) * s.OpsPerThread }

// families is the column-family list traffic is split across ("" = default).
func (s *Spec) families() []string {
	if len(s.ColumnFamilies) == 0 {
		return []string{""}
	}
	return s.ColumnFamilies
}

// dist builds the key distribution for one thread.
func (s *Spec) dist() KeyDist {
	if s.Zipfian {
		theta := s.ZipfTheta
		if theta == 0 {
			theta = 0.99
		}
		return NewZipfDist(s.KeySpace, theta)
	}
	return UniformDist{N: s.KeySpace}
}

// The paper's four workloads (§5.1), at a configurable scale. scale=1.0
// reproduces the paper's op counts (50M/10M/25M); the experiments default
// to a laptop-friendly fraction.

// FillRandom writes num KV pairs in random key order (write-intensive).
func FillRandom(num int64, valueSize int, seed int64) *Spec {
	return &Spec{
		Name:         "fillrandom",
		Threads:      1,
		OpsPerThread: num,
		KeySize:      16,
		ValueSize:    valueSize,
		KeySpace:     uint64(num),
		ReadFraction: 0,
		Seed:         seed,
	}
}

// ReadRandom reads `reads` keys uniformly from a database preloaded with
// `preload` KV pairs (read-intensive).
func ReadRandom(reads int64, preload uint64, valueSize int, seed int64) *Spec {
	return &Spec{
		Name:         "readrandom",
		Threads:      1,
		OpsPerThread: reads,
		KeySize:      16,
		ValueSize:    valueSize,
		KeySpace:     preload,
		ReadFraction: 1,
		Preload:      preload,
		Seed:         seed,
	}
}

// ReadRandomWriteRandom runs two threads interleaving reads and writes
// (db_bench default is 90% reads).
func ReadRandomWriteRandom(totalOps int64, valueSize int, seed int64) *Spec {
	keySpace := uint64(totalOps)
	if keySpace < 1 {
		keySpace = 1
	}
	return &Spec{
		Name:         "readrandomwriterandom",
		Threads:      2,
		OpsPerThread: totalOps / 2,
		KeySize:      16,
		ValueSize:    valueSize,
		KeySpace:     keySpace,
		ReadFraction: 0.9,
		// db_bench runs readrandomwriterandom against a fully loaded key
		// space (the paper preloads the database before the mixed run).
		Preload: keySpace,
		Seed:    seed,
	}
}

// Mixgraph approximates the Facebook production mix (Cao et al. FAST'20)
// the paper configures at 50% reads / 50% writes: Zipfian hot keys and
// Pareto value sizes.
func Mixgraph(totalOps int64, valueSize int, seed int64) *Spec {
	keySpace := uint64(totalOps)
	if keySpace < 1 {
		keySpace = 1
	}
	return &Spec{
		Name:         "mixgraph",
		Threads:      1,
		OpsPerThread: totalOps,
		KeySize:      16,
		ValueSize:    valueSize,
		KeySpace:     keySpace,
		ReadFraction: 0.5,
		Zipfian:      true,
		ZipfTheta:    0.99,
		Preload:      keySpace / 2,
		ParetoValues: true,
		Seed:         seed,
	}
}

// FillSeq writes num KV pairs in ascending key order — the cheapest load
// path (no compaction overlap).
func FillSeq(num int64, valueSize int, seed int64) *Spec {
	s := FillRandom(num, valueSize, seed)
	s.Name = "fillseq"
	s.Sequential = true
	return s
}

// Overwrite rewrites random keys of a fully preloaded key space.
func Overwrite(num int64, valueSize int, seed int64) *Spec {
	s := FillRandom(num, valueSize, seed)
	s.Name = "overwrite"
	s.Preload = s.KeySpace
	return s
}

// SeekRandom seeks to random keys and iterates scanLength entries.
func SeekRandom(num int64, scanLength, valueSize int, seed int64) *Spec {
	keySpace := uint64(num)
	if keySpace < 1 {
		keySpace = 1
	}
	return &Spec{
		Name:         "seekrandom",
		Threads:      1,
		OpsPerThread: num,
		KeySize:      16,
		ValueSize:    valueSize,
		KeySpace:     keySpace,
		ScanFraction: 1,
		ScanLength:   scanLength,
		Preload:      keySpace,
		Seed:         seed,
	}
}

// ReadMulti reads `reads` batches of `batch` keys each via MultiGet from a
// preloaded database — the MultiGet (and, over the network, cross-shard
// fan-out/gather) counterpart of readrandom.
func ReadMulti(reads int64, preload uint64, batch, valueSize int, seed int64) *Spec {
	s := ReadRandom(reads, preload, valueSize, seed)
	s.Name = "readmulti"
	s.MultiGetBatch = batch
	return s
}

// ReadWhileWriting runs one dedicated writer thread against reader threads,
// db_bench style.
func ReadWhileWriting(totalOps int64, valueSize int, seed int64) *Spec {
	keySpace := uint64(totalOps)
	if keySpace < 1 {
		keySpace = 1
	}
	return &Spec{
		Name:          "readwhilewriting",
		Threads:       3,
		OpsPerThread:  totalOps / 3,
		KeySize:       16,
		ValueSize:     valueSize,
		KeySpace:      keySpace,
		ReadFraction:  1, // non-writer threads read only
		WriterThreads: 1,
		Preload:       keySpace,
		Seed:          seed,
	}
}

// WorkloadByName builds a workload by db_bench name. num scales the
// operation count; valueSize is the base value size.
func WorkloadByName(name string, num int64, valueSize int, seed int64) (*Spec, error) {
	switch name {
	case "fillrandom", "FR", "fr":
		return FillRandom(num, valueSize, seed), nil
	case "fillseq":
		return FillSeq(num, valueSize, seed), nil
	case "overwrite":
		return Overwrite(num, valueSize, seed), nil
	case "readrandom", "RR", "rr":
		return ReadRandom(num, uint64(num)*5/2, valueSize, seed), nil
	case "readrandomwriterandom", "RRWR", "rrwr":
		return ReadRandomWriteRandom(num, valueSize, seed), nil
	case "mixgraph", "MG", "mixgraph50":
		return Mixgraph(num, valueSize, seed), nil
	case "seekrandom":
		return SeekRandom(num, 10, valueSize, seed), nil
	case "readmulti", "multireadrandom":
		return ReadMulti(num, uint64(num)*5/2, 8, valueSize, seed), nil
	case "readwhilewriting":
		return ReadWhileWriting(num, valueSize, seed), nil
	default:
		return nil, fmt.Errorf("bench: unknown workload %q", name)
	}
}

// paretoValueSize draws a bounded Pareto value size with the given mean-ish
// scale (db_bench mixgraph value_theta behaviour, simplified).
func paretoValueSize(r *rand.Rand, base int) int {
	// alpha chosen so the mean is ~1.5x the base with a heavy tail.
	const alpha = 2.0
	u := r.Float64()
	if u < 1e-9 {
		u = 1e-9
	}
	v := float64(base) * 0.7 / math.Pow(u, 1/alpha)
	n := int(v)
	if n < 16 {
		n = 16
	}
	if n > base*16 {
		n = base * 16
	}
	return n
}
