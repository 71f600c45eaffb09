package lsm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// dumpAll renders every visible entry of one family as "key=value" lines;
// equivalence tests compare these dumps byte for byte.
func dumpAll(t testing.TB, db *DB, ro *ReadOptions, h *ColumnFamilyHandle) string {
	t.Helper()
	it := db.NewIteratorCF(ro, h)
	defer it.Close()
	var b strings.Builder
	for it.SeekToFirst(); it.Valid(); it.Next() {
		fmt.Fprintf(&b, "%s=%s\n", it.Key(), it.Value())
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// subcompactionWorkloadDumps drives a randomized workload (overwrites,
// deletes, mid-stream snapshot, several flushed L0 runs, a second column
// family), manually compacts everything at the given max_subcompactions
// width, and returns the post-compaction dumps: latest and snapshot-pinned
// views of the default family, plus the latest view of the aux family. The
// workload is seeded, so every call replays identical data and any
// difference between calls is the compactor's doing. maxOpenFiles sizes the
// table cache (-1 unlimited).
func subcompactionWorkloadDumps(t testing.TB, subs, maxOpenFiles int) (latest, atSnap, aux string) {
	opts := DefaultOptions()
	opts.WriteBufferSize = 64 << 10
	opts.TargetFileSizeBase = 64 << 10 // minimum: force multi-file outputs
	opts.MaxBytesForLevelBase = 256 << 10
	opts.MaxSubcompactions = subs
	opts.MaxOpenFiles = maxOpenFiles
	opts.DisableAutoCompactions = true // only the manual compaction merges
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	auxCF, err := db.CreateColumnFamily("aux", opts)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	wo := DefaultWriteOptions()
	var snap *Snapshot
	const ops = 6000
	for i := 0; i < ops; i++ {
		// Narrow key space: plenty of overwrites and cross-file duplicates.
		key := []byte(fmt.Sprintf("key%05d", rng.Intn(2000)))
		switch {
		case rng.Intn(5) == 0:
			err = db.Delete(wo, key)
		default:
			val := make([]byte, 50+rng.Intn(200))
			for j := range val {
				val[j] = byte('a' + rng.Intn(26))
			}
			err = db.Put(wo, key, val)
		}
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(3) == 0 {
			k := []byte(fmt.Sprintf("aux%05d", rng.Intn(500)))
			if err := db.PutCF(wo, auxCF, k, []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		// Several distinct sorted runs so the merge has real work.
		if i%1500 == 1499 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := db.FlushCF(auxCF); err != nil {
				t.Fatal(err)
			}
		}
		if i == ops/2 {
			snap = db.GetSnapshot() // held across the compaction
		}
	}
	defer db.ReleaseSnapshot(snap)

	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactRangeCF(auxCF, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Guard against a silent serial fallback: identical dumps prove nothing
	// if the parallel run never actually split a compaction.
	slices := db.stats.Get(TickerSubcompactionScheduled)
	compactions := db.stats.Get(TickerCompactCount)
	if subs > 1 && slices <= compactions {
		t.Fatalf("max_subcompactions=%d never split: %d slices across %d compactions", subs, slices, compactions)
	}
	if subs == 1 && slices != compactions {
		t.Fatalf("serial run recorded %d slices for %d compactions", slices, compactions)
	}

	ro := DefaultReadOptions()
	roSnap := DefaultReadOptions()
	roSnap.Snapshot = snap
	return dumpAll(t, db, ro, nil), dumpAll(t, db, roSnap, nil), dumpAll(t, db, ro, auxCF)
}

// TestSubcompactionEquivalence proves range-partitioned parallel compaction
// is observably identical to the serial merge: the same seeded workload
// compacted at max_subcompactions=1 and =4 yields byte-identical iterator
// dumps for the latest view, for a snapshot held across the compaction
// (older versions and tombstones at slice boundaries must survive
// identically), and for a second column family. Both widths also run with
// max_open_files=2, so the dumps' iterators walk the compacted tables
// through a table cache that keeps evicting the readers they let go of.
// Runs under -race via the race CI target.
func TestSubcompactionEquivalence(t *testing.T) {
	latest1, snap1, aux1 := subcompactionWorkloadDumps(t, 1, -1)
	if latest1 == "" || snap1 == "" {
		t.Fatal("workload produced empty dumps")
	}
	for _, c := range []struct{ subs, maxOpen int }{{4, -1}, {1, 2}, {4, 2}} {
		latest, snap, aux := subcompactionWorkloadDumps(t, c.subs, c.maxOpen)
		name := fmt.Sprintf("max_subcompactions=%d max_open_files=%d", c.subs, c.maxOpen)
		if latest != latest1 {
			t.Errorf("%s: latest view diverges from the serial unbounded run: %d bytes, want %d", name, len(latest), len(latest1))
		}
		if snap != snap1 {
			t.Errorf("%s: snapshot view diverges from the serial unbounded run: %d bytes, want %d", name, len(snap), len(snap1))
		}
		if aux != aux1 {
			t.Errorf("%s: aux family diverges from the serial unbounded run: %d bytes, want %d", name, len(aux), len(aux1))
		}
	}
}

// BenchmarkCompactionDrain measures the wall time to drain an L0 backlog by
// manual compaction at increasing subcompaction widths. Snappy compression
// keeps the merge CPU-bound enough that extra cores matter; the speedup at
// 4 vs 1 shows up on multi-core runners. sst_writes/drain is the Appends
// (one write(2) each on OSEnv) the drain makes to its output tables,
// sst_reads/drain the ReadAt calls (one pread(2) each) it makes to table
// files, and cpu_ms/drain the process's user plus system CPU time during
// the drain.
func BenchmarkCompactionDrain(b *testing.B) {
	for _, subs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("subcompactions=%d", subs), func(b *testing.B) {
			writes, reads, cpu := 0, 0, time.Duration(0)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				env := newCountingEnv(NewOSEnv())
				opts := DefaultOptions()
				opts.Env = env
				opts.WriteBufferSize = 256 << 10
				opts.TargetFileSizeBase = 64 << 10
				opts.MaxBytesForLevelBase = 256 << 10
				opts.Compression = SnappyCompression
				opts.MaxSubcompactions = subs
				opts.DisableAutoCompactions = true
				db, err := Open(b.TempDir(), opts)
				if err != nil {
					b.Fatal(err)
				}
				wo := DefaultWriteOptions()
				rng := rand.New(rand.NewSource(7))
				val := make([]byte, 256)
				for j := range val {
					val[j] = byte('a' + rng.Intn(26))
				}
				for op := 0; op < 24000; op++ {
					key := []byte(fmt.Sprintf("key%06d", rng.Intn(8000)))
					if err := db.Put(wo, key, val); err != nil {
						b.Fatal(err)
					}
					if op%4000 == 3999 {
						if err := db.Flush(); err != nil {
							b.Fatal(err)
						}
					}
				}
				before, cpuBefore := env.counts(".sst"), processCPU()
				b.StartTimer()
				if err := db.CompactRange(nil, nil); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				after := env.counts(".sst")
				writes += after.appends - before.appends
				reads += after.reads - before.reads
				cpu += processCPU() - cpuBefore
				db.Close()
			}
			b.ReportMetric(float64(writes)/float64(b.N), "sst_writes/drain")
			b.ReportMetric(float64(reads)/float64(b.N), "sst_reads/drain")
			b.ReportMetric(cpu.Seconds()*1e3/float64(b.N), "cpu_ms/drain")
		})
	}
}
