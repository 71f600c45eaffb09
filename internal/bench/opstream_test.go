package bench

import (
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/device"
	"repro/internal/lsm"
)

// issued is one call a target received.
type issued struct {
	kind byte
	key  string
	n    int // value length (P) or scan length (S)
}

// recTarget is a fake store that records what the measured phase asks of it.
type recTarget struct {
	mu  sync.Mutex
	ops []issued
}

func (t *recTarget) record(kind byte, key []byte, n int) {
	t.mu.Lock()
	t.ops = append(t.ops, issued{kind, string(key), n})
	t.mu.Unlock()
}

func (t *recTarget) get(dst []byte, _ int, key []byte) ([]byte, error) {
	t.record('G', key, 0)
	return dst, nil
}
func (t *recTarget) put(_ int, key, v []byte) error { t.record('P', key, len(v)); return nil }
func (t *recTarget) delete(_ int, key []byte) error { t.record('D', key, 0); return nil }
func (t *recTarget) scan(_ int, key []byte, n int) (int64, error) {
	t.record('S', key, n)
	return 0, nil
}
func (t *recTarget) multiGet(_ int, keys [][]byte) ([][]byte, []error) {
	for _, k := range keys {
		t.record('M', k, 0)
	}
	return make([][]byte, len(keys)), make([]error, len(keys))
}
func (t *recTarget) writeBatch([]batchEntry) error { return nil } // preload is not measured

// sliceSource replays a fixed op list, standing in for a parsed trace.
type sliceSource []Op

func (s *sliceSource) Next(op *Op) error {
	if len(*s) == 0 {
		return io.EOF
	}
	*op, *s = (*s)[0], (*s)[1:]
	return nil
}

// TestOneOpStream: for every named workload at one worker, the embedded
// runner under both clocks, the network runner's path and a replayed op list
// ask their target for the identical (kind, key, length) sequence — the one
// the spec's op source yields.
func TestOneOpStream(t *testing.T) {
	names := []string{"fillrandom", "fillseq", "overwrite", "readrandom", "readrandomwriterandom",
		"mixgraph", "seekrandom", "readmulti", "readwhilewriting"}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			spec, err := WorkloadByName(name, 600, 100, 9)
			if err != nil {
				t.Fatal(err)
			}
			spec.OpsPerThread, spec.Threads = spec.TotalOps(), 1
			if name == "readwhilewriting" {
				// One worker cannot be both: keep it a reader so the stream
				// has the spec's reads, and cover the writer share below.
				spec.WriterThreads = 0
			}

			// The reference: the op source itself, drained.
			var want []issued
			var trace sliceSource
			src := spec.Sources()[0]
			for op := (Op{}); src.Next(&op) == nil; {
				switch op.Kind {
				case 'M':
					op.Keys = [][][]byte{append([][]byte(nil), op.Keys[0]...)}
					for _, k := range op.Keys[0] {
						want = append(want, issued{'M', string(k), 0})
					}
				default:
					op.Key = append([]byte(nil), op.Key...)
					want = append(want, issued{op.Kind, string(op.Key), op.ValueLen + op.ScanLen})
				}
				trace = append(trace, op)
			}
			if int64(len(trace)) != spec.TotalOps() {
				t.Fatalf("source yielded %d ops, want %d", len(trace), spec.TotalOps())
			}

			simDB, _ := openBenchDB(t, device.NVMe(), device.Profile4C8G(), nil)
			defer simDB.Close()
			osOpts := lsm.DefaultOptions()
			osOpts.DisableInfoLog = true
			osDB, err := lsm.Open(t.TempDir(), osOpts)
			if err != nil {
				t.Fatal(err)
			}
			defer osDB.Close()

			paths := map[string]func(rec target) (*Report, error){
				"runner/sim":  func(rec target) (*Report, error) { return (&Runner{DB: simDB, Spec: spec}).run(rec) },
				"runner/wall": func(rec target) (*Report, error) { return (&Runner{DB: osDB, Spec: spec}).run(rec) },
				"netrunner": func(rec target) (*Report, error) {
					return (&NetRunner{Connections: 1, Pipeline: 1, Spec: spec}).run([]target{rec})
				},
				"replay/sim": func(rec target) (*Report, error) {
					src := append(sliceSource(nil), trace...)
					return measure(simDB, "replay", 0, []*worker{newWorker(&src, rec, rand.New(rand.NewSource(1)))}, nil)
				},
				"replay/wall": func(rec target) (*Report, error) {
					src := append(sliceSource(nil), trace...)
					return measure(osDB, "replay", 0, []*worker{newWorker(&src, rec, rand.New(rand.NewSource(1)))}, nil)
				},
			}
			for path, run := range paths {
				rec := &recTarget{}
				rep, err := run(rec)
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				if rep.Ops != spec.TotalOps() || rep.Errors != 0 {
					t.Errorf("%s: ops=%d errors=%d, want %d/0", path, rep.Ops, rep.Errors, spec.TotalOps())
				}
				if !reflect.DeepEqual(rec.ops, want) {
					t.Errorf("%s: issued a different sequence than the op source (%d vs %d calls; first %v vs %v)",
						path, len(rec.ops), len(want), head(rec.ops), head(want))
				}
			}
		})
	}
}

func head(ops []issued) []issued { return ops[:min(3, len(ops))] }

// TestWriterShareCarriesOver: laid out over any worker count, the spec's
// writer threads stay the same share of the workers.
func TestWriterShareCarriesOver(t *testing.T) {
	spec := ReadWhileWriting(9000, 100, 3) // 1 writer of 3 threads
	for _, tc := range []struct{ workers, writers int }{{3, 1}, {6, 2}, {4, 2}, {1, 1}, {32, 11}} {
		got := 0
		for _, w := range newWorkers(spec, tc.workers, func(int) target { return nil }) {
			if w.src.(*specSource).writer {
				got++
			}
		}
		if got != tc.writers {
			t.Errorf("%d workers: %d writers, want %d", tc.workers, got, tc.writers)
		}
	}
}

// TestErrorsCounted: operations the store fails are counted and printed, not
// booked as throughput (embedded) or as misses (network).
func TestErrorsCounted(t *testing.T) {
	t.Run("closed db", func(t *testing.T) {
		db, _ := openBenchDB(t, device.NVMe(), device.Profile4C8G(), nil)
		db.Close()
		rep, err := (&Runner{DB: db, Spec: FillRandom(100, 100, 3)}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors != 100 {
			t.Fatalf("errors = %d, want every one of 100 puts", rep.Errors)
		}
		if !strings.Contains(rep.Format(), "errors: 100 of 100") {
			t.Fatalf("report hides the failures:\n%s", rep.Format())
		}
	})
	t.Run("server gone mid-run", func(t *testing.T) {
		addr, stop := startStoppableKVServer(t, 1)
		spec := ReadRandomWriteRandom(40000, 64, 1)
		spec.Preload = 1000
		var once sync.Once
		rep, err := (&NetRunner{Addr: addr, Connections: 2, Pipeline: 2, Spec: spec,
			Monitor: func(Progress) bool { once.Do(stop); return true }}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors == 0 || rep.ReadMisses > rep.Ops-rep.Errors {
			t.Fatalf("errors=%d misses=%d of %d ops: failed requests were not counted as errors",
				rep.Errors, rep.ReadMisses, rep.Ops)
		}
		if !strings.Contains(rep.Format(), "errors: ") {
			t.Fatalf("report hides the failures:\n%s", rep.Format())
		}
	})
	t.Run("clean run prints no errors line", func(t *testing.T) {
		db, _ := openBenchDB(t, device.NVMe(), device.Profile4C8G(), nil)
		defer db.Close()
		rep, err := (&Runner{DB: db, Spec: FillRandom(100, 100, 3)}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors != 0 || strings.Contains(rep.Format(), "errors") {
			t.Fatalf("clean run reports errors:\n%s", rep.Format())
		}
	})
}

// TestMonitorOneAtATime: however many workers cross a progress tick together,
// the wall-clock driver lets one of them into the monitor at a time, and a
// false return stops every worker.
func TestMonitorOneAtATime(t *testing.T) {
	spec := FillRandom(400000, 16, 3)
	spec.Threads, spec.OpsPerThread = 8, 50000
	rec := &recTarget{}
	workers := newWorkers(spec, spec.Threads, func(int) target { return rec })
	var inside, calls atomic.Int32
	_, aborted, err := runWall(workers, func(p Progress) bool {
		if inside.Add(1) != 1 {
			t.Error("two workers inside the monitor at once")
		}
		runtime.Gosched()
		inside.Add(-1)
		return calls.Add(1) < 20
	})
	if err != nil || !aborted {
		t.Fatalf("aborted=%v err=%v, want an aborted run", aborted, err)
	}
	if n := int64(len(rec.ops)); n >= spec.TotalOps() {
		t.Fatalf("all %d ops ran despite the abort", n)
	}
}
