package bench

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/lsm"
)

func TestKeyGen(t *testing.T) {
	for _, width := range []int{16, 20, 24} {
		g := newKeyGen(width)
		for _, id := range []uint64{0, 42, 1e16 + 7, math.MaxUint64} {
			// The rendering keys had when they were made with fmt: an id
			// wider than the key keeps its last width digits.
			s := fmt.Sprintf("%0*d", width, id)
			want := s[len(s)-width:]
			if got := g.Key(id); string(got) != want {
				t.Errorf("width %d: Key(%d) = %q, want %q", width, id, got, want)
			}
		}
		if avg := testing.AllocsPerRun(100, func() { g.Key(math.MaxUint64) }); avg != 0 {
			t.Errorf("width %d: Key allocates %.2f/op, want 0", width, avg)
		}
	}
	g2 := newKeyGen(4) // clamps to 16
	if len(g2.Key(1)) != 16 {
		t.Fatal("min width not enforced")
	}
}

func TestValueGen(t *testing.T) {
	g := newValueGen(rand.New(rand.NewSource(1)), 0.5)
	v1 := append([]byte(nil), g.Value(100)...)
	v2 := g.Value(100)
	if len(v1) != 100 || len(v2) != 100 {
		t.Fatal("wrong lengths")
	}
	if string(v1) == string(v2) {
		t.Fatal("values should differ between calls")
	}
}

func TestUniformDist(t *testing.T) {
	d := uniformDist{N: 100}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if id := d.Next(r); id >= 100 {
			t.Fatalf("id %d out of range", id)
		}
	}
	var _ keyDist = d
}

func TestZipfDistSkew(t *testing.T) {
	const n = 100000
	d := newZipfDist(n, 0.99)
	r := rand.New(rand.NewSource(7))
	counts := make(map[uint64]int)
	const draws = 200000
	for i := 0; i < draws; i++ {
		id := d.Next(r)
		if id >= n {
			t.Fatalf("id %d out of range", id)
		}
		counts[id]++
	}
	// Skew: the top 1% of distinct keys drawn should hold a large share.
	var max int
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < draws/100 {
		t.Fatalf("hottest key only %d/%d draws; distribution not skewed", max, draws)
	}
	if len(counts) < 100 {
		t.Fatalf("only %d distinct keys drawn", len(counts))
	}
}

func TestSequentialDist(t *testing.T) {
	d := &sequentialDist{}
	for i := uint64(0); i < 5; i++ {
		if got := d.Next(nil); got != i {
			t.Fatalf("Next = %d, want %d", got, i)
		}
	}
}

func TestParetoValueSize(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var sum int
	for i := 0; i < 10000; i++ {
		n := paretoValueSize(r, 400)
		if n < 16 || n > 400*16 {
			t.Fatalf("size %d out of bounds", n)
		}
		sum += n
	}
	mean := sum / 10000
	if mean < 200 || mean > 1200 {
		t.Fatalf("mean value size %d implausible", mean)
	}
}

func TestSpecValidate(t *testing.T) {
	good := FillRandom(100, 100, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []*Spec{
		{Name: "x", Threads: 0, OpsPerThread: 1, KeySpace: 1, ValueSize: 1},
		{Name: "x", Threads: 1, OpsPerThread: 0, KeySpace: 1, ValueSize: 1},
		{Name: "x", Threads: 1, OpsPerThread: 1, KeySpace: 0, ValueSize: 1},
		{Name: "x", Threads: 1, OpsPerThread: 1, KeySpace: 1, ValueSize: 0},
		{Name: "x", Threads: 1, OpsPerThread: 1, KeySpace: 1, ValueSize: 1, ReadFraction: 2},
	}
	for i, s := range bads {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestWorkloadByName(t *testing.T) {
	for _, name := range []string{"fillrandom", "readrandom", "readrandomwriterandom", "mixgraph"} {
		s, err := WorkloadByName(name, 1000, 100, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := WorkloadByName("ycsb", 10, 10, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// openBenchDB opens a sim DB for runner tests.
func openBenchDB(t testing.TB, dev *device.Model, prof device.Profile, opts *lsm.Options) (*lsm.DB, *lsm.SimEnv) {
	t.Helper()
	env := lsm.NewSimEnv(dev, prof, 11)
	if opts == nil {
		opts = lsm.DBBenchDefaults()
	}
	opts = opts.Clone()
	opts.Env = env
	db, err := lsm.Open("/bench", opts)
	if err != nil {
		t.Fatal(err)
	}
	return db, env
}

func TestRunnerFillRandom(t *testing.T) {
	opts := lsm.DBBenchDefaults()
	opts.WriteBufferSize = 256 << 10
	db, _ := openBenchDB(t, device.NVMe(), device.Profile4C8G(), opts)
	defer db.Close()
	spec := FillRandom(20000, 400, 3)
	rep, err := (&Runner{DB: db, Spec: spec}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 20000 {
		t.Fatalf("ops = %d", rep.Ops)
	}
	if rep.Throughput <= 0 || rep.Elapsed <= 0 {
		t.Fatalf("throughput=%v elapsed=%v", rep.Throughput, rep.Elapsed)
	}
	if rep.Write.Count() != 20000 || rep.Read.Count() != 0 {
		t.Fatalf("histogram counts: w=%d r=%d", rep.Write.Count(), rep.Read.Count())
	}
	if rep.Stats["rocksdb.flush.count"] == 0 {
		t.Fatal("no flushes with a 256KiB buffer and 8MB+ of writes")
	}
	out := rep.Format()
	for _, want := range []string{"fillrandom", "ops/sec", "Microseconds per write", "Level files"} {
		if !contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRunnerReadRandom(t *testing.T) {
	opts := lsm.DBBenchDefaults()
	opts.WriteBufferSize = 256 << 10
	db, _ := openBenchDB(t, device.NVMe(), device.Profile4C8G(), opts)
	defer db.Close()
	spec := ReadRandom(5000, 10000, 400, 3)
	rep, err := (&Runner{DB: db, Spec: spec}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Read.Count() != 5000 || rep.Write.Count() != 0 {
		t.Fatalf("histogram counts: w=%d r=%d", rep.Write.Count(), rep.Read.Count())
	}
	if rep.ReadMisses != 0 {
		t.Fatalf("%d read misses against a fully preloaded space", rep.ReadMisses)
	}
}

func TestRunnerMixedAndMonitor(t *testing.T) {
	opts := lsm.DBBenchDefaults()
	opts.WriteBufferSize = 256 << 10
	db, _ := openBenchDB(t, device.NVMe(), device.Profile4C8G(), opts)
	defer db.Close()
	spec := ReadRandomWriteRandom(20000, 200, 3)
	ticks := 0
	rep, err := (&Runner{DB: db, Spec: spec, Monitor: func(p Progress) bool {
		ticks++
		return true
	}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Read.Count() == 0 || rep.Write.Count() == 0 {
		t.Fatalf("mixed run missing a side: w=%d r=%d", rep.Write.Count(), rep.Read.Count())
	}
	frac := float64(rep.Read.Count()) / float64(rep.Ops)
	if frac < 0.85 || frac > 0.95 {
		t.Fatalf("read fraction = %v, want ~0.9", frac)
	}
}

func TestRunnerMonitorAbort(t *testing.T) {
	opts := lsm.DBBenchDefaults()
	opts.WriteBufferSize = 256 << 10
	db, _ := openBenchDB(t, device.SATAHDD(), device.Profile2C4G(), opts)
	defer db.Close()
	spec := FillRandom(200000, 400, 3)
	rep, err := (&Runner{DB: db, Spec: spec, Monitor: func(p Progress) bool {
		return p.Elapsed < 2*time.Second // abort after 2 virtual seconds
	}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Aborted {
		t.Fatal("monitor abort not honored")
	}
	if rep.Ops >= spec.TotalOps() {
		t.Fatal("run completed despite abort")
	}
}

func TestRunnerDeterministic(t *testing.T) {
	run := func() *Report {
		opts := lsm.DBBenchDefaults()
		opts.WriteBufferSize = 256 << 10
		db, _ := openBenchDB(t, device.NVMe(), device.Profile4C8G(), opts)
		defer db.Close()
		rep, err := (&Runner{DB: db, Spec: Mixgraph(10000, 200, 5)}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Throughput != b.Throughput || a.Elapsed != b.Elapsed ||
		a.Read.P99() != b.Read.P99() || a.Write.P99() != b.Write.P99() {
		t.Fatalf("simulation not deterministic:\n%s\n%s", a.Summary(), b.Summary())
	}
}

func TestRunnerHDDSlowerThanNVMe(t *testing.T) {
	run := func(dev *device.Model) *Report {
		opts := lsm.DBBenchDefaults()
		opts.WriteBufferSize = 512 << 10
		db, _ := openBenchDB(t, dev, device.Profile4C4G(), opts)
		defer db.Close()
		rep, err := (&Runner{DB: db, Spec: FillRandom(30000, 400, 5)}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	nvme := run(device.NVMe())
	hdd := run(device.SATAHDD())
	if hdd.Throughput >= nvme.Throughput {
		t.Fatalf("HDD (%.0f ops/s) should be slower than NVMe (%.0f ops/s)",
			hdd.Throughput, nvme.Throughput)
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// openOSBenchDB opens a DB on the real filesystem for parallel benchmarks
// (b.RunParallel needs real goroutine concurrency, not the sim event loop).
func openOSBenchDB(b *testing.B, tweak func(*lsm.Options)) *lsm.DB {
	b.Helper()
	opts := lsm.DefaultOptions()
	opts.WriteBufferSize = 8 << 20
	opts.DisableInfoLog = true
	if tweak != nil {
		tweak(opts)
	}
	db, err := lsm.Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkWriteParallel measures the group-commit write pipeline under
// contending goroutines. -cpu 1,4,8 varies the writer count; toggle the
// pipeline knobs via the closure to compare configurations.
func BenchmarkWriteParallel(b *testing.B) {
	for _, cfg := range []struct {
		name       string
		concurrent bool
		pipelined  bool
	}{
		{"serialized", false, false},
		{"concurrent", true, false},
		{"concurrent-pipelined", true, true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			db := openOSBenchDB(b, func(o *lsm.Options) {
				o.AllowConcurrentMemtableWrite = cfg.concurrent
				o.EnablePipelinedWrite = cfg.pipelined
				// Microbench the write pipeline itself, not the compaction
				// backlog it eventually builds.
				o.WriteBufferSize = 64 << 20
				o.DisableAutoCompactions = true
			})
			defer db.Close()
			var ctr int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// keyGen reuses its buffer: one per worker goroutine, and
				// one WriteBatch reused via Clear (Write leaves the batch
				// reusable once it returns).
				kg := newKeyGen(16)
				rng := rand.New(rand.NewSource(atomicAdd(&ctr, 1)))
				val := make([]byte, 128)
				wo := lsm.DefaultWriteOptions()
				batch := lsm.NewWriteBatch()
				for pb.Next() {
					batch.Clear()
					for k := 0; k < 4; k++ {
						batch.Put(kg.Key(rng.Uint64()%1e6), val)
					}
					if err := db.Write(wo, batch); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkGetParallel measures concurrent point reads against a preloaded
// memtable + L0 working set (the lock-free skiplist read path).
func BenchmarkGetParallel(b *testing.B) {
	db := openOSBenchDB(b, nil)
	defer db.Close()
	kg := newKeyGen(16)
	wo := lsm.DefaultWriteOptions()
	const keys = 50000
	for i := 0; i < keys; i += 512 {
		batch := lsm.NewWriteBatch()
		for j := i; j < i+512 && j < keys; j++ {
			batch.Put(kg.Key(uint64(j)), make([]byte, 128))
		}
		if err := db.Write(wo, batch); err != nil {
			b.Fatal(err)
		}
	}
	var ctr int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// keyGen reuses its buffer: one per worker goroutine.
		kg := newKeyGen(16)
		rng := rand.New(rand.NewSource(atomicAdd(&ctr, 1)))
		for pb.Next() {
			if _, err := db.Get(nil, kg.Key(rng.Uint64()%keys)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func atomicAdd(p *int64, d int64) int64 { return atomic.AddInt64(p, d) }
