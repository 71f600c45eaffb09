package trace

import (
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/lsm"
)

func simDB(t *testing.T) *lsm.DB {
	t.Helper()
	env := lsm.NewSimEnv(device.NVMe(), device.Profile4C8G(), 5)
	opts := lsm.DBBenchDefaults()
	opts.Env = env
	opts.WriteBufferSize = 256 << 10
	db, err := lsm.Open("/trace-db", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestWriterFormat(t *testing.T) {
	var b strings.Builder
	w := NewWriter(&b)
	w.Put("k1", 100)
	w.Get("k2")
	w.Delete("k3")
	w.Scan("k4", 10)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "P k1 100\nG k2\nD k3\nS k4 10\n"
	if b.String() != want {
		t.Fatalf("trace = %q", b.String())
	}
	if w.Ops() != 4 {
		t.Fatalf("ops = %d", w.Ops())
	}
}

func TestGenerateMatchesSpecMix(t *testing.T) {
	spec := bench.ReadRandomWriteRandom(2000, 100, 7)
	var b strings.Builder
	n, err := Generate(spec, &b)
	if err != nil {
		t.Fatal(err)
	}
	if n != spec.TotalOps() {
		t.Fatalf("generated %d ops, want %d", n, spec.TotalOps())
	}
	gets := strings.Count(b.String(), "G ")
	frac := float64(gets) / float64(n)
	if frac < 0.85 || frac > 0.95 {
		t.Fatalf("read fraction in trace = %v, want ~0.9", frac)
	}
}

func TestGenerateInvalidSpec(t *testing.T) {
	if _, err := Generate(&bench.Spec{}, &strings.Builder{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestReplayRoundTrip(t *testing.T) {
	// Generate a fill trace, replay it, then verify the data landed.
	spec := bench.FillRandom(3000, 100, 7)
	var b strings.Builder
	if _, err := Generate(spec, &b); err != nil {
		t.Fatal(err)
	}
	db := simDB(t)
	rep, err := Replay(db, strings.NewReader(b.String()), 7)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 3000 || rep.Write.Count() != 3000 {
		t.Fatalf("replayed %d ops, %d writes", rep.Ops, rep.Write.Count())
	}
	if rep.Throughput <= 0 {
		t.Fatal("no throughput measured")
	}
	// Keys from the trace are now readable.
	firstKey := strings.Fields(strings.SplitN(b.String(), "\n", 2)[0])[1]
	if _, err := db.Get(nil, []byte(firstKey)); err != nil {
		t.Fatalf("trace data missing: %v", err)
	}
}

func TestReplayMixedOpsAndMisses(t *testing.T) {
	db := simDB(t)
	trace := `
# comment lines and blanks are skipped

P key-a 64
P key-b 64
G key-a
G key-missing
D key-a
G key-a
S key-a 5
`
	rep, err := Replay(db, strings.NewReader(trace), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 7 {
		t.Fatalf("ops = %d", rep.Ops)
	}
	// Misses: key-missing, and key-a after its delete.
	if rep.ReadMisses != 2 {
		t.Fatalf("misses = %d", rep.ReadMisses)
	}
	if rep.Read.Count() != 4 || rep.Write.Count() != 3 {
		t.Fatalf("histograms r=%d w=%d", rep.Read.Count(), rep.Write.Count())
	}
}

func TestReplayMalformed(t *testing.T) {
	db := simDB(t)
	for _, bad := range []string{"X key", "P key", "P key notanum", "S key 0", "G", "M", "PUT key 5"} {
		if _, err := Replay(db, strings.NewReader(bad+"\n"), 1); err == nil {
			t.Errorf("malformed line %q accepted", bad)
		}
	}
}

func TestReplayDeterministicInSim(t *testing.T) {
	spec := bench.Mixgraph(2000, 100, 9)
	var b strings.Builder
	if _, err := Generate(spec, &b); err != nil {
		t.Fatal(err)
	}
	run := func() float64 {
		db := simDB(t)
		rep, err := Replay(db, strings.NewReader(b.String()), 9)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Throughput
	}
	if a, c := run(), run(); a != c {
		t.Fatalf("replay not deterministic: %v vs %v", a, c)
	}
}

// TestReplayMultiGet: an M record is one read operation over all its keys.
func TestReplayMultiGet(t *testing.T) {
	db := simDB(t)
	rep, err := Replay(db, strings.NewReader("P key-a 64\nM key-a key-b key-c\n"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 2 || rep.Read.Count() != 1 || rep.ReadMisses != 2 {
		t.Fatalf("ops=%d reads=%d misses=%d, want 2/1/2", rep.Ops, rep.Read.Count(), rep.ReadMisses)
	}
}

// TestReplayReproducesRunner: Generate writes down the stream the live runner
// executes and Replay feeds it to the same driver, so on identical simulated
// databases a one-thread workload and the replay of its trace are the same
// run — operations, bytes, misses and virtual time. (Preload is not part of a
// trace, so it is off; the replay seed is the one the runner's first thread
// draws its values from.)
func TestReplayReproducesRunner(t *testing.T) {
	for _, name := range []string{"fillrandom", "fillseq", "overwrite", "readrandom", "readrandomwriterandom",
		"mixgraph", "seekrandom", "readmulti", "readwhilewriting"} {
		t.Run(name, func(t *testing.T) {
			spec, err := bench.WorkloadByName(name, 3000, 100, 7)
			if err != nil {
				t.Fatal(err)
			}
			spec.OpsPerThread, spec.Threads, spec.Preload = spec.TotalOps(), 1, 0
			if name == "readwhilewriting" {
				spec.ReadFraction, spec.WriterThreads = 0.5, 0 // one thread: keep both sides of the mix
			}
			live, err := (&bench.Runner{DB: simDB(t), Spec: spec}).Run()
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			if _, err := Generate(spec, &b); err != nil {
				t.Fatal(err)
			}
			replayed, err := Replay(simDB(t), strings.NewReader(b.String()), spec.Seed*7919+1)
			if err != nil {
				t.Fatal(err)
			}
			type outcome struct {
				ops, bytes, misses, reads, writes int64
				elapsed                           time.Duration
			}
			of := func(r *bench.Report) outcome {
				return outcome{r.Ops, r.Bytes, r.ReadMisses, r.Read.Count(), r.Write.Count(), r.Elapsed}
			}
			if of(live) != of(replayed) {
				t.Fatalf("replay diverged from the live run:\nlive   %+v\nreplay %+v", of(live), of(replayed))
			}
		})
	}
}

// TestGenerateInterleavesThreads: a multi-thread spec's trace carries every
// thread's stream, dedicated writers included.
func TestGenerateInterleavesThreads(t *testing.T) {
	spec := bench.ReadWhileWriting(3000, 100, 7) // one writer thread of three
	var b strings.Builder
	n, err := Generate(spec, &b)
	if err != nil {
		t.Fatal(err)
	}
	if puts := int64(strings.Count(b.String(), "P ")); n != spec.TotalOps() || puts != n/3 {
		t.Fatalf("%d records, %d puts; want %d records, a third of them puts", n, puts, spec.TotalOps())
	}
}
