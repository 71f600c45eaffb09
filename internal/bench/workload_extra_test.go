package bench

import (
	"testing"

	"repro/internal/device"
	"repro/internal/lsm"
)

func TestFillSeqWritesInOrder(t *testing.T) {
	opts := lsm.DBBenchDefaults()
	opts.WriteBufferSize = 256 << 10
	db, _ := openBenchDB(t, device.NVMe(), device.Profile4C8G(), opts)
	defer db.Close()
	rep, err := (&Runner{DB: db, Spec: FillSeq(10000, 100, 3)}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 10000 {
		t.Fatalf("ops = %d", rep.Ops)
	}
	// Sequential fill produces strictly ordered keys: every key readable,
	// and the whole space densely packed from 0.
	for _, id := range []uint64{0, 1, 4999, 9999} {
		if _, err := db.Get(nil, newKeyGen(16).Key(id)); err != nil {
			t.Fatalf("key %d missing: %v", id, err)
		}
	}
}

func TestFillSeqFasterThanFillRandom(t *testing.T) {
	run := func(spec *Spec) float64 {
		opts := lsm.DBBenchDefaults()
		opts.WriteBufferSize = 256 << 10
		db, _ := openBenchDB(t, device.NVMe(), device.Profile4C8G(), opts)
		defer db.Close()
		rep, err := (&Runner{DB: db, Spec: spec}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep.Throughput
	}
	seq := run(FillSeq(30000, 200, 3))
	rnd := run(FillRandom(30000, 200, 3))
	if seq <= rnd {
		t.Fatalf("fillseq (%.0f) should beat fillrandom (%.0f): no compaction overlap", seq, rnd)
	}
}

func TestOverwrite(t *testing.T) {
	opts := lsm.DBBenchDefaults()
	opts.WriteBufferSize = 256 << 10
	db, _ := openBenchDB(t, device.NVMe(), device.Profile4C8G(), opts)
	defer db.Close()
	rep, err := (&Runner{DB: db, Spec: Overwrite(5000, 100, 3)}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Write.Count() != 5000 {
		t.Fatalf("writes = %d", rep.Write.Count())
	}
}

func TestSeekRandom(t *testing.T) {
	opts := lsm.DBBenchDefaults()
	opts.WriteBufferSize = 256 << 10
	db, _ := openBenchDB(t, device.NVMe(), device.Profile4C8G(), opts)
	defer db.Close()
	rep, err := (&Runner{DB: db, Spec: SeekRandom(2000, 10, 100, 3)}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Read.Count() != 2000 || rep.Write.Count() != 0 {
		t.Fatalf("histograms: r=%d w=%d", rep.Read.Count(), rep.Write.Count())
	}
	// Scans touched real data: bytes ~ ops x scanLength x entry size.
	if rep.Bytes < 2000*10*50 {
		t.Fatalf("scan bytes = %d, scans did not iterate", rep.Bytes)
	}
	if db.Statistics().Get(lsm.TickerSeekCount) < 2000 {
		t.Fatal("seek ticker not incremented")
	}
}

func TestReadWhileWriting(t *testing.T) {
	opts := lsm.DBBenchDefaults()
	opts.WriteBufferSize = 256 << 10
	db, _ := openBenchDB(t, device.NVMe(), device.Profile4C8G(), opts)
	defer db.Close()
	spec := ReadWhileWriting(9000, 100, 3)
	rep, err := (&Runner{DB: db, Spec: spec}).Run()
	if err != nil {
		t.Fatal(err)
	}
	// One writer thread of three: ~1/3 writes, ~2/3 reads.
	wfrac := float64(rep.Write.Count()) / float64(rep.Ops)
	if wfrac < 0.30 || wfrac > 0.37 {
		t.Fatalf("write fraction = %v, want ~1/3", wfrac)
	}
	if rep.ReadMisses > rep.Read.Count()/10 {
		t.Fatalf("too many read misses (%d/%d) against a preloaded space",
			rep.ReadMisses, rep.Read.Count())
	}
}

func TestNewWorkloadsByName(t *testing.T) {
	for _, name := range []string{"fillseq", "overwrite", "seekrandom", "readwhilewriting"} {
		s, err := WorkloadByName(name, 1000, 100, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestSpecValidateScans(t *testing.T) {
	s := SeekRandom(100, 10, 100, 1)
	s.ScanLength = 0
	if err := s.Validate(); err == nil {
		t.Fatal("scan without length accepted")
	}
	s2 := FillRandom(100, 100, 1)
	s2.ScanFraction = 0.5
	s2.ReadFraction = 0.8
	if err := s2.Validate(); err == nil {
		t.Fatal("fractions over 1 accepted")
	}
	s3 := FillRandom(100, 100, 1)
	s3.WriterThreads = 5
	if err := s3.Validate(); err == nil {
		t.Fatal("writer threads beyond thread count accepted")
	}
}
