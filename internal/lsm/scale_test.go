package lsm

import (
	"testing"
	"testing/quick"

	"repro/internal/device"
)

func TestScaledOptions(t *testing.T) {
	o := DefaultOptions()
	o.BytesPerSync = 1 << 20
	o.WALBytesPerSync = 1 << 20
	s := o.Scaled(40)
	if s.WriteBufferSize != (64<<20)/40 {
		t.Fatalf("write buffer = %d", s.WriteBufferSize)
	}
	if s.MaxBytesForLevelBase != (256<<20)/40 {
		t.Fatalf("level base = %d", s.MaxBytesForLevelBase)
	}
	if s.BytesPerSync != (1<<20)/40 || s.WALBytesPerSync != (1<<20)/40 {
		t.Fatalf("sync windows = %d/%d", s.BytesPerSync, s.WALBytesPerSync)
	}
	// Non-byte options are untouched.
	if s.MaxBackgroundJobs != o.MaxBackgroundJobs || s.Level0FileNumCompactionTrigger != o.Level0FileNumCompactionTrigger {
		t.Fatal("non-byte options scaled")
	}
	// Zero sentinels keep their meaning.
	if s.MaxTotalWALSize != 0 {
		t.Fatal("sentinel scaled")
	}
	// Scale 1 is a plain clone.
	c := o.Scaled(1)
	if c.WriteBufferSize != o.WriteBufferSize {
		t.Fatal("scale 1 changed values")
	}
}

// TestQuickScaledOptionsValid: scaled options always pass validation, for
// any scale.
func TestQuickScaledOptionsValid(t *testing.T) {
	fn := func(scaleRaw uint16) bool {
		scale := int64(scaleRaw)%5000 + 1
		s := DBBenchDefaults().Scaled(scale)
		return s.Validate() == nil
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewScaledSimEnv(t *testing.T) {
	e := NewScaledSimEnv(device.NVMe(), device.Profile4C8G(), 40, 1)
	if e.Profile.MemoryBytes != 8*device.GiB/40 {
		t.Fatalf("memory = %d", e.Profile.MemoryBytes)
	}
	if e.OSReserve != simOSReserve/40 {
		t.Fatalf("reserve = %d", e.OSReserve)
	}
	if e.DirtyBurst < 256<<10 {
		t.Fatalf("dirty burst floor violated: %d", e.DirtyBurst)
	}
	// Scale < 1 clamps.
	e1 := NewScaledSimEnv(device.NVMe(), device.Profile4C8G(), 0, 1)
	if e1.Profile.MemoryBytes != 8*device.GiB {
		t.Fatal("scale 0 should clamp to 1")
	}
}

func TestScaledPreservesCapacityRatios(t *testing.T) {
	o := DBBenchDefaults()
	s := o.Scaled(50)
	// data/write-buffer and level ratios must be preserved (the heart of
	// the scaling substitution).
	origRatio := float64(o.MaxBytesForLevelBase) / float64(o.WriteBufferSize)
	scaledRatio := float64(s.MaxBytesForLevelBase) / float64(s.WriteBufferSize)
	// Integer division introduces sub-ppm rounding; the ratio must be
	// preserved to within it.
	if scaledRatio < origRatio*0.999 || scaledRatio > origRatio*1.001 {
		t.Fatalf("level/buffer ratio changed: %v -> %v", origRatio, scaledRatio)
	}
	if o.MaxBytesForLevelMultiplier != s.MaxBytesForLevelMultiplier {
		t.Fatal("multiplier changed")
	}
}
