package lsm

import "repro/internal/device"

// Experiment scaling. The paper runs 50M-operation workloads against
// real hardware; the reproduction runs the same system at 1/scale size:
// operation counts, host memory, and every byte-dimensioned option are
// divided by the same factor while device speeds, value sizes and option
// *names/values shown to the tuning loop* stay real. Because all capacity
// ratios (data/page-cache, data/write-buffer, level fill fractions) are
// preserved, flush/compaction/stall dynamics keep the paper's shape at a
// laptop-friendly cost. See DESIGN.md §2.

// Scaled returns a copy of o with byte-dimensioned options divided by
// scale (floored to validity). scale <= 1 returns a plain clone.
func (o *Options) Scaled(scale int64) *Options {
	c := o.Clone()
	if scale <= 1 {
		return c
	}
	div := func(v int64, floor int64) int64 {
		if v <= 0 {
			return v // 0 / -1 sentinels keep their meaning
		}
		v /= scale
		if v < floor {
			v = floor
		}
		return v
	}
	c.WriteBufferSize = div(c.WriteBufferSize, 64<<10)
	c.MaxTotalWALSize = div(c.MaxTotalWALSize, 64<<10)
	c.TargetFileSizeBase = div(c.TargetFileSizeBase, 64<<10)
	c.MaxBytesForLevelBase = div(c.MaxBytesForLevelBase, c.TargetFileSizeBase)
	c.MaxCompactionBytes = div(c.MaxCompactionBytes, 1<<20)
	c.SoftPendingCompactionBytesLimit = div(c.SoftPendingCompactionBytesLimit, 1<<20)
	c.HardPendingCompactionBytesLimit = div(c.HardPendingCompactionBytesLimit, 2<<20)
	c.BlockCacheSize = div(c.BlockCacheSize, 64<<10)
	c.BytesPerSync = div(c.BytesPerSync, 4<<10)
	c.WALBytesPerSync = div(c.WALBytesPerSync, 4<<10)
	c.CompactionReadaheadSize = div(c.CompactionReadaheadSize, 64<<10)
	return c
}

// NewScaledSimEnv builds a simulation environment whose host memory, OS
// reserve and writeback watermark are divided by scale, pairing with
// Options.Scaled to run the paper's setup at reduced size.
func NewScaledSimEnv(dev *device.Model, prof device.Profile, scale int64, seed int64) *SimEnv {
	if scale < 1 {
		scale = 1
	}
	p := prof
	p.MemoryBytes /= scale
	e := NewSimEnv(dev, p, seed)
	e.OSReserve = simOSReserve / scale
	e.DirtyBurst = simDirtyBurst / scale
	if e.DirtyBurst < 256<<10 {
		e.DirtyBurst = 256 << 10
	}
	return e
}
