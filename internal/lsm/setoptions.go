package lsm

import (
	"fmt"
	"sort"
)

// This file implements dynamic options: RocksDB's DB::SetOptions. Each column
// family's effective options live behind an atomic.Pointer (cf.opts), and the
// default family's snapshot is also the DB's: DB-scoped knobs are read from
// it alone (DB.options()). Consumers — flush sizing and triggering,
// compaction picking and the slot scheduler, the write-stall controller, the
// write thread, the block cache, the stats pumps, both OS and Sim envs —
// read the current snapshot at each decision point. Applying a change is
// clone → mutate via the registry (syntax, bounds, mutability) → Validate →
// swap, all under db.mu, so a snapshot is always internally consistent and
// readers never see a half-applied change.

// SetOptions changes mutable options on a running database, like RocksDB's
// DB::SetOptions and its DB-scoped twin in one call. Each name goes where
// ConfigSet.Owner puts it: a DB-scoped name (background slots, stall rates,
// stats periods, perf_level, ...) to the DB snapshot, any other name to the
// family h names (nil = the default family). Unknown names
// (ErrUnknownOption), immutable knobs (ErrImmutableOption), bad syntax or a
// snapshot failing Options.Validate reject the whole call; on success both
// snapshots are swapped under one db.mu hold and the LOG gets one
// set_options line per knob, old -> new.
func (db *DB) SetOptions(h *ColumnFamilyHandle, changes map[string]string) error {
	if len(changes) == 0 {
		return nil
	}
	// Deterministic apply and LOG order regardless of map iteration.
	names := make([]string, 0, len(changes))
	for name := range changes {
		names = append(names, name)
	}
	sort.Strings(names)

	// db.mu is held across validate, swap and side effects: concurrent
	// readers are lock-free (they load the old or the new snapshot, never a
	// torn one), and concurrent SetOptions calls serialize.
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	cf, err := db.resolveCFLocked(h)
	if err != nil {
		return err
	}
	// One clone per home: the DB snapshot, and the family's unless that is
	// the same (default) one.
	curDB, curCF := db.options(), cf.options()
	next := NewConfigSet(curDB.Clone())
	if cf != db.defaultCF {
		next.Others = []CFConfig{{Name: cf.name, Options: curCF.Clone()}}
	}
	applied := make([]string, 0, len(names)) // "where: name old -> new", sorted by name
	for _, name := range names {
		spec, ok := LookupOption(name)
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownOption, name)
		}
		if !spec.Mutable {
			return fmt.Errorf("%w: %q cannot be changed without a reopen", ErrImmutableOption, spec.Name)
		}
		o := next.Owner(cf.name, name)
		old, err := o.GetByName(spec.Name)
		if err != nil {
			return err
		}
		if err := o.SetByName(name, changes[name]); err != nil {
			return err
		}
		now, err := o.GetByName(spec.Name)
		if err != nil {
			return err
		}
		where := fmt.Sprintf("cf %q", cf.name)
		if dbScoped(name) {
			where = "db"
		}
		applied = append(applied, fmt.Sprintf("%s: %s %s -> %s", where, spec.Name, old, now))
	}
	if err := next.Validate(); err != nil {
		return fmt.Errorf("lsm: SetOptions rejected: %w", err)
	}

	db.defaultCF.opts.Store(next.Default)
	if cf != db.defaultCF {
		cf.opts.Store(next.Others[0].Options)
	}
	db.applyOptionSideEffectsLocked(curDB, next.Default)
	for _, ch := range applied {
		db.infoLog.logf("[set_options] %s", ch)
	}
	return nil
}

// applyOptionSideEffectsLocked propagates a swapped DB snapshot into the
// subsystems that hold derived state rather than re-reading options per
// decision: block-cache capacity, perf level, the stats timers and history
// budget, and the background schedulers (new triggers or slots in any
// family may create or unblock work immediately).
func (db *DB) applyOptionSideEffectsLocked(old, next *Options) {
	// Block cache: the DB-wide cache is sized by the default family's
	// block_cache. Resize live with eviction; a DB opened with no cache
	// (no_block_cache or size 0) stays cacheless until reopen.
	if db.bcache != nil && !next.NoBlockCache && next.BlockCacheSize != old.BlockCacheSize {
		db.bcache.SetCapacity(next.BlockCacheSize)
	}
	if next.PerfLevel != old.PerfLevel {
		db.perf.SetLevel(next.perfLevel())
		db.iostats.SetLevel(next.perfLevel())
	}
	if next.StatsHistoryBufferSize != old.StatsHistoryBufferSize {
		db.history.setLimit(next.StatsHistoryBufferSize)
	}
	if next.StatsDumpPeriodSec != old.StatsDumpPeriodSec ||
		next.StatsPersistPeriodSec != old.StatsPersistPeriodSec {
		db.armStatsTimersLocked(next)
	}
	// New triggers, buffer sizes or slot counts may make work schedulable
	// (or unblock a stalled writer judging against the new thresholds).
	db.maybeScheduleFlushLocked(false)
	db.maybeScheduleCompactionLocked()
	db.bgCond.Broadcast()
}
