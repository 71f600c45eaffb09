package lsm

import (
	"fmt"
	"sort"
)

// This file implements dynamic options: RocksDB's DB::SetOptions /
// DB::SetDBOptions. Each column family's effective options live behind an
// atomic.Pointer (cf.opts); consumers — flush sizing and triggering,
// compaction picking and the slot scheduler, the write-stall controller, the
// write thread, the block cache, the stats pumps, both OS and Sim envs —
// read the current snapshot at each decision point. Applying a change is
// clone → mutate via the registry (syntax, bounds, mutability) → Validate →
// swap, all under db.mu, so a snapshot is always internally consistent and
// readers never see a half-applied change.

// setOptionsScope distinguishes the two public entry points.
type setOptionsScope int

const (
	scopeCF setOptionsScope = iota
	scopeDB
)

// SetOptions changes mutable column-family-scoped options (and table options
// such as block_cache) on a running database, like rocksdb::DB::SetOptions.
// A nil handle targets the default family. All changes are validated against
// the registry first — unknown names (ErrUnknownOption), immutable knobs
// (ErrImmutableOption), DB-scoped names (use SetDBOptions), bad syntax or a
// combination failing Options.Validate reject the whole call; on success the
// family's snapshot is swapped atomically and OnOptionsChanged fires with
// the old->new diff.
func (db *DB) SetOptions(h *ColumnFamilyHandle, changes map[string]string) error {
	return db.setOptions(h, changes, scopeCF)
}

// SetDBOptions changes mutable DB-scoped options (background slots, stall
// rates, stats periods, perf_level, ...) on a running database, like
// rocksdb::DB::SetDBOptions. DB-scoped knobs are read from the default
// family's snapshot, so this swaps that snapshot; per-family options are
// untouched.
func (db *DB) SetDBOptions(changes map[string]string) error {
	return db.setOptions(nil, changes, scopeDB)
}

// SplitOptionScopes partitions a mixed batch of option changes by registry
// section: DB-scoped names, and everything else. Unknown names land on the
// column-family side so the engine's own ErrUnknownOption names them.
func SplitOptionScopes(changes map[string]string) (dbScope, cfScope map[string]string) {
	dbScope = make(map[string]string)
	cfScope = make(map[string]string)
	for name, value := range changes {
		if spec, ok := LookupOption(name); ok && spec.Section == SectionDB {
			dbScope[name] = value
		} else {
			cfScope[name] = value
		}
	}
	return dbScope, cfScope
}

// SetOptionsByScope applies a mixed batch to a running database: DB-scoped
// names through SetDBOptions, then the rest through SetOptions against h
// (nil = the default family). Each scope group applies atomically.
func (db *DB) SetOptionsByScope(h *ColumnFamilyHandle, changes map[string]string) error {
	dbScope, cfScope := SplitOptionScopes(changes)
	if err := db.SetDBOptions(dbScope); err != nil {
		return err
	}
	return db.SetOptions(h, cfScope)
}

// setOptions is the shared apply path. It holds db.mu across validate, swap
// and side effects: concurrent readers are lock-free (they load the old or
// the new snapshot, never a torn one), and concurrent SetOptions calls
// serialize.
func (db *DB) setOptions(h *ColumnFamilyHandle, changes map[string]string, scope setOptionsScope) error {
	if len(changes) == 0 {
		return nil
	}
	// Deterministic apply and event order regardless of map iteration.
	names := make([]string, 0, len(changes))
	for name := range changes {
		names = append(names, name)
	}
	sort.Strings(names)

	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	cf, err := db.resolveCFLocked(h)
	if err != nil {
		return err
	}
	if scope == scopeDB && cf != db.defaultCF {
		return fmt.Errorf("lsm: SetDBOptions targets the DB, not a column family")
	}

	cur := cf.options()
	next := cur.Clone()
	applied := make([]OptionChange, 0, len(names))
	for _, name := range names {
		value := changes[name]
		spec, ok := LookupOption(name)
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownOption, name)
		}
		if !spec.Mutable {
			return fmt.Errorf("%w: %q cannot be changed without a reopen", ErrImmutableOption, spec.Name)
		}
		if scope == scopeDB && spec.Section != SectionDB {
			return fmt.Errorf("lsm: option %q is column-family-scoped; use SetOptions", spec.Name)
		}
		if scope == scopeCF && spec.Section == SectionDB {
			return fmt.Errorf("lsm: option %q is DB-scoped; use SetDBOptions", spec.Name)
		}
		old, err := next.GetByName(spec.Name)
		if err != nil {
			return err
		}
		if err := next.SetByName(name, value); err != nil {
			return err
		}
		now, err := next.GetByName(spec.Name)
		if err != nil {
			return err
		}
		applied = append(applied, OptionChange{Name: spec.Name, Old: old, New: now})
	}
	if err := next.Validate(); err != nil {
		return fmt.Errorf("lsm: SetOptions rejected: %w", err)
	}

	// Swap the snapshot and keep the persisted config view truthful.
	cf.opts.Store(next)
	if db.cfg != nil {
		if cf == db.defaultCF {
			db.cfg.Default = next
		} else {
			for i := range db.cfg.Others {
				if db.cfg.Others[i].Name == cf.name {
					db.cfg.Others[i].Options = next
					break
				}
			}
		}
	}
	db.applyOptionSideEffectsLocked(cf, cur, next)
	db.notifyOptionsChanged(OptionsChangedInfo{ColumnFamily: optionsEventCF(cf, scope), Changes: applied})
	return nil
}

// optionsEventCF names the family for the OnOptionsChanged event ("" for
// DB scope).
func optionsEventCF(cf *columnFamily, scope setOptionsScope) string {
	if scope == scopeDB {
		return ""
	}
	return cf.name
}

// applyOptionSideEffectsLocked propagates a swapped snapshot into the
// subsystems that hold derived state rather than re-reading options per
// decision: block-cache capacity, perf level, the stats timers and history
// budget, and the background schedulers (new triggers or slots may create or
// unblock work immediately).
func (db *DB) applyOptionSideEffectsLocked(cf *columnFamily, old, next *Options) {
	if cf == db.defaultCF {
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
	}
	// New triggers, buffer sizes or slot counts may make work schedulable
	// (or unblock a stalled writer judging against the new thresholds).
	db.maybeScheduleFlushLocked(false)
	db.maybeScheduleCompactionLocked()
	db.bgCond.Broadcast()
}
