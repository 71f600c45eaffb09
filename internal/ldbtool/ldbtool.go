// Package ldbtool implements the guts of cmd/ldb, a RocksDB `ldb`-style
// administration tool for the engine: point reads/writes, range scans,
// database stats, OPTIONS inspection and manifest-level file listings.
// Logic lives here (testable); cmd/ldb is the thin CLI.
package ldbtool

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/ini"
	"repro/internal/lsm"
)

// Tool wraps an open database.
type Tool struct {
	DB  *lsm.DB
	Out io.Writer
	// cf is the column family commands operate on (nil = default family);
	// set with UseColumnFamily.
	cf *lsm.ColumnFamilyHandle
}

// Open opens the database at dir (must exist) for administration.
func Open(dir string, out io.Writer) (*Tool, error) {
	opts := lsm.DefaultOptions()
	opts.CreateIfMissing = false
	db, err := lsm.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	return &Tool{DB: db, Out: out}, nil
}

// Close releases the database.
func (t *Tool) Close() error { return t.DB.Close() }

// UseColumnFamily points subsequent get/put/delete/scan commands at a named
// family ("" or "default" resets to the default family).
func (t *Tool) UseColumnFamily(name string) error {
	if name == "" || name == lsm.DefaultColumnFamilyName {
		t.cf = nil
		return nil
	}
	h, err := t.DB.GetColumnFamily(name)
	if err != nil {
		return fmt.Errorf("ldb: column family %q not found (have: %s)",
			name, strings.Join(t.DB.ListColumnFamilies(), ", "))
	}
	t.cf = h
	return nil
}

// ListCFs prints the database's column families, one per line.
func (t *Tool) ListCFs() error {
	for _, name := range t.DB.ListColumnFamilies() {
		fmt.Fprintln(t.Out, name)
	}
	return nil
}

// Get prints the value for key, or reports absence.
func (t *Tool) Get(key string) error {
	v, err := t.DB.GetCF(nil, t.cf, []byte(key))
	if errors.Is(err, lsm.ErrNotFound) {
		return fmt.Errorf("ldb: key %q not found", key)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(t.Out, "%s\n", v)
	return nil
}

// Put writes key=value.
func (t *Tool) Put(key, value string) error {
	if err := t.DB.PutCF(nil, t.cf, []byte(key), []byte(value)); err != nil {
		return err
	}
	fmt.Fprintln(t.Out, "OK")
	return nil
}

// Delete removes key.
func (t *Tool) Delete(key string) error {
	if err := t.DB.DeleteCF(nil, t.cf, []byte(key)); err != nil {
		return err
	}
	fmt.Fprintln(t.Out, "OK")
	return nil
}

// Scan prints up to limit entries in [from, to) ("" bounds are open).
// Returns the number printed.
func (t *Tool) Scan(from, to string, limit int) (int, error) {
	if limit <= 0 {
		limit = 1 << 30
	}
	it := t.DB.NewIteratorCF(nil, t.cf)
	defer it.Close()
	if from == "" {
		it.SeekToFirst()
	} else {
		it.Seek([]byte(from))
	}
	n := 0
	for ; it.Valid() && n < limit; it.Next() {
		if to != "" && string(it.Key()) >= to {
			break
		}
		fmt.Fprintf(t.Out, "%s ==> %s\n", it.Key(), it.Value())
		n++
	}
	return n, it.Err()
}

// Stats prints the engine's rocksdb.stats property.
func (t *Tool) Stats() error {
	s, ok := t.DB.GetProperty("rocksdb.stats")
	if !ok {
		return fmt.Errorf("ldb: stats property unavailable")
	}
	fmt.Fprint(t.Out, s)
	return nil
}

// StatsHistory prints the retained periodic stats snapshots
// (rocksdb.stats.history): one block per stats_persist_period_sec capture,
// bounded by stats_history_buffer_size.
func (t *Tool) StatsHistory() error {
	s, ok := t.DB.GetProperty("rocksdb.stats.history")
	if !ok {
		return fmt.Errorf("ldb: stats.history property unavailable")
	}
	fmt.Fprint(t.Out, s)
	return nil
}

// LevelStats prints the per-level file table.
func (t *Tool) LevelStats() error {
	s, ok := t.DB.GetProperty("rocksdb.levelstats")
	if !ok {
		return fmt.Errorf("ldb: levelstats property unavailable")
	}
	fmt.Fprint(t.Out, s)
	return nil
}

// DumpOptions prints the database's effective OPTIONS file, including one
// CFOptions/TableOptions section pair per live column family.
func (t *Tool) DumpOptions() error {
	fmt.Fprint(t.Out, t.DB.Config().ToINI().String())
	return nil
}

// SetOptions applies knob=value changes to the running database without a
// reopen — the ldb face of DB.SetOptions, which routes them by registry
// scope (DB-wide vs column family); CF-scoped changes land on the family
// selected with UseColumnFamily. Only registry-mutable knobs are
// accepted; anything else errors naming the knob.
func (t *Tool) SetOptions(pairs []string) error {
	changes := make(map[string]string, len(pairs))
	for _, p := range pairs {
		name, value, ok := strings.Cut(p, "=")
		if !ok || name == "" {
			return fmt.Errorf("ldb: bad option %q (want name=value)", p)
		}
		changes[name] = value
	}
	if err := t.DB.SetOptions(t.cf, changes); err != nil {
		return err
	}
	fmt.Fprintf(t.Out, "OK (%d option(s) applied)\n", len(changes))
	return nil
}

// Compact runs a manual compaction of [from, to) on the selected column
// family ("" bounds are open). Manual compactions use the database's full
// max_subcompactions width.
func (t *Tool) Compact(from, to string) error {
	var start, end []byte
	if from != "" {
		start = []byte(from)
	}
	if to != "" {
		end = []byte(to)
	}
	if err := t.DB.CompactRangeCF(t.cf, start, end); err != nil {
		return err
	}
	fmt.Fprintln(t.Out, "OK")
	return nil
}

// Verify runs an offline integrity check of the (closed) database at dir:
// manifest parse, full SSTable read-back, version invariants, WAL replay.
// A non-empty cf restricts the table/invariant checks to that column family.
// Returns an error when any check fails, after printing the full report.
func Verify(dir string, out io.Writer, cf string) error {
	rep, err := lsm.CheckDBColumnFamily(dir, nil, cf)
	if err != nil {
		return fmt.Errorf("ldb: verify %s: %w", dir, err)
	}
	fmt.Fprintf(out, "manifest:    %s\n", rep.ManifestName)
	fmt.Fprintf(out, "tables:      %d/%d ok\n", rep.TablesOK, rep.Tables)
	fmt.Fprintf(out, "wal files:   %d (%d records", rep.WALs, rep.WALRecords)
	if rep.WALDroppedBytes > 0 {
		fmt.Fprintf(out, ", %d torn/corrupt tail bytes", rep.WALDroppedBytes)
	}
	fmt.Fprintln(out, ")")
	for _, o := range rep.Orphans {
		fmt.Fprintf(out, "orphan:      %s (on disk, not referenced)\n", o)
	}
	for _, is := range rep.Issues {
		fmt.Fprintf(out, "ISSUE:       %s\n", is)
	}
	if !rep.OK() {
		return fmt.Errorf("ldb: verify %s: %d issue(s) found", dir, len(rep.Issues))
	}
	fmt.Fprintln(out, "OK")
	return nil
}

// Repair rebuilds the manifest of the (closed) database at dir from the
// surviving SSTables and reports every file salvaged or quarantined. A
// non-empty cf salvages the tables into that (re-created) column family
// instead of the default one.
func Repair(dir string, out io.Writer, cf string) error {
	rep, err := lsm.RepairDBColumnFamily(dir, nil, cf)
	if err != nil {
		return fmt.Errorf("ldb: repair %s: %w", dir, err)
	}
	for _, t := range rep.Tables {
		if t.Err != nil {
			fmt.Fprintf(out, "quarantined: %s -> %s.bad (%v)\n", t.OldName, t.OldName, t.Err)
		} else {
			fmt.Fprintf(out, "salvaged:    %s -> %s (%d entries, max seq %d)\n",
				t.OldName, t.NewName, t.Entries, t.MaxSeq)
		}
	}
	fmt.Fprintf(out, "manifest:    %s (last seq %d)\n", rep.NewManifest, rep.LastSeq)
	fmt.Fprintf(out, "tables:      %d salvaged, %d quarantined\n", rep.Salvaged, rep.Quarantined)
	if rep.WALs > 0 {
		fmt.Fprintf(out, "wal files:   %d left in place (%d records replay on next open)\n",
			rep.WALs, rep.WALRecords)
	}
	fmt.Fprintln(out, "OK")
	return nil
}

// DiffOptions loads two OPTIONS files and prints their differing keys.
func DiffOptions(out io.Writer, pathA, pathB string) error {
	a, err := ini.Load(pathA)
	if err != nil {
		return fmt.Errorf("ldb: %s: %w", pathA, err)
	}
	b, err := ini.Load(pathB)
	if err != nil {
		return fmt.Errorf("ldb: %s: %w", pathB, err)
	}
	diffs := ini.Diff(a, b)
	if len(diffs) == 0 {
		fmt.Fprintln(out, "no differences")
		return nil
	}
	for _, d := range diffs {
		fmt.Fprintln(out, d)
	}
	return nil
}

// ListOptions prints the engine's option registry (name, section, default,
// honored/recorded, deprecated) — the tuning surface the LLM sees.
func ListOptions(out io.Writer, filter string) {
	specs := lsm.AllOptionSpecs()
	sort.Slice(specs, func(i, j int) bool {
		if specs[i].Section != specs[j].Section {
			return specs[i].Section < specs[j].Section
		}
		return specs[i].Name < specs[j].Name
	})
	for _, s := range specs {
		if filter != "" && !strings.Contains(s.Name, filter) {
			continue
		}
		kind := "recorded"
		if s.Honored() {
			kind = "honored"
		}
		if s.Mutable {
			kind += ",mutable"
		}
		if s.Deprecated {
			kind += ",deprecated"
		}
		fmt.Fprintf(out, "%-45s %-32s default=%-12s [%s] %s\n",
			s.Name, s.Section, s.Default, kind, s.Help)
	}
}
