package lsm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// buildCheckDB writes two generations of keys across two flushed L0 tables
// and returns the directory. Latest values: a=v1, b=v2, c=v2, d=v2.
func buildCheckDB(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "db")
	opts := DefaultOptions()
	opts.Env = NewOSEnv()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	wo := DefaultWriteOptions()
	for _, kv := range [][2]string{{"a", "v1"}, {"b", "v1"}, {"c", "v1"}} {
		if err := db.Put(wo, []byte(kv[0]), []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, kv := range [][2]string{{"b", "v2"}, {"c", "v2"}, {"d", "v2"}} {
		if err := db.Put(wo, []byte(kv[0]), []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestCheckDBCleanAndCorrupt(t *testing.T) {
	dir := buildCheckDB(t)
	rep, err := CheckDB(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Tables < 2 || rep.TablesOK != rep.Tables {
		t.Fatalf("clean CheckDB = %+v (issues %v)", rep, rep.Issues)
	}

	// Flip a byte in the middle of one table: the full read-back must see it.
	env := NewOSEnv()
	names, err := env.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	var sst string
	for _, n := range names {
		if kind, _ := parseFileName(n); kind == fileKindTable {
			sst = filepath.Join(dir, n)
			break
		}
	}
	if sst == "" {
		t.Fatal("no table file found")
	}
	size, err := env.FileSize(sst)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewFaultInjectionEnv(env, 1).CorruptSyncedBytes(sst, size/3, 1); err != nil {
		t.Fatal(err)
	}
	rep, err = CheckDB(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("CheckDB missed a corrupted table")
	}
	found := false
	for _, is := range rep.Issues {
		if is.File == filepath.Base(sst) && errors.Is(is.Err, ErrCorruption) {
			found = true
		}
	}
	if !found {
		t.Fatalf("issues = %v, want corruption in %s", rep.Issues, filepath.Base(sst))
	}
}

// TestCURRENTNamingNonManifestIsCorruption: Open and CheckDB read CURRENT
// through one reader, so a CURRENT that names a WAL is ErrCorruption from
// both.
func TestCURRENTNamingNonManifestIsCorruption(t *testing.T) {
	dir := buildCheckDB(t)
	if err := os.WriteFile(currentFileName(dir), []byte("000001.log\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Env = NewOSEnv()
	if db, err := Open(dir, opts); !errors.Is(err, ErrCorruption) {
		if err == nil {
			db.Close()
		}
		t.Fatalf("Open with CURRENT naming a WAL: err = %v, want ErrCorruption", err)
	}
	if _, err := CheckDB(dir, nil); !errors.Is(err, ErrCorruption) {
		t.Fatalf("CheckDB with CURRENT naming a WAL: err = %v, want ErrCorruption", err)
	}
}

func TestRepairDBRebuildsLostManifest(t *testing.T) {
	dir := buildCheckDB(t)
	env := NewOSEnv()

	// Destroy the version state entirely.
	names, err := env.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if kind, _ := parseFileName(n); kind == fileKindManifest || kind == fileKindCurrent {
			if err := env.Remove(filepath.Join(dir, n)); err != nil {
				t.Fatal(err)
			}
		}
	}
	opts := DefaultOptions()
	opts.Env = NewOSEnv()
	opts.CreateIfMissing = false
	if _, err := Open(dir, opts); err == nil {
		t.Fatal("open succeeded with no CURRENT")
	}

	rep, err := RepairDB(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Salvaged != 2 || rep.Quarantined != 0 {
		t.Fatalf("repair = %+v, want 2 salvaged", rep)
	}

	db, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open after repair: %v", err)
	}
	defer db.Close()
	want := map[string]string{"a": "v1", "b": "v2", "c": "v2", "d": "v2"}
	for k, v := range want {
		got, err := db.Get(nil, []byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("Get(%s) after repair = %q, %v; want %q", k, got, err, v)
		}
	}
	if crep, err := CheckDB(dir, nil); err != nil || !crep.OK() {
		// The DB is open, but quiescent: CheckDB must still pass.
		t.Fatalf("CheckDB after repair: %v, issues %v", err, crep.Issues)
	}
}

func TestRepairDBQuarantinesCorruptTable(t *testing.T) {
	dir := buildCheckDB(t)
	env := NewOSEnv()
	names, err := env.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Tables were flushed in order: the lower-numbered one holds generation
	// 1 (a,b,c = v1). Wreck the generation-2 table and delete the manifest.
	var tables []uint64
	for _, n := range names {
		if kind, num := parseFileName(n); kind == fileKindTable {
			tables = append(tables, num)
		} else if kind == fileKindManifest || kind == fileKindCurrent {
			if err := env.Remove(filepath.Join(dir, n)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(tables) != 2 {
		t.Fatalf("tables = %v, want 2", tables)
	}
	gen2 := tables[0]
	if tables[1] > gen2 {
		gen2 = tables[1]
	}
	victim := tableFileName(dir, gen2)
	size, err := env.FileSize(victim)
	if err != nil {
		t.Fatal(err)
	}
	fenv := NewFaultInjectionEnv(env, 1)
	if err := fenv.CorruptSyncedBytes(victim, 0, size); err != nil {
		t.Fatal(err)
	}

	rep, err := RepairDB(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Salvaged != 1 || rep.Quarantined != 1 {
		t.Fatalf("repair = %+v, want 1 salvaged + 1 quarantined", rep)
	}
	if !env.FileExists(victim + ".bad") {
		t.Fatal("corrupt table not renamed to .bad")
	}

	opts := DefaultOptions()
	opts.Env = NewOSEnv()
	opts.CreateIfMissing = false
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open after repair: %v", err)
	}
	defer db.Close()
	// Generation 2 is gone; generation 1 survives.
	for _, k := range []string{"a", "b", "c"} {
		if v, err := db.Get(nil, []byte(k)); err != nil || string(v) != "v1" {
			t.Fatalf("Get(%s) = %q, %v; want v1", k, v, err)
		}
	}
	if _, err := db.Get(nil, []byte("d")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(d) = %v, want ErrNotFound (lived only in the wrecked table)", err)
	}
}

func TestRepairDBRecencyOrdering(t *testing.T) {
	// Three generations of the same key; repair must renumber so the newest
	// version still wins after the manifest is rebuilt.
	dir := filepath.Join(t.TempDir(), "db")
	opts := DefaultOptions()
	opts.Env = NewOSEnv()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for gen := 1; gen <= 3; gen++ {
		if err := db.Put(DefaultWriteOptions(), []byte("k"), []byte(fmt.Sprintf("v%d", gen))); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	env := NewOSEnv()
	names, _ := env.List(dir)
	for _, n := range names {
		if kind, _ := parseFileName(n); kind == fileKindManifest || kind == fileKindCurrent {
			env.Remove(filepath.Join(dir, n))
		}
	}
	if rep, err := RepairDB(dir, nil); err != nil || rep.Salvaged != 3 {
		t.Fatalf("repair: %v, %+v", err, rep)
	}
	opts2 := DefaultOptions()
	opts2.Env = NewOSEnv()
	opts2.CreateIfMissing = false
	db2, err := Open(dir, opts2)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if v, err := db2.Get(nil, []byte("k")); err != nil || string(v) != "v3" {
		t.Fatalf("Get(k) = %q, %v; want v3 (newest generation)", v, err)
	}
}
