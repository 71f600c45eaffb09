package lsm

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite internal/lsm/testdata option goldens")

// goldenMultiCF is a three-family configuration with one changed value per
// section kind and family, a recorded-only change, and an alias.
func goldenMultiCF(t testing.TB) *ConfigSet {
	t.Helper()
	cs := NewConfigSet(DefaultOptions())
	set := func(cf, name, value string) {
		if err := cs.CF(cf).SetByName(name, value); err != nil {
			t.Fatalf("%s: SetByName(%s, %s): %v", cf, name, value, err)
		}
	}
	set("default", "max_background_jobs", "6")
	set("default", "use_direct_reads", "true")
	set("default", "write_buffer_size", "33554432")
	set("default", "block_cache_size", "134217728")
	set("hot", "compression", "snappy")
	set("hot", "bloom_bits_per_key", "10")
	set("hot", "whole_key_filtering", "false")
	set("cold archive", "max_bytes_for_level_multiplier", "8")
	set("cold archive", "ttl", "86400")
	set("cold archive", "block_size", "16384")
	return cs
}

// TestOptionGoldens pins the rendered option surface: the OPTIONS documents
// and the mutable list were recorded before the registry became one table and
// must not move; the honored list is that recording minus the eleven knobs no
// engine code reads. Regenerate with
// `go test ./internal/lsm -run TestOptionGoldens -update`.
func TestOptionGoldens(t *testing.T) {
	lines := func(names []string) string { return strings.Join(names, "\n") + "\n" }
	for name, got := range map[string]string{
		"options_default.ini": DBBenchDefaults().ToINI().String(),
		"options_multicf.ini": goldenMultiCF(t).ToINI().String(),
		"mutable_options.txt": lines(MutableOptionNames()),
		"honored_options.txt": lines(HonoredOptionNames()),
	} {
		path := filepath.Join("testdata", name)
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s differs from the golden:\n%s", name, firstDiff(string(want), got))
		}
	}
}

// firstDiff names the first line at which two texts part.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d: want %q\n        got  %q", i+1, wl, gl)
		}
	}
	return ""
}
