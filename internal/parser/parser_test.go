package parser

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func changeMap(r Result) map[string]string {
	m := make(map[string]string)
	for _, c := range r.Changes {
		m[c.Name] = c.Value
	}
	return m
}

func TestParseIniBlock(t *testing.T) {
	resp := "Here are my recommendations.\n\n```ini\n[DBOptions]\n  max_background_jobs=4\n  bytes_per_sync=1048576\n[CFOptions \"default\"]\n  write_buffer_size=33554432\n```\nApply and re-run."
	r := Parse(resp)
	if !r.HadCodeBlock {
		t.Fatal("code block not detected")
	}
	want := map[string]string{
		"max_background_jobs": "4",
		"bytes_per_sync":      "1048576",
		"write_buffer_size":   "33554432",
	}
	if got := changeMap(r); !reflect.DeepEqual(got, want) {
		t.Fatalf("changes = %v, want %v", got, want)
	}
}

func TestParseProseBullets(t *testing.T) {
	resp := `I suggest the following:

* set max_background_flushes = 2
- set wal_bytes_per_sync=1048576
• strict_bytes_per_sync = true
Also consider ` + "`max_write_buffer_number` = 3" + ` for bursts.`
	r := Parse(resp)
	got := changeMap(r)
	for k, v := range map[string]string{
		"max_background_flushes": "2",
		"wal_bytes_per_sync":     "1048576",
		"strict_bytes_per_sync":  "true",
	} {
		if got[k] != v {
			t.Errorf("%s = %q, want %q (all: %v)", k, got[k], v, got)
		}
	}
}

func TestParseInterleaved(t *testing.T) {
	resp := "First, bump the cache:\n```\nblock_cache_size=134217728\n```\nThen in prose: set compaction_readahead_size = 4194304 as well.\n```ini\n[DBOptions]\nmax_background_jobs=6\n```"
	r := Parse(resp)
	got := changeMap(r)
	if len(got) != 3 {
		t.Fatalf("changes = %v", got)
	}
	if got["compaction_readahead_size"] != "4194304" {
		t.Fatalf("prose assignment missed: %v", got)
	}
}

func TestParseQuotedAndColonForms(t *testing.T) {
	r := Parse("compression: snappy\nfilter_policy = \"bloomfilter:10:false\"\n")
	got := changeMap(r)
	if got["compression"] != "snappy" {
		t.Fatalf("colon form: %v", got)
	}
	if got["filter_policy"] != "bloomfilter:10:false" {
		t.Fatalf("quoted value: %v", got)
	}
}

func TestParseDuplicateLastWins(t *testing.T) {
	r := Parse("a_opt=1\na_opt=2\n")
	if got := changeMap(r); got["a_opt"] != "2" || len(r.Changes) != 1 {
		t.Fatalf("changes = %v", r.Changes)
	}
}

func TestParseIgnoresProseWords(t *testing.T) {
	r := Parse("Note: this matters.\nRationale: speed.\nIteration: 3\nreal_option=5\n")
	got := changeMap(r)
	if len(got) != 1 || got["real_option"] != "5" {
		t.Fatalf("changes = %v", got)
	}
}

func TestParseRejectedLines(t *testing.T) {
	resp := "```\ngood_option=1\nbad option = some value with spaces\n```"
	r := Parse(resp)
	if len(r.Changes) != 1 {
		t.Fatalf("changes = %v", r.Changes)
	}
	// The malformed assignment inside a code block is reported.
	if len(r.Rejected) == 0 {
		t.Log("no rejected lines (acceptable: line didn't match suspicious pattern)")
	}
}

func TestParseNothing(t *testing.T) {
	r := Parse("The current configuration already reflects my recommendations; keep it as is.")
	if len(r.Changes) != 0 {
		t.Fatalf("phantom changes: %v", r.Changes)
	}
}

func TestParseSectionHeadersSkipped(t *testing.T) {
	r := Parse("```ini\n[TableOptions/BlockBasedTable \"default\"]\nblock_size=8192\n```")
	got := changeMap(r)
	if len(got) != 1 || got["block_size"] != "8192" {
		t.Fatalf("changes = %v", got)
	}
}

func cfChangeMap(r Result) map[string]string {
	m := make(map[string]string)
	for _, c := range r.Changes {
		m[c.CF+"/"+c.Name] = c.Value
	}
	return m
}

// A response containing several CFOptions sections must scope each
// assignment to its enclosing family, with DBOptions lines left unscoped.
func TestParseMultipleCFSections(t *testing.T) {
	resp := "Tune each family separately:\n```ini\n[DBOptions]\n  max_background_jobs=6\n[CFOptions \"default\"]\n  write_buffer_size=33554432\n[CFOptions \"hot\"]\n  write_buffer_size=134217728\n  level0_file_num_compaction_trigger=2\n[TableOptions/BlockBasedTable \"hot\"]\n  block_size=8192\n[CFOptions \"cold keys\"]\n  write_buffer_size=8388608\n```"
	r := Parse(resp)
	want := map[string]string{
		"/max_background_jobs":                   "6",
		"default/write_buffer_size":              "33554432",
		"hot/write_buffer_size":                  "134217728",
		"hot/level0_file_num_compaction_trigger": "2",
		"hot/block_size":                         "8192",
		"cold keys/write_buffer_size":            "8388608",
	}
	if got := cfChangeMap(r); !reflect.DeepEqual(got, want) {
		t.Fatalf("changes = %v, want %v", got, want)
	}
}

// The same option may be set in two families without the entries colliding;
// within one family the last assignment still wins.
func TestParseCFDedupPerFamily(t *testing.T) {
	resp := "```ini\n[CFOptions \"hot\"]\nwrite_buffer_size=1\nwrite_buffer_size=2\n[CFOptions \"cold\"]\nwrite_buffer_size=3\n```"
	r := Parse(resp)
	got := cfChangeMap(r)
	if len(r.Changes) != 2 || got["hot/write_buffer_size"] != "2" || got["cold/write_buffer_size"] != "3" {
		t.Fatalf("changes = %v", r.Changes)
	}
}

// A DBOptions (or any unquoted) header after a CFOptions section resets the
// scope back to unscoped.
func TestParseCFScopeReset(t *testing.T) {
	resp := "```ini\n[CFOptions \"hot\"]\nwrite_buffer_size=4194304\n[DBOptions]\nmax_background_jobs=4\n```"
	r := Parse(resp)
	got := cfChangeMap(r)
	if got["hot/write_buffer_size"] != "4194304" || got["/max_background_jobs"] != "4" {
		t.Fatalf("changes = %v", r.Changes)
	}
}

// A CF name the database does not have still parses — vetting the family's
// existence is the safeguard layer's job, not the parser's.
func TestParseNonexistentCFStillExtracted(t *testing.T) {
	r := Parse("```ini\n[CFOptions \"no_such_family\"]\nwrite_buffer_size=65536\n```")
	if len(r.Changes) != 1 || r.Changes[0].CF != "no_such_family" {
		t.Fatalf("changes = %v", r.Changes)
	}
}

// Prose assignments never carry a family scope.
func TestParseProseUnscoped(t *testing.T) {
	r := Parse("For the hot family, set write_buffer_size to 1048576.")
	if len(r.Changes) != 1 || r.Changes[0].CF != "" {
		t.Fatalf("changes = %v", r.Changes)
	}
}

// TestQuickParseRoundTrip: changes rendered as an ini block always parse
// back exactly.
func TestQuickParseRoundTrip(t *testing.T) {
	names := []string{"write_buffer_size", "max_background_jobs", "bytes_per_sync",
		"compaction_readahead_size", "block_cache_size", "level0_stop_writes_trigger"}
	fn := func(vals []uint32) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > len(names) {
			vals = vals[:len(names)]
		}
		var b strings.Builder
		b.WriteString("Recommended:\n```ini\n[DBOptions]\n")
		want := map[string]string{}
		for i, v := range vals {
			val := strings.TrimLeft(strings.Repeat("1", 1)+"", "") // keep simple
			_ = val
			sv := strings.TrimSpace(strings.Repeat(" ", i%3) + itoa(v))
			b.WriteString("  " + names[i] + "=" + sv + "\n")
			want[names[i]] = sv
		}
		b.WriteString("```\n")
		got := changeMap(Parse(b.String()))
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func itoa(v uint32) string {
	const digits = "0123456789"
	if v == 0 {
		return "0"
	}
	var buf [10]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return string(buf[i:])
}
