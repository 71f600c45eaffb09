package lsm

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestRegistryLookup(t *testing.T) {
	s, ok := LookupOption("write_buffer_size")
	if !ok || s.Section != SectionCF || !s.Honored() {
		t.Fatalf("write_buffer_size spec = %+v, %v", s, ok)
	}
	if _, ok := LookupOption("made_up_option"); ok {
		t.Fatal("unknown option resolved")
	}
	// Aliases resolve.
	s, ok = LookupOption("bloom_bits_per_key")
	if !ok || s.Name != "filter_policy" {
		t.Fatalf("alias = %+v, %v", s, ok)
	}
	if s, _ := LookupOption("block_cache_size"); s.Name != "block_cache" {
		t.Fatalf("block_cache_size alias = %+v", s)
	}
}

func TestRegistrySize(t *testing.T) {
	if n := len(AllOptionSpecs()); n != 148 {
		t.Fatalf("registry has %d options, want 148: the LLM-visible surface is pinned", n)
	}
}

// TestRegistryRows walks every row, honored and recorded: names and aliases
// are unique and resolve, a row's default passes its own validation and is
// what DefaultOptions renders, and setting the value GetByName returns is a
// no-op — from the defaults and from every family of a changed configuration.
func TestRegistryRows(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range AllOptionSpecs() {
		if seen[s.Name] {
			t.Errorf("duplicate option %q", s.Name)
		}
		seen[s.Name] = true
		if _, err := checkValue(&s, s.Default); err != nil {
			t.Errorf("default of %s rejected: %v", s.Name, err)
		}
		if got, err := DefaultOptions().GetByName(s.Name); err != nil || got != s.Default {
			t.Errorf("%s: DefaultOptions renders %q, %v; registry default %q", s.Name, got, err, s.Default)
		}
	}
	for alias, canonical := range optionAliases {
		if seen[alias] {
			t.Errorf("alias %q shadows an option name", alias)
		}
		if s, ok := LookupOption(alias); !ok || s.Name != canonical {
			t.Errorf("alias %q resolves to %q, %v; want %q", alias, s.Name, ok, canonical)
		}
	}

	multi := goldenMultiCF(t)
	configs := []*Options{DefaultOptions()}
	for _, name := range multi.Names() {
		configs = append(configs, multi.Lookup(name))
	}
	for _, o := range configs {
		before := o.ToINI().String()
		for _, s := range AllOptionSpecs() {
			v, err := o.GetByName(s.Name)
			if err != nil {
				t.Fatalf("GetByName(%s): %v", s.Name, err)
			}
			if err := o.SetByName(s.Name, v); err != nil {
				t.Errorf("SetByName(%s, %q) of its own value: %v", s.Name, v, err)
			}
			if v2, _ := o.GetByName(s.Name); v2 != v {
				t.Errorf("%s: Set(Get) moved %q to %q", s.Name, v, v2)
			}
		}
		if after := o.ToINI().String(); after != before {
			t.Errorf("setting every option to its own value changed the document:\n%s", firstDiff(before, after))
		}
	}
}

func TestSetByName(t *testing.T) {
	o := DefaultOptions()
	cases := []struct {
		name, value string
		check       func() bool
	}{
		{"write_buffer_size", "33554432", func() bool { return o.WriteBufferSize == 33554432 }},
		{"max_write_buffer_number", "6", func() bool { return o.MaxWriteBufferNumber == 6 }},
		{"max_background_jobs", "4", func() bool { return o.MaxBackgroundJobs == 4 }},
		{"strict_bytes_per_sync", "true", func() bool { return o.StrictBytesPerSync }},
		{"wal_bytes_per_sync", "1048576", func() bool { return o.WALBytesPerSync == 1048576 }},
		{"max_bytes_for_level_multiplier", "8", func() bool { return o.MaxBytesForLevelMultiplier == 8 }},
		{"compaction_style", "universal", func() bool { return o.CompactionStyle == CompactionStyleUniversal }},
		{"compression", "snappy", func() bool { return o.Compression == SnappyCompression }},
		{"filter_policy", "bloomfilter:10:false", func() bool { return o.BloomBitsPerKey == 10 }},
		{"bloom_bits_per_key", "14", func() bool { return o.BloomBitsPerKey == 14 }},
		{"block_cache_size", "134217728", func() bool { return o.BlockCacheSize == 134217728 }},
		{"enable_pipelined_write", "false", func() bool { return !o.EnablePipelinedWrite }},
		{"dump_malloc_stats", "1", func() bool { return o.Extra["dump_malloc_stats"] == "true" }},
	}
	for _, c := range cases {
		if err := o.SetByName(c.name, c.value); err != nil {
			t.Fatalf("SetByName(%s, %s): %v", c.name, c.value, err)
		}
		if !c.check() {
			t.Fatalf("SetByName(%s, %s) did not apply", c.name, c.value)
		}
	}
}

func TestSetByNameErrors(t *testing.T) {
	o := DefaultOptions()
	if err := o.SetByName("flux_capacitor_size", "88"); !errors.Is(err, ErrUnknownOption) {
		t.Fatalf("unknown option error = %v", err)
	}
	if err := o.SetByName("max_background_jobs", "not_a_number"); err == nil {
		t.Fatal("bad integer accepted")
	}
	if err := o.SetByName("max_background_jobs", "9999"); err == nil {
		t.Fatal("out-of-range value accepted")
	}
	if err := o.SetByName("compression", "brotli"); err == nil {
		t.Fatal("bad enum accepted")
	}
	if err := o.SetByName("strict_bytes_per_sync", "maybe"); err == nil {
		t.Fatal("bad bool accepted")
	}
}

func TestSetByNameRecordedOption(t *testing.T) {
	o := DefaultOptions()
	if err := o.SetByName("allow_mmap_reads", "true"); err != nil {
		t.Fatal(err)
	}
	if o.Extra["allow_mmap_reads"] != "true" {
		t.Fatalf("Extra = %v", o.Extra)
	}
	if v, err := o.GetByName("allow_mmap_reads"); err != nil || v != "true" {
		t.Fatalf("GetByName = %q, %v", v, err)
	}
	// Deprecated options are still settable (the paper notes LLMs suggest
	// them); callers can detect via the spec.
	if err := o.SetByName("max_mem_compaction_level", "2"); err != nil {
		t.Fatal(err)
	}
	s, _ := LookupOption("max_mem_compaction_level")
	if !s.Deprecated {
		t.Fatal("spec should be deprecated")
	}
}

func TestOptionsINIRoundTrip(t *testing.T) {
	o := DefaultOptions()
	o.WriteBufferSize = 33554432
	o.MaxBackgroundJobs = 5
	o.BloomBitsPerKey = 10
	o.Compression = SnappyCompression
	o.Extra["allow_mmap_reads"] = "true"

	doc := o.ToINI()
	cs, unknown, err := ConfigSetFromINI(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(unknown) != 0 {
		t.Fatalf("unknown keys: %v", unknown)
	}
	back := cs.Default
	if len(cs.Others) != 0 || back.WriteBufferSize != 33554432 || back.MaxBackgroundJobs != 5 ||
		back.BloomBitsPerKey != 10 || back.Compression != SnappyCompression {
		t.Fatalf("round trip lost values: %+v", back)
	}
	if back.Extra["allow_mmap_reads"] != "true" {
		t.Fatal("Extra lost")
	}
	// The document carries all three RocksDB sections.
	for _, sec := range []string{SectionDB, SectionCF, SectionTable} {
		if !doc.HasSection(sec) {
			t.Fatalf("missing section %q", sec)
		}
	}
}

func TestFromINIUnknownKeys(t *testing.T) {
	o := DefaultOptions()
	doc := o.ToINI()
	doc.Section(SectionDB).Set("hallucinated_option", "42")
	back, unknown, err := ConfigSetFromINI(doc)
	if err != nil || back == nil {
		t.Fatal(err)
	}
	if len(unknown) != 1 || unknown[0] != "hallucinated_option" {
		t.Fatalf("unknown = %v", unknown)
	}
}

// TestNonFiniteFloatsRejected: NaN compares false against every bound, so a
// range check alone lets it through; one such token from an LLM or one OPTIONS
// line would poison level sizing. Every door must refuse it.
func TestNonFiniteFloatsRejected(t *testing.T) {
	db, _ := openTestDB(t, nil)
	defer db.Close()
	for _, v := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "infinity"} {
		for _, name := range []string{"max_bytes_for_level_multiplier", "hard_rate_limit"} {
			o := DefaultOptions()
			if err := o.SetByName(name, v); err == nil {
				got, _ := o.GetByName(name)
				t.Errorf("SetByName(%s, %s) accepted; GetByName = %s", name, v, got)
			}
		}
		doc := DefaultOptions().ToINI()
		doc.Section(SectionCF).Set("max_bytes_for_level_multiplier", v)
		if _, _, err := ConfigSetFromINI(doc); err == nil {
			t.Errorf("ConfigSetFromINI accepted max_bytes_for_level_multiplier=%s", v)
		}
		if err := db.SetOptions(nil, map[string]string{"max_bytes_for_level_multiplier": v}); err == nil {
			t.Errorf("live SetOptions accepted max_bytes_for_level_multiplier=%s", v)
		}
	}
	if got := db.Options().MaxBytesForLevelMultiplier; got != 10 {
		t.Errorf("rejected SetOptions moved max_bytes_for_level_multiplier to %v", got)
	}
	// The struct-literal path has no checkValue in front of it.
	for _, f := range []float64{math.NaN(), math.Inf(1)} {
		o := DefaultOptions()
		o.MaxBytesForLevelMultiplier = f
		if err := o.Validate(); err == nil {
			t.Errorf("Validate accepted max_bytes_for_level_multiplier = %v", f)
		}
	}
}

func TestParseFilterPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int
		err  bool
	}{
		{"nullptr", 0, false},
		{"bloomfilter:10:false", 10, false},
		{"bloomfilter:14:true", 14, false},
		{"12", 12, false},
		{"bloomfilter:999:false", 0, true},
		{"garbage!", 0, true},
	} {
		got, err := parseFilterPolicy(tc.in)
		if (err != nil) != tc.err || (!tc.err && got != tc.want) {
			t.Errorf("parseFilterPolicy(%q) = %d, %v", tc.in, got, err)
		}
	}
}

func TestDBBenchDefaults(t *testing.T) {
	o := DBBenchDefaults()
	if o.BloomBitsPerKey != 0 {
		t.Fatalf("db_bench default bloom bits = %d; db_bench ships without a filter", o.BloomBitsPerKey)
	}
	if o.BlockCacheSize != 8<<20 {
		t.Fatalf("db_bench default cache = %d", o.BlockCacheSize)
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsClone(t *testing.T) {
	o := DefaultOptions()
	o.Extra["k"] = "v"
	c := o.Clone()
	c.Extra["k"] = "changed"
	c.WriteBufferSize = 1 << 20
	if o.Extra["k"] != "v" || o.WriteBufferSize == c.WriteBufferSize {
		t.Fatal("Clone shares state")
	}
}

func TestValidateMessages(t *testing.T) {
	cases := []func(*Options){
		func(o *Options) { o.WriteBufferSize = 1 },
		func(o *Options) { o.MinWriteBufferNumberToMerge = 99 },
		func(o *Options) { o.NumLevels = 1 },
		func(o *Options) { o.Level0SlowdownWritesTrigger = 1 },
		func(o *Options) { o.Level0StopWritesTrigger = 1 },
		func(o *Options) { o.MaxBytesForLevelMultiplier = 0.5 },
		func(o *Options) { o.BlockSize = 1 },
		func(o *Options) { o.MaxBackgroundJobs = 0 },
	}
	for i, tweak := range cases {
		o := DefaultOptions()
		tweak(o)
		err := o.Validate()
		if err == nil {
			t.Errorf("case %d: invalid options accepted", i)
			continue
		}
		if !strings.Contains(err.Error(), "lsm:") {
			t.Errorf("case %d: unhelpful error %q", i, err)
		}
	}
}
