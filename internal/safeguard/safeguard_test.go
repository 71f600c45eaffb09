package safeguard

import (
	"strings"
	"testing"

	"repro/internal/lsm"
	"repro/internal/parser"
)

func vetOne(t *testing.T, e *Enforcer, name, value string) Decision {
	t.Helper()
	ds := e.VetConfig(lsm.NewConfigSet(lsm.DBBenchDefaults()), []parser.Change{{Name: name, Value: value}})
	if len(ds) != 1 {
		t.Fatalf("VetConfig returned %d decisions", len(ds))
	}
	return ds[0]
}

func TestVetAccepted(t *testing.T) {
	e := New()
	d := vetOne(t, e, "max_background_jobs", "4")
	if d.Verdict != Accepted {
		t.Fatalf("verdict = %v (%s)", d.Verdict, d.Reason)
	}
}

func TestVetBlacklist(t *testing.T) {
	e := New()
	for _, tc := range []parser.Change{
		{Name: "disable_wal", Value: "true"},
		{Name: "paranoid_checks", Value: "false"},
		{Name: "use_fsync", Value: "false"},
		{Name: "avoid_flush_during_shutdown", Value: "true"},
	} {
		d := vetOne(t, e, tc.Name, tc.Value)
		if d.Verdict != Blacklisted {
			t.Errorf("%s: verdict = %v, want blacklisted", tc.Name, d.Verdict)
		}
	}
}

func TestVetHallucination(t *testing.T) {
	e := New()
	for _, name := range []string{"flush_job_count", "memtable_flush_speed", "write_amp_limit"} {
		d := vetOne(t, e, name, "4")
		if d.Verdict != Hallucinated {
			t.Errorf("%s: verdict = %v, want hallucinated", name, d.Verdict)
		}
	}
}

func TestVetInvalidValue(t *testing.T) {
	e := New()
	if d := vetOne(t, e, "max_background_jobs", "banana"); d.Verdict != Invalid {
		t.Errorf("bad int: %v", d.Verdict)
	}
	if d := vetOne(t, e, "max_background_jobs", "99999"); d.Verdict != Invalid {
		t.Errorf("out of range: %v", d.Verdict)
	}
	if d := vetOne(t, e, "compression", "brotli"); d.Verdict != Invalid {
		t.Errorf("bad enum: %v", d.Verdict)
	}
}

func TestVetDeprecated(t *testing.T) {
	e := New()
	d := vetOne(t, e, "max_mem_compaction_level", "2")
	if d.Verdict != DeprecatedAccepted {
		t.Fatalf("verdict = %v", d.Verdict)
	}
	e.AllowDeprecated = false
	d = vetOne(t, e, "max_mem_compaction_level", "3")
	if d.Verdict != Invalid {
		t.Fatalf("verdict with deprecated disallowed = %v", d.Verdict)
	}
}

func TestVetNoOp(t *testing.T) {
	e := New()
	cur := lsm.NewConfigSet(lsm.DBBenchDefaults())
	ds := e.VetConfig(cur, []parser.Change{{Name: "max_background_jobs", Value: "2"}})
	if ds[0].Verdict != NoOp {
		t.Fatalf("verdict = %v", ds[0].Verdict)
	}
}

func TestCustomBlacklist(t *testing.T) {
	e := New()
	e.Blacklist("compression")
	if d := vetOne(t, e, "compression", "snappy"); d.Verdict != Blacklisted {
		t.Fatalf("custom blacklist ignored: %v", d.Verdict)
	}
	if vetOne(t, e, "disable_wal", "true").Verdict != Blacklisted {
		t.Fatal("default blacklist missing disable_wal")
	}
}

func TestApply(t *testing.T) {
	e := New()
	cur := lsm.NewConfigSet(lsm.DBBenchDefaults())
	changes := []parser.Change{
		{Name: "max_background_jobs", Value: "4"},
		{Name: "disable_wal", Value: "true"},  // blacklisted: skipped
		{Name: "flush_job_count", Value: "2"}, // hallucinated: skipped
		{Name: "write_buffer_size", Value: "33554432"},
	}
	next, applied, err := ApplyConfig(cur, e.VetConfig(cur, changes))
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 2 {
		t.Fatalf("applied %d changes: %+v", len(applied), applied)
	}
	if next.Default.MaxBackgroundJobs != 4 || next.Default.WriteBufferSize != 33554432 {
		t.Fatalf("changes not applied: %+v", next.Default)
	}
	if next.Default.DisableWAL {
		t.Fatal("blacklisted change applied")
	}
	// Original untouched.
	if cur.Default.MaxBackgroundJobs != 2 {
		t.Fatal("input options mutated")
	}
}

func TestApplyCombinedValidationFailure(t *testing.T) {
	e := New()
	cur := lsm.NewConfigSet(lsm.DBBenchDefaults())
	// Individually plausible, jointly invalid: min merge > max buffers.
	changes := []parser.Change{
		{Name: "min_write_buffer_number_to_merge", Value: "2"},
		{Name: "max_write_buffer_number", Value: "1"},
	}
	next, _, err := ApplyConfig(cur, e.VetConfig(cur, changes))
	if err == nil {
		t.Fatal("combined invalid changes accepted")
	}
	if next != cur {
		t.Fatal("failed ApplyConfig should return the original configuration")
	}
}

func TestSummary(t *testing.T) {
	e := New()
	ds := e.VetConfig(lsm.NewConfigSet(lsm.DBBenchDefaults()), []parser.Change{
		{Name: "max_background_jobs", Value: "4"},
		{Name: "disable_wal", Value: "true"},
		{Name: "made_up", Value: "1"},
	})
	sum := Summary(ds)
	if sum[Accepted] != 1 || sum[Blacklisted] != 1 || sum[Hallucinated] != 1 {
		t.Fatalf("summary = %v", sum)
	}
}

func TestVerdictString(t *testing.T) {
	for v, want := range map[Verdict]string{
		Accepted: "accepted", Blacklisted: "blacklisted", Hallucinated: "hallucinated",
		Invalid: "invalid", DeprecatedAccepted: "deprecated", NoOp: "no-op",
	} {
		if v.String() != want {
			t.Errorf("%d.String() = %q", v, v.String())
		}
	}
}

// twoFamilyConfig builds a configuration with a "hot" family layered on the
// dbbench defaults.
func twoFamilyConfig() *lsm.ConfigSet {
	cs := lsm.NewConfigSet(lsm.DBBenchDefaults())
	cs.CF("hot")
	return cs
}

func TestVetConfigRoutesPerFamily(t *testing.T) {
	e := New()
	cs := twoFamilyConfig()
	cs.CF("hot").WriteBufferSize = 1 << 20
	ds := e.VetConfig(cs, []parser.Change{
		{Name: "write_buffer_size", Value: "1048576", CF: "hot"},     // no-op for hot
		{Name: "write_buffer_size", Value: "1048576", CF: "default"}, // change for default
		{Name: "max_background_jobs", Value: "4"},                    // unscoped -> default
	})
	if ds[0].Verdict != NoOp {
		t.Fatalf("hot no-op: verdict = %v (%s)", ds[0].Verdict, ds[0].Reason)
	}
	if ds[1].Verdict != Accepted {
		t.Fatalf("default change: verdict = %v (%s)", ds[1].Verdict, ds[1].Reason)
	}
	if ds[2].Verdict != Accepted {
		t.Fatalf("unscoped change: verdict = %v (%s)", ds[2].Verdict, ds[2].Reason)
	}
}

func TestVetConfigUnknownFamilyHallucinated(t *testing.T) {
	e := New()
	ds := e.VetConfig(twoFamilyConfig(), []parser.Change{
		{Name: "write_buffer_size", Value: "1048576", CF: "nope"},
	})
	if ds[0].Verdict != Hallucinated {
		t.Fatalf("verdict = %v, want hallucinated", ds[0].Verdict)
	}
}

// A single-family set built from bare Options has only the default family:
// a named scope is a hallucination there too, and the default scope is not.
func TestVetScopedChangeAgainstBareOptions(t *testing.T) {
	e := New()
	ds := e.VetConfig(lsm.NewConfigSet(lsm.DBBenchDefaults()), []parser.Change{
		{Name: "write_buffer_size", Value: "1048576", CF: "hot"},
		{Name: "write_buffer_size", Value: "1048576", CF: "default"},
	})
	if ds[0].Verdict != Hallucinated {
		t.Fatalf("scoped: verdict = %v", ds[0].Verdict)
	}
	if ds[1].Verdict == Hallucinated {
		t.Fatalf("default scope must be allowed: %v (%s)", ds[1].Verdict, ds[1].Reason)
	}
}

func TestApplyConfig(t *testing.T) {
	e := New()
	cs := twoFamilyConfig()
	changes := []parser.Change{
		{Name: "write_buffer_size", Value: "134217728", CF: "hot"},
		{Name: "max_background_jobs", Value: "4"},
		{Name: "write_buffer_size", Value: "1", CF: "ghost"}, // hallucinated: skipped
	}
	next, applied, err := ApplyConfig(cs, e.VetConfig(cs, changes))
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 2 {
		t.Fatalf("applied %d changes: %+v", len(applied), applied)
	}
	if got := next.CF("hot").WriteBufferSize; got != 134217728 {
		t.Fatalf("hot write_buffer_size = %d", got)
	}
	if next.Default.WriteBufferSize == 134217728 {
		t.Fatal("family-scoped change leaked into the default family")
	}
	if next.Default.MaxBackgroundJobs != 4 {
		t.Fatalf("default max_background_jobs = %d", next.Default.MaxBackgroundJobs)
	}
	// Original untouched.
	if cs.CF("hot").WriteBufferSize == 134217728 {
		t.Fatal("input configuration mutated")
	}
}

// A DB-scoped knob written under a named family's section is vetted and
// applied where it takes effect: the DB options, which ToINI renders in
// [DBOptions]. The family's own copy is left alone.
func TestApplyConfigDBScopedInFamilySection(t *testing.T) {
	e := New()
	cs := twoFamilyConfig()
	changes := []parser.Change{{Name: "max_background_jobs", Value: "12", CF: "hot"}}
	next, applied, err := ApplyConfig(cs, e.VetConfig(cs, changes))
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 1 {
		t.Fatalf("applied %d changes: %+v", len(applied), applied)
	}
	if next.Default.MaxBackgroundJobs != 12 {
		t.Fatalf("DB max_background_jobs = %d, want 12", next.Default.MaxBackgroundJobs)
	}
	if got := next.Lookup("hot").MaxBackgroundJobs; got != cs.Lookup("hot").MaxBackgroundJobs {
		t.Fatalf("hot's copy of max_background_jobs changed to %d", got)
	}
	if v, _ := next.ToINI().Section(lsm.SectionDB).Get("max_background_jobs"); v != "12" {
		t.Fatalf("[DBOptions] max_background_jobs = %q, want 12", v)
	}
	// Vetted against the DB options too: the value now in effect there is a no-op.
	if ds := e.VetConfig(next, changes); ds[0].Verdict != NoOp {
		t.Fatalf("re-vet: verdict = %v (%s), want no-op", ds[0].Verdict, ds[0].Reason)
	}
}

func TestApplyConfigCombinedValidationFailure(t *testing.T) {
	e := New()
	cs := twoFamilyConfig()
	changes := []parser.Change{
		{Name: "min_write_buffer_number_to_merge", Value: "2", CF: "hot"},
		{Name: "max_write_buffer_number", Value: "1", CF: "hot"},
	}
	next, _, err := ApplyConfig(cs, e.VetConfig(cs, changes))
	if err == nil {
		t.Fatal("combined invalid changes accepted")
	}
	if next != cs {
		t.Fatal("failed ApplyConfig should return the original configuration")
	}
}

func TestVetAliasOfBlacklisted(t *testing.T) {
	e := New()
	e.Blacklist("filter_policy")
	// bloom_bits_per_key resolves to filter_policy, which is blacklisted.
	d := vetOne(t, e, "bloom_bits_per_key", "10")
	if d.Verdict != Blacklisted {
		t.Fatalf("alias bypassed blacklist: %v", d.Verdict)
	}
}

func TestVetLiveModeImmutable(t *testing.T) {
	e := New()
	e.LiveMode = true
	// Mutable knobs still pass in live mode.
	if d := vetOne(t, e, "write_buffer_size", "1048576"); d.Verdict != Accepted {
		t.Fatalf("write_buffer_size: verdict = %v (%s)", d.Verdict, d.Reason)
	}
	if d := vetOne(t, e, "max_background_jobs", "4"); d.Verdict != Accepted {
		t.Fatalf("max_background_jobs: verdict = %v (%s)", d.Verdict, d.Reason)
	}
	// Immutable knobs are rejected with an error naming the knob.
	for _, name := range []string{"num_levels", "max_open_files", "use_direct_reads"} {
		d := vetOne(t, e, name, "7")
		if d.Verdict != ImmutableLive {
			t.Errorf("%s: verdict = %v, want immutable-live (%s)", name, d.Verdict, d.Reason)
			continue
		}
		if !strings.Contains(d.Reason, name) {
			t.Errorf("%s: reason %q does not name the knob", name, d.Reason)
		}
	}
	// Off live mode the same knob is accepted (reopen path applies it).
	e.LiveMode = false
	if d := vetOne(t, e, "num_levels", "5"); d.Verdict != Accepted {
		t.Fatalf("num_levels off live mode: verdict = %v (%s)", d.Verdict, d.Reason)
	}
}
