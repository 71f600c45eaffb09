// Package safeguard implements the framework's Safeguard Enforcer (the
// paper's challenge #4): a configurable blacklist of options that must never
// be modified (journaling/durability), unknown-option (hallucination)
// detection against the engine's registry, value/bounds checking, and
// deprecation warnings. Every LLM suggestion passes through VetConfig before
// it can touch a configuration.
package safeguard

import (
	"errors"
	"fmt"

	"repro/internal/lsm"
	"repro/internal/parser"
)

// Verdict classifies one suggested change.
type Verdict int

const (
	// Accepted changes may be applied.
	Accepted Verdict = iota
	// Blacklisted options must never be changed by the tuner.
	Blacklisted
	// Hallucinated options do not exist in the engine registry.
	Hallucinated
	// Invalid values fail type/bounds/enum validation.
	Invalid
	// DeprecatedAccepted values are applied but flagged: the paper notes
	// LLMs over-suggest deprecated options.
	DeprecatedAccepted
	// NoOp changes restate the current value.
	NoOp
	// ImmutableLive options exist and the value is fine, but the knob
	// cannot be changed on a running database (LiveMode) without a reopen.
	ImmutableLive
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case Accepted:
		return "accepted"
	case Blacklisted:
		return "blacklisted"
	case Hallucinated:
		return "hallucinated"
	case Invalid:
		return "invalid"
	case DeprecatedAccepted:
		return "deprecated"
	case NoOp:
		return "no-op"
	case ImmutableLive:
		return "immutable-live"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Decision pairs one change with its verdict.
type Decision struct {
	Change  parser.Change
	Verdict Verdict
	Reason  string
}

// DefaultBlacklist contains the safety-critical options the paper calls out
// (journaling/IO-flush/durability) plus consistency checks. Values here are
// never tuner-modifiable regardless of direction.
func DefaultBlacklist() map[string]bool {
	return map[string]bool{
		"disable_wal":                 true,
		"use_fsync":                   true,
		"manual_wal_flush":            true,
		"avoid_flush_during_shutdown": true,
		"paranoid_checks":             true,
		"wal_dir":                     true,
		"create_if_missing":           true,
		"error_if_exists":             true,
		"force_consistency_checks":    true,
		"wal_recovery_mode":           true,
	}
}

// Enforcer vets suggested changes. The zero value is unusable; use New.
type Enforcer struct {
	blacklist map[string]bool
	// AllowDeprecated applies deprecated options (flagged); when false
	// they are rejected outright.
	AllowDeprecated bool
	// LiveMode vets changes destined for a RUNNING database (SetOptions /
	// SetDBOptions rather than a config file + reopen). Options the engine
	// registry does not flag as mutable are rejected with ImmutableLive,
	// naming the knob, instead of accepted.
	LiveMode bool
}

// New builds an enforcer with the default blacklist.
func New() *Enforcer {
	return &Enforcer{blacklist: DefaultBlacklist(), AllowDeprecated: true}
}

// NewUnsafe builds an enforcer with an EMPTY blacklist — every syntactically
// valid suggestion is applied, including durability-critical ones. Exists
// only for the ablation study quantifying what the Safeguard Enforcer is
// worth; never use it in production.
func NewUnsafe() *Enforcer {
	return &Enforcer{blacklist: map[string]bool{}, AllowDeprecated: true}
}

// Blacklist adds option names to the blacklist (the paper's "configurable
// blacklist").
func (e *Enforcer) Blacklist(names ...string) {
	for _, n := range names {
		e.blacklist[n] = true
	}
}

// Unblacklist removes names (for operators who know what they are doing).
func (e *Enforcer) Unblacklist(names ...string) {
	for _, n := range names {
		delete(e.blacklist, n)
	}
}

// IsBlacklisted reports whether an option is protected.
func (e *Enforcer) IsBlacklisted(name string) bool { return e.blacklist[name] }

// VetConfig classifies every change against a configuration, one decision
// per change in order; ApplyConfig applies the accepted ones. Each change is
// vetted against the options of the family it is scoped to (unscoped changes
// target the default family); a change naming a family the configuration
// does not have is a hallucination — the LLM invented a column family, the
// per-option analogue of inventing an option name.
func (e *Enforcer) VetConfig(cur *lsm.ConfigSet, changes []parser.Change) []Decision {
	out := make([]Decision, 0, len(changes))
	for _, c := range changes {
		opts := cur.Lookup(c.CF)
		if opts == nil {
			out = append(out, Decision{c, Hallucinated,
				fmt.Sprintf("column family %q does not exist", c.CF)})
			continue
		}
		out = append(out, e.vetOne(opts, c))
	}
	return out
}

func (e *Enforcer) vetOne(cur *lsm.Options, c parser.Change) Decision {
	if e.blacklist[c.Name] {
		return Decision{c, Blacklisted, "option is on the safeguard blacklist (durability/consistency critical)"}
	}
	spec, ok := lsm.LookupOption(c.Name)
	if !ok {
		return Decision{c, Hallucinated, "option does not exist in the engine registry"}
	}
	if e.blacklist[spec.Name] { // alias resolved onto a blacklisted name
		return Decision{c, Blacklisted, "resolves to blacklisted option " + spec.Name}
	}
	if e.LiveMode && !spec.Mutable {
		return Decision{c, ImmutableLive,
			fmt.Sprintf("option %q is immutable at runtime: it cannot be applied to a running database without a reopen", spec.Name)}
	}
	// Validate the value by applying to a scratch clone.
	scratch := cur.Clone()
	if err := scratch.SetByName(c.Name, c.Value); err != nil {
		if errors.Is(err, lsm.ErrUnknownOption) {
			return Decision{c, Hallucinated, err.Error()}
		}
		return Decision{c, Invalid, err.Error()}
	}
	// Cross-field invariants must still hold... but only if every honored
	// single change keeps the file openable; defer full validation to the
	// caller after applying the whole batch (single changes often only
	// make sense together, e.g. raising min_to_merge with max_buffers).
	if old, err := cur.GetByName(c.Name); err == nil && old == normalized(scratch, c.Name, c.Value) {
		return Decision{c, NoOp, "value already in effect"}
	}
	if spec.Deprecated {
		if !e.AllowDeprecated {
			return Decision{c, Invalid, "option is deprecated and deprecated options are disallowed"}
		}
		return Decision{c, DeprecatedAccepted, "option is deprecated in RocksDB 8.x; applied but flagged"}
	}
	return Decision{c, Accepted, ""}
}

// normalized returns the canonical form the engine stored for the value.
func normalized(o *lsm.Options, name, fallback string) string {
	if v, err := o.GetByName(name); err == nil {
		return v
	}
	return fallback
}

// ApplyConfig executes the accepted decisions onto a clone of the full
// multi-family configuration, routing each change to the family it is scoped
// to, then validates the combined result. On validation failure the original
// configuration is returned untouched.
func ApplyConfig(cur *lsm.ConfigSet, decisions []Decision) (*lsm.ConfigSet, []Decision, error) {
	next := cur.Clone()
	applied := make([]Decision, 0, len(decisions))
	for _, d := range decisions {
		if d.Verdict != Accepted && d.Verdict != DeprecatedAccepted {
			continue
		}
		opts := next.Lookup(d.Change.CF)
		if opts == nil {
			// A family accepted at vet time but absent now (e.g. dropped
			// between vet and apply) degrades to a hallucination.
			d.Verdict = Hallucinated
			d.Reason = fmt.Sprintf("column family %q does not exist", d.Change.CF)
			continue
		}
		if err := opts.SetByName(d.Change.Name, d.Change.Value); err != nil {
			d.Verdict = Invalid
			d.Reason = err.Error()
			continue
		}
		applied = append(applied, d)
	}
	if err := next.Validate(); err != nil {
		return cur, applied, fmt.Errorf("safeguard: combined changes fail validation: %w", err)
	}
	return next, applied, nil
}

// Summary counts verdicts for logs and reports.
func Summary(decisions []Decision) map[Verdict]int {
	m := make(map[Verdict]int)
	for _, d := range decisions {
		m[d.Verdict]++
	}
	return m
}
