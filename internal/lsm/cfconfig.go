package lsm

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ini"
)

// CFConfig names one column family's options.
type CFConfig struct {
	Name    string
	Options *Options
}

// ConfigSet is the full configuration of a multi-family database: the
// default family's options (which also carry the DB-scoped knobs) plus any
// number of named families. It is what a RocksDB OPTIONS file with several
// [CFOptions "<name>"] sections deserializes into, and what OpenConfig
// consumes.
type ConfigSet struct {
	Default *Options
	Others  []CFConfig
}

// NewConfigSet wraps a single-family Options into a ConfigSet.
func NewConfigSet(opts *Options) *ConfigSet {
	if opts == nil {
		opts = DefaultOptions()
	}
	return &ConfigSet{Default: opts}
}

// Clone deep-copies the set (same sharing rules as Options.Clone).
func (cs *ConfigSet) Clone() *ConfigSet {
	out := &ConfigSet{Default: cs.Default.Clone()}
	for _, c := range cs.Others {
		out.Others = append(out.Others, CFConfig{Name: c.Name, Options: c.Options.Clone()})
	}
	return out
}

// Scaled returns a clone with every family's byte-valued options divided by
// scale (see Options.Scaled) — used when running the whole configuration on
// a scaled simulated device.
func (cs *ConfigSet) Scaled(scale int64) *ConfigSet {
	out := &ConfigSet{Default: cs.Default.Scaled(scale)}
	for _, c := range cs.Others {
		out.Others = append(out.Others, CFConfig{Name: c.Name, Options: c.Options.Scaled(scale)})
	}
	return out
}

// Lookup returns the options for a family name, or nil if the set does not
// define it.
func (cs *ConfigSet) Lookup(name string) *Options {
	if name == "" || name == DefaultColumnFamilyName {
		return cs.Default
	}
	for _, c := range cs.Others {
		if c.Name == name {
			return c.Options
		}
	}
	return nil
}

// CF returns the options for a family, creating an entry (cloned from the
// default) when absent.
func (cs *ConfigSet) CF(name string) *Options {
	if o := cs.Lookup(name); o != nil {
		return o
	}
	o := cs.Default.Clone()
	cs.Others = append(cs.Others, CFConfig{Name: name, Options: o})
	return o
}

// Names returns every family name, default first, then file order.
func (cs *ConfigSet) Names() []string {
	names := []string{DefaultColumnFamilyName}
	for _, c := range cs.Others {
		names = append(names, c.Name)
	}
	return names
}

// Validate checks every family's options.
func (cs *ConfigSet) Validate() error {
	if err := cs.Default.Validate(); err != nil {
		return fmt.Errorf("column family %q: %w", DefaultColumnFamilyName, err)
	}
	seen := map[string]bool{DefaultColumnFamilyName: true}
	for _, c := range cs.Others {
		if c.Name == "" {
			return fmt.Errorf("lsm: config set has a column family with an empty name")
		}
		if seen[c.Name] {
			return fmt.Errorf("lsm: config set repeats column family %q", c.Name)
		}
		seen[c.Name] = true
		if err := c.Options.Validate(); err != nil {
			return fmt.Errorf("column family %q: %w", c.Name, err)
		}
	}
	return nil
}

// ToINI renders the set as a RocksDB-style OPTIONS document: one DBOptions
// section (from the default family) and a CFOptions + TableOptions section
// pair per family, default first.
func (cs *ConfigSet) ToINI() *ini.File {
	f := ini.NewFile()
	ver := f.Section("Version")
	ver.Set("rocksdb_version", "8.8.1")
	ver.Set("options_file_version", "1.1")
	emit := func(o *Options, from, to string) {
		sec := f.Section(to)
		for i := range optionSpecs {
			if s := &optionSpecs[i]; s.Section == from {
				sec.Set(s.Name, s.value(o))
			}
		}
	}
	emitCF := func(name string, o *Options) {
		emit(o, SectionCF, SectionCFName(name))
		emit(o, SectionTable, SectionTableName(name))
	}
	emit(cs.Default, SectionDB, SectionDB)
	emitCF(DefaultColumnFamilyName, cs.Default)
	for _, c := range cs.Others {
		emitCF(c.Name, c.Options)
	}
	return f
}

// ToINI renders a single-family configuration as an OPTIONS document.
func (o *Options) ToINI() *ini.File { return NewConfigSet(o).ToINI() }

// ConfigSetFromINI builds a ConfigSet from an OPTIONS document that may hold
// any number of [CFOptions "<name>"] sections. DBOptions keys apply to every
// family; each family then layers its own CFOptions and TableOptions keys on
// top of engine defaults (RocksDB semantics: named families do not inherit
// the default family's CF-section values). Unknown keys are collected, not
// fatal.
func ConfigSetFromINI(f *ini.File) (cs *ConfigSet, unknown []string, err error) {
	base := DefaultOptions()
	applySection := func(o *Options, secName string) error {
		sec := f.Section(secName)
		for _, k := range sec.Keys() {
			v, _ := sec.Get(k)
			if setErr := o.SetByName(k, v); setErr != nil {
				if errors.Is(setErr, ErrUnknownOption) {
					unknown = append(unknown, k)
					continue
				}
				return setErr
			}
		}
		return nil
	}
	// Pass 1: DB-scoped keys onto the base every family starts from.
	var cfNames []string
	seen := map[string]bool{}
	for _, secName := range f.SectionNames() {
		kind, cfName := ParseSectionName(secName)
		switch kind {
		case "DBOptions":
			if err := applySection(base, secName); err != nil {
				return nil, unknown, err
			}
		case "CFOptions":
			if cfName == "" {
				cfName = DefaultColumnFamilyName
			}
			if !seen[cfName] {
				seen[cfName] = true
				cfNames = append(cfNames, cfName)
			}
		}
	}
	if !seen[DefaultColumnFamilyName] {
		cfNames = append([]string{DefaultColumnFamilyName}, cfNames...)
	}
	// Pass 2: per-family CF/table sections layered on the base.
	cs = &ConfigSet{}
	for _, name := range cfNames {
		o := base.Clone()
		for _, secName := range []string{SectionCFName(name), SectionTableName(name)} {
			if err := applySection(o, secName); err != nil {
				return nil, unknown, fmt.Errorf("column family %q: %w", name, err)
			}
		}
		if name == DefaultColumnFamilyName {
			cs.Default = o
		} else {
			cs.Others = append(cs.Others, CFConfig{Name: name, Options: o})
		}
	}
	return cs, unknown, nil
}

// ParseSectionName splits an OPTIONS section header into its kind and the
// quoted column-family name: `CFOptions "hot"` yields ("CFOptions", "hot"),
// `DBOptions` yields ("DBOptions", ""). The name is unquoted the way
// SectionCFName quotes it (a hand-written name with a stray backslash just
// loses its quotes); unquoted trailing text is returned verbatim as the name.
func ParseSectionName(sec string) (kind, cfName string) {
	kind = sec
	if i := strings.IndexByte(sec, ' '); i >= 0 {
		kind, cfName = sec[:i], strings.TrimSpace(sec[i+1:])
		if len(cfName) >= 2 && cfName[0] == '"' && cfName[len(cfName)-1] == '"' {
			if name, err := strconv.Unquote(cfName); err == nil {
				cfName = name
			} else {
				cfName = cfName[1 : len(cfName)-1]
			}
		}
	}
	return kind, cfName
}
