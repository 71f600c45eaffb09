package lsm

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ini"
)

// FuzzConfigSetFromINI feeds arbitrary text through the OPTIONS-file door —
// the path an LLM-written configuration takes into the engine. It must never
// panic, and a document it accepts must render to a fixed point: loading the
// rendering and rendering again changes nothing.
func FuzzConfigSetFromINI(f *testing.F) {
	for _, name := range []string{"options_default.ini", "options_multicf.ini"} {
		seed, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(seed))
	}
	render := func(text string) (string, error) {
		doc, err := ini.ParseString(text)
		if err != nil {
			return "", err
		}
		cs, _, err := ConfigSetFromINI(doc)
		if err != nil {
			return "", err
		}
		return cs.ToINI().String(), nil
	}
	f.Fuzz(func(t *testing.T, text string) {
		once, err := render(text)
		if err != nil {
			return
		}
		twice, err := render(once)
		if err != nil {
			t.Fatalf("rendering of an accepted document is rejected: %v\n%s", err, once)
		}
		if twice != once {
			t.Fatalf("rendering is not a fixed point:\n%s", firstDiff(once, twice))
		}
	})
}

// FuzzSetByName: any (name, value) pair is either refused or leaves a value
// that GetByName returns, the option's own validation accepts, and setting
// again does not move.
func FuzzSetByName(f *testing.F) {
	for _, s := range AllOptionSpecs() {
		f.Add(s.Name, s.Default)
	}
	for alias := range optionAliases {
		f.Add(alias, "12")
	}
	f.Add("max_bytes_for_level_multiplier", "NaN")
	f.Fuzz(func(t *testing.T, name, value string) {
		o := DefaultOptions()
		if err := o.SetByName(name, value); err != nil {
			return
		}
		got, err := o.GetByName(name)
		if err != nil {
			t.Fatalf("GetByName(%q) after a successful set: %v", name, err)
		}
		s, _ := lookupSpec(name)
		if _, err := checkValue(s, got); err != nil {
			t.Fatalf("SetByName(%q, %q) left %q, which its own validation refuses: %v", name, value, got, err)
		}
		if err := o.SetByName(name, got); err != nil {
			t.Fatalf("SetByName(%q, %q) of the value just read: %v", name, got, err)
		}
		if again, _ := o.GetByName(name); again != got {
			t.Fatalf("%q: setting %q again moved it to %q", name, got, again)
		}
	})
}
