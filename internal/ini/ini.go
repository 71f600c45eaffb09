// Package ini implements the subset of the INI file format used by RocksDB
// OPTIONS files: named sections, key=value pairs, comments starting with '#'
// or ';', and stable serialization order. It is the bridge between the tuning
// framework's natural-language world and the engine's typed options.
package ini

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Section is one [name] block of key=value pairs. Key order is preserved from
// the source; Set appends new keys at the end.
type Section struct {
	Name string
	keys []string
	vals map[string]string
}

// NewSection returns an empty section with the given name.
func NewSection(name string) *Section {
	return &Section{Name: name, vals: make(map[string]string)}
}

// Get returns the value for key and whether it was present.
func (s *Section) Get(key string) (string, bool) {
	v, ok := s.vals[key]
	return v, ok
}

// Set stores key=value, preserving first-seen key order.
func (s *Section) Set(key, value string) {
	if _, ok := s.vals[key]; !ok {
		s.keys = append(s.keys, key)
	}
	s.vals[key] = value
}

// Delete removes key if present and reports whether it was removed.
func (s *Section) Delete(key string) bool {
	if _, ok := s.vals[key]; !ok {
		return false
	}
	delete(s.vals, key)
	for i, k := range s.keys {
		if k == key {
			s.keys = append(s.keys[:i], s.keys[i+1:]...)
			break
		}
	}
	return true
}

// Keys returns the keys in stable (insertion) order.
func (s *Section) Keys() []string {
	out := make([]string, len(s.keys))
	copy(out, s.keys)
	return out
}

// Len returns the number of keys in the section.
func (s *Section) Len() int { return len(s.keys) }

// File is a parsed ini document: an ordered list of sections. Keys appearing
// before any [section] header live in the unnamed section "".
type File struct {
	order    []string
	sections map[string]*Section
}

// NewFile returns an empty ini document.
func NewFile() *File {
	return &File{sections: make(map[string]*Section)}
}

// Section returns the named section, creating it if absent.
func (f *File) Section(name string) *Section {
	if s, ok := f.sections[name]; ok {
		return s
	}
	s := NewSection(name)
	f.sections[name] = s
	f.order = append(f.order, name)
	return s
}

// HasSection reports whether the named section exists.
func (f *File) HasSection(name string) bool {
	_, ok := f.sections[name]
	return ok
}

// SectionNames returns section names in document order.
func (f *File) SectionNames() []string {
	out := make([]string, len(f.order))
	copy(out, f.order)
	return out
}

// Parse reads an ini document from r. Lines may be:
//
//	[section name]
//	key = value          # trailing comments are NOT stripped from values
//	# comment            ; comment
//
// Whitespace around keys, values and section names is trimmed. Duplicate keys
// keep the last value. A key line without '=' is an error.
func Parse(r io.Reader) (*File, error) {
	f := NewFile()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var cur *Section
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == ';' {
			continue
		}
		if line[0] == '[' {
			// The header ends at the line's last ']': a quoted column-family
			// name may itself contain one.
			end := strings.LastIndexByte(line, ']')
			if end < 0 {
				return nil, fmt.Errorf("ini: line %d: unterminated section header %q", lineNo, line)
			}
			name := strings.TrimSpace(line[1:end])
			cur = f.Section(name)
			continue
		}
		eq := strings.IndexByte(line, '=')
		if eq < 0 {
			return nil, fmt.Errorf("ini: line %d: expected key=value, got %q", lineNo, line)
		}
		key := strings.TrimSpace(line[:eq])
		val := strings.TrimSpace(line[eq+1:])
		if key == "" {
			return nil, fmt.Errorf("ini: line %d: empty key", lineNo)
		}
		if cur == nil {
			cur = f.Section("")
		}
		cur.Set(key, val)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ini: scan: %w", err)
	}
	return f, nil
}

// ParseString parses an ini document held in a string.
func ParseString(s string) (*File, error) { return Parse(strings.NewReader(s)) }

// Load parses the ini file at path.
func Load(path string) (*File, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	return Parse(fh)
}

// WriteTo serializes the document in section order, keys in insertion order.
func (f *File) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for i, name := range f.order {
		sec := f.sections[name]
		if name != "" {
			m, err := fmt.Fprintf(w, "[%s]\n", name)
			n += int64(m)
			if err != nil {
				return n, err
			}
		}
		for _, k := range sec.keys {
			m, err := fmt.Fprintf(w, "  %s=%s\n", k, sec.vals[k])
			n += int64(m)
			if err != nil {
				return n, err
			}
		}
		if i != len(f.order)-1 {
			m, err := fmt.Fprintln(w)
			n += int64(m)
			if err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// String renders the document as ini text.
func (f *File) String() string {
	var b strings.Builder
	f.WriteTo(&b) //nolint:errcheck // strings.Builder never errors
	return b.String()
}

// Save writes the document to path atomically (write temp, rename).
func (f *File) Save(path string) error {
	tmp := path + ".tmp"
	fh, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.WriteTo(fh); err != nil {
		fh.Close()
		os.Remove(tmp)
		return err
	}
	if err := fh.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// Flatten returns every key as "section.key"→value ("" section keys bare),
// sorted lexicographically — useful for diffing two documents.
func (f *File) Flatten() map[string]string {
	out := make(map[string]string)
	for _, name := range f.order {
		sec := f.sections[name]
		for _, k := range sec.keys {
			fk := k
			if name != "" {
				fk = name + "." + k
			}
			out[fk] = sec.vals[k]
		}
	}
	return out
}

// Diff reports keys whose values differ between a and b (including keys
// present in only one document), sorted. Each entry is "key: old -> new";
// missing values render as "<unset>".
func Diff(a, b *File) []string {
	fa, fb := a.Flatten(), b.Flatten()
	keys := make(map[string]struct{})
	for k := range fa {
		keys[k] = struct{}{}
	}
	for k := range fb {
		keys[k] = struct{}{}
	}
	var out []string
	for k := range keys {
		va, oka := fa[k]
		vb, okb := fb[k]
		if oka && okb && va == vb {
			continue
		}
		if !oka {
			va = "<unset>"
		}
		if !okb {
			vb = "<unset>"
		}
		out = append(out, fmt.Sprintf("%s: %s -> %s", k, va, vb))
	}
	sort.Strings(out)
	return out
}
