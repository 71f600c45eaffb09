// Package parser implements the framework's Option Evaluator: it extracts
// proposed configuration changes from LLM responses, which arrive as free
// text, a single code block, or an interleaving combination of both (the
// paper's challenge #2). It is deliberately liberal in what it accepts and
// reports what it could not understand rather than guessing.
package parser

import (
	"regexp"
	"strings"
)

// Change is one proposed option assignment.
type Change struct {
	Name  string
	Value string
	// CF scopes the change to a column family: the quoted name of the
	// enclosing [CFOptions "<name>"] (or TableOptions) section header in the
	// response. Empty means unscoped — DBOptions, prose, or a bare
	// assignment — which callers treat as the default family.
	CF string
}

// Result is the structured view of one LLM response.
type Result struct {
	// Changes are the extracted option assignments, in appearance order,
	// deduplicated by (column family, name) (last occurrence wins).
	Changes []Change
	// Rejected lines looked like assignments but could not be parsed.
	Rejected []string
	// HadCodeBlock reports whether a fenced code block was present.
	HadCodeBlock bool
}

var (
	reFence = regexp.MustCompile("(?s)```[a-zA-Z]*\n(.*?)```")
	// option=value with optional bullets, "set", backticks and spacing;
	// values may be quoted. Option names are snake_case identifiers.
	reAssign = regexp.MustCompile("(?i)^\\s*(?:[-*•]\\s*)?(?:set\\s+)?`?([a-z][a-z0-9_]{2,63})`?\\s*[:=]\\s*`?\"?([a-zA-Z0-9_.:/-]+)\"?`?\\s*;?,?\\s*$")
	// section headers inside ini blocks are structural, not assignments.
	reSection = regexp.MustCompile(`^\s*\[.*\]\s*$`)
	// reCFSection matches section headers that scope subsequent assignments
	// to a named column family: [CFOptions "hot"] and the family's
	// [TableOptions/BlockBasedTable "hot"] companion.
	reCFSection = regexp.MustCompile(`(?i)^\s*\[\s*(?:CFOptions|TableOptions(?:/BlockBasedTable)?)\s+"([^"]+)"\s*\]\s*$`)
	// suspiciousAssign catches lines that clearly intend an assignment but
	// failed the strict pattern (reported as Rejected).
	reSuspicious = regexp.MustCompile(`(?i)^\s*(?:[-*•]\s*)?(?:set\s+)?[a-z][a-z0-9_]{2,63}\s*[:=]`)
	// reProse finds "set option to/= value" phrases embedded in sentences
	// ("Then set compaction_readahead_size = 4194304 as well.").
	reProse = regexp.MustCompile("(?i)(?:set|change|increase|decrease|adjust|raise|lower)\\s+`?([a-z][a-z0-9_]{2,63})`?\\s*(?:to|=|:)\\s*`?\"?([a-zA-Z0-9_.:/-]+)\"?`?")
)

// nonOptionWords are identifier-looking words that appear on the left of
// ':' in prose ("Rationale: ...", "Note: ...") and must not be treated as
// options.
var nonOptionWords = map[string]bool{
	"note": true, "rationale": true, "example": true, "warning": true,
	"important": true, "summary": true, "result": true, "reason": true,
	"iteration": true, "benchmark": true, "workload": true, "memory": true,
	"storage": true, "recommendation": true, "explanation": true, "step": true,
}

// Parse extracts option changes from an LLM response. Assignments under a
// [CFOptions "<name>"] header are tagged with that column family; a
// [DBOptions] (or any other unquoted) header resets the scope.
func Parse(response string) Result {
	var res Result
	// Prefer fenced blocks: parse them first, then scan prose outside the
	// fences for additional "set x = y" lines.
	blocks := reFence.FindAllStringSubmatch(response, -1)
	prose := reFence.ReplaceAllString(response, "\n")
	if len(blocks) > 0 {
		res.HadCodeBlock = true
	}
	seen := map[string]int{} // cf + "\x00" + name -> index into res.Changes
	record := func(cf, name, value string) {
		name = strings.ToLower(name)
		if nonOptionWords[name] {
			return
		}
		key := cf + "\x00" + name
		if i, ok := seen[key]; ok {
			res.Changes[i].Value = value
			return
		}
		seen[key] = len(res.Changes)
		res.Changes = append(res.Changes, Change{Name: name, Value: value, CF: cf})
	}
	scan := func(text string, strict bool) {
		cf := "" // current column-family scope within this block
		for _, line := range strings.Split(text, "\n") {
			if strings.TrimSpace(line) == "" {
				continue
			}
			if reSection.MatchString(line) {
				if m := reCFSection.FindStringSubmatch(line); m != nil {
					cf = m[1]
				} else {
					cf = ""
				}
				continue
			}
			if m := reAssign.FindStringSubmatch(line); m != nil {
				record(cf, m[1], m[2])
				continue
			}
			if strict && reSuspicious.MatchString(line) {
				res.Rejected = append(res.Rejected, strings.TrimSpace(line))
				continue
			}
			if !strict {
				// Prose may embed assignments mid-sentence.
				for _, m := range reProse.FindAllStringSubmatch(line, -1) {
					record(cf, m[1], m[2])
				}
			}
		}
	}
	for _, b := range blocks {
		scan(b[1], true)
	}
	scan(prose, false)
	return res
}
