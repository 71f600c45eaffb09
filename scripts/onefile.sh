#!/bin/sh
# onefile: each mechanism in the table below is written once. A gate names
# the roots it searches (non-test Go files), a path it skips ("-" for none),
# the pattern that marks the mechanism and the one file allowed to hold it;
# a match anywhere else is a second copy. Usage: scripts/onefile.sh <gate>.
# Run from the repo root.
#
# onestream: the op-mix decision (a read of Spec.ReadFraction /
#   Spec.ScanFraction) and the Pareto value-size draw belong to the one op
#   source in internal/bench; workload.go only defines and validates them.
#   Consume bench.OpSource (or Spec.Sources) instead.
# onehist: histogram bucket math (a sort.SearchFloat64s bucket lookup or a
#   Percentile method) belongs to lsm.Histogram; the engine, the benchmark
#   reports, the flagger and the examples all use that one type.
# onelru: code that moves list entries to the front (MoveToFront,
#   "PushFront(" or "pushFront(") is a recency list; the block cache, the
#   table cache and SimEnv's page-cache model are built on lru instead.
set -eu
gate=${1:?usage: scripts/onefile.sh onestream|onehist|onelru}

# gate;roots;skipped path;pattern;allowed file;what a stray match is;what the pattern marks
table='
onestream;internal cmd;internal/bench/workload.go;[Ss]pec\.(ReadFraction|ScanFraction)|paretoValueSize\(;internal/bench/op.go;the op mix is decided;the op source
onehist;internal cmd examples;-;sort\.SearchFloat64s|\) Percentile\(;internal/lsm/histogram.go;histogram bucket math lives;the histogram
onelru;internal cmd examples;-;MoveToFront|PushFront\(|pushFront\(;internal/lsm/lru.go;recency-list code lives;the lru
'
row=$(printf '%s\n' "$table" | grep "^$gate;") || {
    echo "onefile: unknown gate $gate" >&2
    exit 2
}
IFS=';' read -r _ roots skip pattern allowed what marks <<EOF
$row
EOF

# shellcheck disable=SC2086 # roots is a word list
found=$(find $roots -name '*.go' ! -name '*_test.go' ! -path "$skip" |
    xargs grep -lE "$pattern" || true)
if [ "$found" != "$allowed" ]; then
    echo "$gate: FAIL: $what outside $allowed alone:" >&2
    echo "${found:-(nowhere: the pattern no longer matches $marks)}" >&2
    exit 1
fi
echo "$gate: OK"
