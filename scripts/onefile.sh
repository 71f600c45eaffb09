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
# onewindow: a workload window's mix fractions are computed from two
#   counter readings by lsm.NewWorkloadSnapshot; observers (the benchmark
#   runner, the live targets, elmotune's server target) read counters and
#   call it instead of counting the mix themselves.
# onetree: an iterator tree (a mergeIter or levelIter literal, or a
#   []levelIter) is built by mergeTree alone; scans, flush and compaction
#   add memtables and sorted runs to one instead of assembling their own.
# onemanifest: a manifest file is created by versionSet.rollover alone; a
#   new database, Open and RepairDB install their state and call it instead
#   of starting a manifest of their own.
# onescope: whether a name is DB-scoped (a comparison with SectionDB) is
#   decided by ConfigSet.Owner alone; the engine's SetOptions, the safeguard,
#   the live loop and elmotune's server mirror ask it where a change lands.
# onewriter: a bytes-per-sync range sync (a SyncAsync call) on a WAL,
#   MANIFEST or table file is made by fileWriter alone; the WAL, the
#   MANIFEST and the table builder write through one instead of buffering
#   and syncing on their own.
# onereader: a read of a WAL, MANIFEST, CURRENT or table file (a ReadAt
#   call) is made by fileReader alone, outside the Env implementations
#   (*env.go) that serve it; log replay, CURRENT and the table reader read
#   through one instead of windowing and booking reads on their own.
set -eu
gate=${1:?usage: scripts/onefile.sh onestream|onehist|onelru|onewindow|onetree|onemanifest|onescope|onewriter|onereader}

# gate;roots;skipped path;pattern;allowed file;what a stray match is;what the pattern marks
table='
onestream;internal cmd;internal/bench/workload.go;[Ss]pec\.(ReadFraction|ScanFraction)|paretoValueSize\(;internal/bench/op.go;the op mix is decided;the op source
onehist;internal cmd examples;-;sort\.SearchFloat64s|\) Percentile\(;internal/lsm/histogram.go;histogram bucket math lives;the histogram
onelru;internal cmd examples;-;MoveToFront|PushFront\(|pushFront\(;internal/lsm/lru.go;recency-list code lives;the lru
onewindow;internal cmd examples;-;(Read|Write|Scan)Fraction = float64\(;internal/lsm/workload.go;window mix fractions are computed;the window arithmetic
onetree;internal cmd examples;-;mergeIter\{|levelIter\{|\[\]levelIter;internal/lsm/mergeiter.go;iterator trees are built;the merge tree
onemanifest;internal cmd examples;-;NewWritableFile\(manifestFileName\(;internal/lsm/manifest.go;manifests are started;the manifest rollover
onescope;internal cmd examples;-;[!=]= (lsm\.)?SectionDB;internal/lsm/cfconfig.go;option scope is decided;the scope rule
onewriter;internal cmd examples;-;\.SyncAsync\(\);internal/lsm/filewriter.go;files are range-synced;the file writer
onereader;internal cmd examples;*env.go;\.ReadAt\(;internal/lsm/filereader.go;files are read;the file reader
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
