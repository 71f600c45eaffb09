#!/bin/sh
# onehist: latency histograms are written once. Bucket math (a
# sort.SearchFloat64s bucket lookup or a Percentile method) belongs to
# lsm.Histogram in internal/lsm/histogram.go; the engine, the benchmark
# reports, the flagger and the examples all record into and read from that
# one type. A second non-test file under internal/, cmd/ or examples/ that
# holds such math is a second histogram: use lsm.Histogram instead. Run from
# the repo root.
set -eu
found=$(find internal cmd examples -name '*.go' ! -name '*_test.go' |
    xargs grep -lE 'sort\.SearchFloat64s|\) Percentile\(' || true)
if [ "$found" != internal/lsm/histogram.go ]; then
    echo "onehist: FAIL: histogram bucket math lives outside internal/lsm/histogram.go alone:" >&2
    echo "${found:-(nowhere: the pattern no longer matches the histogram)}" >&2
    exit 1
fi
echo "onehist: OK"
