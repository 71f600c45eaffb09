#!/bin/sh
# onestream: the workload is written once. The op-mix decision (a read of
# Spec.ReadFraction / Spec.ScanFraction) and the Pareto value-size draw belong
# to the one op source in internal/bench; workload.go only defines and
# validates them. A second non-test file under internal/ or cmd/ that reads
# them is a second copy of the load generator: consume bench.OpSource (or
# Spec.Sources) instead. Run from the repo root.
set -eu
found=$(find internal cmd -name '*.go' ! -name '*_test.go' ! -path internal/bench/workload.go |
    xargs grep -lE '[Ss]pec\.(ReadFraction|ScanFraction)|paretoValueSize\(' || true)
if [ "$found" != internal/bench/op.go ]; then
    echo "onestream: FAIL: the op mix is decided outside internal/bench/op.go alone:" >&2
    echo "${found:-(nowhere: the pattern no longer matches the op source)}" >&2
    exit 1
fi
echo "onestream: OK"
