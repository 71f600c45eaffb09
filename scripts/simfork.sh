#!/bin/sh
# simfork: the engine asks "am I simulated?" in exactly three places — the
# runtime choice in OpenConfig, the Write dispatch, and the auto-resume guard
# in bgerror.go — and writeSim uses its SimEnv. Any other read of db.sim in
# non-test internal/lsm code is a new fork of the engine: put the difference
# behind engineRuntime (runtime.go) instead. Run from the repo root.
set -eu
found=$(awk '
    FNR == 1 { fn = "" }
    /^func / { fn = $0 }
    /db\.sim([^A-Za-z0-9_]|$)/ {
        if (fn ~ /^func OpenConfig\(/ || fn ~ /\) Write\(/ || fn ~ /\) writeSim\(/ ||
            (FILENAME ~ /bgerror\.go$/ && fn ~ /\) setBGErrorLocked\(/)) next
        printf "%s:%d: %s\n", FILENAME, FNR, $0
    }' $(ls internal/lsm/*.go | grep -v _test.go))
if [ -n "$found" ]; then
    echo "simfork: FAIL: db.sim read outside OpenConfig, Write, writeSim and setBGErrorLocked:" >&2
    echo "$found" >&2
    exit 1
fi
echo "simfork: OK"
