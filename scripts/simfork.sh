#!/bin/sh
# simfork: the engine asks "am I simulated?" exactly once — the runtime choice
# in OpenConfig, the only env.(*SimEnv) assertion in non-test internal/lsm
# code — and has no DB.sim field to ask again: every sim/OS difference,
# the write queue included, lives behind engineRuntime (runtime.go, DESIGN
# §5.1). A db.sim reference or a second assertion is a new fork of the
# engine. Run from the repo root.
set -eu
found=$(awk '
    FNR == 1 { fn = "" }
    /^func / { fn = $0 }
    /db\.sim([^A-Za-z0-9_]|$)/ { printf "%s:%d: db.sim: %s\n", FILENAME, FNR, $0 }
    /\.\(\*SimEnv\)/ {
        if (fn ~ /^func OpenConfig\(/) { asserts++; next }
        printf "%s:%d: *SimEnv assertion outside OpenConfig: %s\n", FILENAME, FNR, $0
    }
    END { if (asserts != 1) printf "OpenConfig holds %d *SimEnv assertions, want exactly 1\n", asserts }
    ' $(ls internal/lsm/*.go | grep -v _test.go))
if [ -n "$found" ]; then
    echo "simfork: FAIL: the engine forks on SimEnv outside the runtime seam:" >&2
    echo "$found" >&2
    exit 1
fi
echo "simfork: OK"
