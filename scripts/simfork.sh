#!/bin/sh
# simfork: the engine asks "am I simulated?" exactly once — the runtime choice
# in OpenConfig, the only env.(*SimEnv) assertion in non-test internal/lsm
# code — and has no DB.sim field to ask again: every sim/OS difference,
# the write queue included, lives behind engineRuntime (runtime.go, DESIGN
# §5.1). A db.sim reference or a second assertion is a new fork of the
# engine.
#
# What the simulator charges is one table, simPrices (internal/lsm/
# simprices.go): a ChargeCPU( / ChargeLatency( / opCost += / TakeOpCost()
# line in non-test internal/lsm or internal/bench code that holds a
# time.Nanosecond or time.Microsecond literal anywhere else is a price
# outside the table.
# Run from the repo root.
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
prices=$(grep -nE '(ChargeCPU\(|ChargeLatency\(|opCost \+=|TakeOpCost\(\)).*time\.(Nano|Micro)second' \
    $(ls internal/lsm/*.go internal/bench/*.go | grep -v -e _test.go -e /simprices.go) || true)
if [ -n "$prices" ]; then
    echo "simfork: FAIL: a simulated price outside simPrices (internal/lsm/simprices.go):" >&2
    echo "$prices" >&2
    exit 1
fi
echo "simfork: OK"
