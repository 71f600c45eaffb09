#!/bin/sh
# serverbench: smoke-test the networked KV service end to end.
#
# Builds kvserver and dbbench, starts a 2-shard server on an ephemeral port,
# drives a short mixed workload over pipelined connections, asserts nonzero
# throughput and no failed operations, prints responses per socket write from
# /metrics, then checks the server shuts down cleanly on SIGINT.
set -eu

GO=${GO:-go}
WORK=$(mktemp -d)
trap 'status=$?; [ -n "${SRV_PID:-}" ] && kill "$SRV_PID" 2>/dev/null; wait 2>/dev/null || true; rm -rf "$WORK"; exit $status' EXIT INT TERM

echo "serverbench: building binaries"
$GO build -o "$WORK/kvserver" ./cmd/kvserver
$GO build -o "$WORK/dbbench" ./cmd/dbbench

echo "serverbench: starting kvserver"
"$WORK/kvserver" -addr 127.0.0.1:0 -db "$WORK/db" -shards 2 \
    -metrics_addr 127.0.0.1:0 -ready_file "$WORK/addr" >"$WORK/server.log" 2>&1 &
SRV_PID=$!

# Wait for the ready file (the server writes its bound address atomically).
i=0
while [ ! -f "$WORK/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serverbench: FAIL: server never became ready" >&2
        cat "$WORK/server.log" >&2
        exit 1
    fi
    if ! kill -0 "$SRV_PID" 2>/dev/null; then
        echo "serverbench: FAIL: server exited during startup" >&2
        cat "$WORK/server.log" >&2
        exit 1
    fi
    sleep 0.1
done
ADDR=$(cat "$WORK/addr")
echo "serverbench: server ready on $ADDR"

echo "serverbench: running mixed workload over 16 pipelined connections"
"$WORK/dbbench" -server "$ADDR" -benchmarks readrandomwriterandom \
    -num 20000 -value_size 128 -connections 16 -pipeline 4 \
    >"$WORK/bench.out" 2>&1
cat "$WORK/bench.out"

# The report prints "<workload> : ... ops/sec". Reject a zero rate.
if ! grep -Eq '[1-9][0-9,.]* *ops/sec' "$WORK/bench.out"; then
    echo "serverbench: FAIL: no nonzero ops/sec in report" >&2
    exit 1
fi

# The one driver counts failed requests; a healthy server fails none (dbbench
# also exits non-zero on them, which set -e above already turns into a FAIL).
if grep -q '^errors:' "$WORK/bench.out"; then
    echo "serverbench: FAIL: the report counts failed operations" >&2
    exit 1
fi

# Responses per socket write and write requests per engine commit, read off
# /metrics (printed, not gated: both are what the load's concurrency allows,
# 1.0 meaning no batching at all).
METRICS=$(sed -n 's|.*serving Prometheus metrics on \(http://[^ ]*\).*|\1|p' "$WORK/server.log")
if [ -n "$METRICS" ] && command -v curl >/dev/null 2>&1; then
    curl -s "$METRICS" | awk '
        /^kvserver_requests_total\{/ { req += $2 }
        /^kvserver_requests_total\{op="(put|delete|batch)"\}/ { wr += $2 }
        /^kvserver_flushes_total / { fl = $2 }
        /^kvserver_write_commits_total / { wc = $2 }
        END {
            if (fl > 0) printf "serverbench: %d requests / %d flushes = %.2f responses per flush\n", req, fl, req / fl
            if (wc > 0) printf "serverbench: %d writes / %d commits = %.2f writes per commit\n", wr, wc, wr / wc
        }'
fi

echo "serverbench: asking server to shut down"
kill -INT "$SRV_PID"
wait "$SRV_PID" || {
    echo "serverbench: FAIL: server exited nonzero" >&2
    cat "$WORK/server.log" >&2
    exit 1
}
SRV_PID=
if ! grep -q "clean shutdown" "$WORK/server.log"; then
    echo "serverbench: FAIL: no clean-shutdown marker in server log" >&2
    cat "$WORK/server.log" >&2
    exit 1
fi
echo "serverbench: PASS"
