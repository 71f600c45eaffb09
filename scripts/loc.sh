#!/bin/sh
# loc: non-test, non-blank Go lines per package and in total, so a PR that
# claims to remove code quotes a counted number. Run from the repo root.
set -eu
find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' |
    xargs awk '
        FNR == 1 { dir = FILENAME; sub(/\/[^\/]*$/, "", dir) }
        NF > 0 { lines[dir]++; total++ }
        END {
            for (d in lines) printf "%7d %s\n", lines[d], d | "sort -k2"
            close("sort -k2")
            printf "%7d total\n", total
        }'
