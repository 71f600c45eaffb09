#!/bin/sh
# onelru: the recency list is written once. The block cache, the table cache
# and SimEnv's page-cache model are all built on lru in internal/lsm/lru.go;
# a second non-test file under internal/, cmd/ or examples/ that moves list
# entries to the front (it holds MoveToFront, "PushFront(" or "pushFront(")
# is a second LRU: build it on lru instead. Run from the repo root.
set -eu
found=$(find internal cmd examples -name '*.go' ! -name '*_test.go' |
    xargs grep -lE 'MoveToFront|PushFront\(|pushFront\(' || true)
if [ "$found" != internal/lsm/lru.go ]; then
    echo "onelru: FAIL: recency-list code lives outside internal/lsm/lru.go alone:" >&2
    echo "${found:-(nowhere: the pattern no longer matches the lru)}" >&2
    exit 1
fi
echo "onelru: OK"
