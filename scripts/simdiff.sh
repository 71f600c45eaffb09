#!/bin/sh
# simdiff: the refactor oracle for the simulated side of the engine
# (EXPERIMENTS.md, "byte-identical"). Regenerates the paper's tables and
# figures at a short scale from a parent commit and from the working tree and
# requires the two output directories to be identical. ~1 minute per side.
#
#   scripts/simdiff.sh <parent-ref>
set -eu

[ $# -eq 1 ] || { echo "usage: $0 <parent-ref>" >&2; exit 2; }
GO=${GO:-go}
ROOT=$(git rev-parse --show-toplevel)
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM

mkdir "$WORK/src"
git -C "$ROOT" archive "$1" | tar -x -C "$WORK/src"

echo "simdiff: experiments at $1"
(cd "$WORK/src" && $GO run ./cmd/experiments -scale 400 -iters 3 -out "$WORK/parent" >/dev/null)
echo "simdiff: experiments at the working tree"
(cd "$ROOT" && $GO run ./cmd/experiments -scale 400 -iters 3 -out "$WORK/change" >/dev/null)

if diff -r "$WORK/parent" "$WORK/change"; then
    echo "simdiff: OK: summary.txt, figure3.csv and figure4.csv are identical to $1"
else
    echo "simdiff: FAIL: simulated results differ from $1" >&2
    exit 1
fi
