#!/bin/sh
# Prints non-test Go lines per package, outside perfbench/ (the
# benchmark is not the program). Report only: the "Quality of design"
# aim in ROADMAP.md counts a PR that deletes a path as worth one that
# adds a feature, and this is the number that shows it — next to the
# coverage ratchet in check.sh, which shows nothing was lost.
set -eu
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.bench_build/*' |
    while read -r f; do
        printf '%s %s\n' "$(dirname "$f")" "$(wc -l < "$f")"
    done |
    awk '{ n[$1] += $2; total += $2 }
         END { for (p in n) printf "%6d  %s\n", n[p], p; printf "%6d  total\n", total }' |
    sort -k2
