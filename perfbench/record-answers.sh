#!/usr/bin/env bash
# Re-records perfbench/expected/ from the current program: for every
# input set, the Table 2 answers of the one-thread (per-pop) and the
# two-thread (level-batch) drivers must agree line for line before they
# are kept, and the premerge answers are kept as recorded.
#
#   perfbench/record-answers.sh          # all input sets
#   perfbench/record-answers.sh 3 4      # only input sets 3 and 4
#
# Answers pin the program's behaviour: re-record only when a change is
# meant to change results, and say so.
set -euo pipefail
cd "$(dirname "$0")"
out="out/record"
sets=("$@")
if [ ${#sets[@]} -eq 0 ]; then
    sets=(0 1 2 3 4 5 6 7 8 9)
fi
for s in "${sets[@]}"; do
    for w in table2-t1 table2-t2 premerge; do
        cargo run --release -q -- --workload "$w" --seed "$s" --seconds 0 --trace 0 \
            --record --out "$out"
    done
    if ! cmp "$out/answers-table2-t1-s$s.tsv" "$out/answers-table2-t2-s$s.tsv"; then
        echo "record-answers: input set $s: the two drivers disagree" >&2
        exit 1
    fi
    cp "$out/answers-table2-t1-s$s.tsv" "expected/table2-s$s.tsv"
    cp "$out/answers-premerge-s$s.tsv" "expected/premerge-s$s.tsv"
done
