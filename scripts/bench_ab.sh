#!/usr/bin/env bash
# Host-time A/B of this tree against a parent revision, with the
# benchmark package (PERFORMANCE.md §1).
#
# Usage: scripts/bench_ab.sh PARENT_REV [PAIRS] [SECONDS] [SEED] [WORKLOAD...]
#
# Exports PARENT_REV into a scratch directory with `git archive` (no
# worktree is registered, and uncommitted changes in this tree are what
# gets measured), builds the benchmark on both sides with separate
# CARGO_TARGET_DIRs, then runs PAIRS alternated pairs per workload: the
# side that runs first flips on every pair, so clock throttling cannot
# favour one side. Each side's records are appended to a file of its
# own, and `benchmark compare` reads the two files at the end. After
# the verdicts it prints each side's median of the serve latencies that
# compare does not judge (hit_p50_ms, hit_p90_ms, cold_p50_ms), for each
# workload whose records carry them.
#
# Defaults: 10 pairs, 8 seconds per run, seed 1, every workload
# (paper-sweep, long-latency, serve-figures). The scratch directory is
# printed and kept. Host time is informational: CI never runs this.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/bench_ab.sh PARENT_REV [PAIRS] [SECONDS] [SEED] [WORKLOAD...]"
parent_rev=${1:?$usage}
pairs=${2:-10}
seconds=${3:-8}
seed=${4:-1}
shift $(( $# < 4 ? $# : 4 ))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
    workloads=(paper-sweep long-latency serve-figures)
fi

work=$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")
echo "bench_ab: $parent_rev vs working tree, $pairs pairs x ${seconds}s, seed $seed, in $work" >&2
mkdir "$work/parent"
git archive "$parent_rev" | tar -x -C "$work/parent"

manifest=crates/bench/src/bin/benchmark/Cargo.toml
build() { # side source-dir
    CARGO_TARGET_DIR="$work/target-$1" \
        cargo build --release --offline --quiet --manifest-path "$2/$manifest"
}
build parent "$work/parent"
build change .

run() { # side workload
    "$work/target-$1/release/benchmark" --workload "$2" --seed "$seed" \
        --seconds "$seconds" >>"$work/$1.jsonl"
}
for w in "${workloads[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        echo "bench_ab: $w pair $((i + 1))/$pairs" >&2
        if ((i % 2 == 0)); then
            run parent "$w"
            run change "$w"
        else
            run change "$w"
            run parent "$w"
        fi
    done
done

status=0
"$work/target-change/release/benchmark" compare "$work/parent.jsonl" "$work/change.jsonl" ||
    status=$?

median() { # side workload metric: median of the metric over the side's records
    grep -F '"benchmark":"smtsim"' "$work/$1.jsonl" | grep -F "\"workload\":\"$2\"" |
        grep -oE "\"$3\":\\{\"value\":[-+0-9.eE]+" | awk -F: '{ print $NF }' | sort -g |
        awk '{ v[NR] = $1 }
             END { if (NR) print (NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2) }' ||
        true # a workload without the metric has no match
}
echo
echo "serve latency medians, not judged by compare:"
printf '%-13s %-12s %10s %10s\n' workload metric parent change
for w in "${workloads[@]}"; do
    for m in hit_p50_ms hit_p90_ms cold_p50_ms; do
        before=$(median parent "$w" "$m")
        after=$(median change "$w" "$m")
        if [ -n "$before$after" ]; then
            printf '%-13s %-12s %10s %10s\n' "$w" "$m" "${before:--}" "${after:--}"
        fi
    done
done
exit "$status"
