#!/usr/bin/env bash
# Tier-1 verification: build, test, lint — fully offline.
#
# The workspace has zero external dependencies (see DESIGN.md §9), so
# every step runs with `--offline`; a network-less container must pass
# this script bit-for-bit the same as a connected laptop.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== format (cargo fmt --check) =="
# Gate 0: the workspace stays in default rustfmt style. The benchmark
# package is not a workspace member, so this does not reach it.
cargo fmt --all -- --check

echo "== shell syntax (bash -n) =="
# Gate 0b: every script parses. No gate runs bench_ab.sh or
# step_ab.sh (host time never gates), and loc.sh only prints, so a
# broken edit to one of them would otherwise go unnoticed.
for script in scripts/*.sh; do
    bash -n "$script"
done

echo "== build (release, offline) =="
# Gate 1.
cargo build --release --offline --workspace

echo "== test (workspace, offline) =="
# Gate 2: every workspace test, then the benchmark package's.
cargo test -q --offline --workspace

echo "== benchmark package tests (offline) =="
# The benchmark is a package of its own (not a workspace member), so the
# workspace gate above does not reach it. Its traced driver rebuilds
# Simulator::build from public cpu/mem parts; traced_driver_is_byte_identical
# catches any drift between the two.
cargo test --release --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml

echo "== determinism lint (smtsim-lint, call-graph rules) =="
# Gate 3: the in-tree determinism linter (DESIGN.md §10/§14), including
# the call-graph rules D10-D12. Exits nonzero on any unwaived finding;
# the baseline file grandfathers nothing today (it is kept empty on
# purpose). The runtime budget line is informational (host time never
# gates) but keeps the whole-workspace graph pass honest: if it creeps
# past the budget, precompute or prune before it gets skipped-when-slow.
# It times the binary gate 1 built, so cargo's own work stays outside
# the timed span.
LINT_BUDGET_MS=5000
lint_start=$(date +%s%N)
target/release/smtsim-lint --baseline scripts/lint-baseline.txt
lint_ms=$(( ($(date +%s%N) - lint_start) / 1000000 ))
echo "lint runtime: ${lint_ms}ms (budget ${LINT_BUDGET_MS}ms, informational)"
if [ "$lint_ms" -gt "$LINT_BUDGET_MS" ]; then
    echo "warning: lint runtime exceeded its budget" >&2
fi
# The linter's own gates: fixture golden + seeded mutations, and the
# generated LINTS.md must match the Rule metadata (BLESS=1 regenerates).
cargo test -q --offline -p smtsim-analysis --test lint_golden
cargo test -q --offline -p smtsim-analysis --test lints_doc

echo "== robustness (fault injection, watchdog, kill-resume) =="
# Gate 4: the failure-model suite (DESIGN.md §11). The targets also run
# under the workspace test gate; naming them here keeps the robustness
# bar visible and adds the cross-process kill -9 resume check, which no
# in-process test can cover.
cargo test -q --offline -p smtsim-core --test robustness
cargo test -q --offline -p smtsim-mem --lib fault
scripts/kill_resume_smoke.sh

echo "== observability (trace determinism, METRICS.md drift) =="
# Gate 5: the observability suite (DESIGN.md §12). Also part of the
# workspace test gate; named here because the METRICS.md drift test is
# the doc-generation contract (BLESS=1 regenerates) and the trace
# byte-identity tests are the feature's whole determinism claim.
cargo test -q --offline -p smtsim-core --test obs_trace
cargo test -q --offline -p smtsim-core --test metrics_doc

echo "== model goldens (== pre-refactor bytes) =="
# Gate 6: the model's byte-level goldens (crates/core/tests/fidelity.rs,
# named after the retired fidelity selection, DESIGN.md §13). Also part
# of the workspace test gate; named here because byte-drift in the
# model silently invalidates every golden figure.
# The range prewarm must leave every tag array and TLB exactly as the
# line-by-line warm did, or every warmed run drifts from its golden;
# warm ranges installed set by set on first look must answer every
# access, fill and probe as that warm would. A set is built (its tag
# lines written) only when first looked at, and which sets are built,
# or in what order, must not change what the cache compares equal to.
# The issue-queue scheduler must agree with the ROB after every tick
# and wake an instruction that reads one register twice, or runs wedge
# or issue out of order. `figures all ablations extensions --cycles
# 3000` must print its committed golden byte for byte (BLESS=1
# regenerates it after an intended model change).
cargo test -q --offline -p smtsim-core --test fidelity
# Every golden result must satisfy the counter identities its decoder
# checks (each thread's flushes sum to its core's, one memory entry per
# core, no thread finishing more instructions than it fetched, and no
# more in flight at the end than its ROB and fetch queue hold), and
# every key of its JSON must be a registered row of the record tables,
# in order, so METRICS.md's "Result fields" lists exactly what a result
# reports.
cargo test -q --offline -p smtsim-core --test fidelity -- --exact \
    every_golden_holds_the_counter_identities \
    every_result_key_is_a_registered_field_in_order
cargo test -q --offline -p smtsim-bench --test figures_cli figures_at_3000_cycles_match_the_golden
cargo test -q --offline -p smtsim-cpu --test pipeline scheduler_invariants_hold_every_tick
cargo test -q --offline -p smtsim-cpu --test mechanisms duplicate_source_issues_once_its_register_is_ready
cargo test -q --offline -p smtsim-mem --test properties prewarm_equivalence
cargo test -q --offline -p smtsim-mem --test properties warm_ranges_install_lazily_as_eager_fills
cargo test -q --offline -p smtsim-mem --lib -- --exact \
    cache::tests::mod_inverse_inverts_every_unit_below_300 \
    cache::tests::new_and_recorded_caches_build_no_set \
    cache::tests::one_access_builds_exactly_one_set \
    cache::tests::install_warm_builds_every_set \
    cache::tests::sets_built_in_different_orders_compare_equal \
    cache::tests::stamp_or_stats_differences_compare_unequal \
    cache::tests::a_clone_keeps_room_for_every_set
# A squash rewinds the thread's trace to its oldest squashed
# correct-path instruction, and the trace's ring must still hold every
# instruction a squash can rewind past. A rewind that lands one
# instruction off, or a ring sized from anything but the core's ROB
# and fetch queue, replays the wrong instructions: every thread must
# still commit its trace in order, exactly once, across FLUSH and
# mispredicts, and a rewound suffix must replay byte for byte.
cargo test -q --offline -p smtsim-cpu --test pipeline different_policies_still_commit_correctly
cargo test -q --offline -p smtsim-cpu --test pipeline mispredicts_happen_and_are_recovered
cargo test -q --offline -p smtsim-cpu --test pipeline replay_ring_covers_the_configured_rob_and_fetch_queue
cargo test -q --offline -p smtsim-trace --test properties replay_suffix_roundtrip

echo "== serve (fault tolerance, cache replay, kill -9 restart) =="
# Gate 7: the serving layer's robustness suite (DESIGN.md §15). Also
# part of the workspace test gate; named here because the cross-process
# smoke — kill -9 a real server, restart on the same journal, demand a
# byte-identical replayed answer — only exists as a script.
cargo test -q --offline -p smtsim-serve --test robustness
cargo test -q --offline -p smtsim-serve --test corruption
# An older binary's journal must still load, decode on lookup exactly
# as parse_cache_line does, and re-render byte for byte.
cargo test -q --offline -p smtsim-core --test journal_format
scripts/serve_smoke.sh

echo "== rustdoc (-D warnings) =="
# Gate 8: the API reference must build warning-free (missing docs on
# the core/obs surfaces are warnings via #![warn(missing_docs)], and
# broken intra-doc links are rejected here).
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace -q

echo "== clippy (-D warnings) =="
# Gate 9: clippy over every target, warnings denied.
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --offline --workspace --all-targets -- -D warnings
else
    # Minimal toolchains may lack the clippy component; the build and
    # test gates above still hold.
    echo "clippy not installed; skipping lint gate" >&2
fi

echo "== size (non-test Rust lines per crate, informational) =="
# Nothing gates on this; it makes the line counts changes report
# reproducible.
scripts/loc.sh

echo "== ci green =="
