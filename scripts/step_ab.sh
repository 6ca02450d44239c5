#!/usr/bin/env bash
# In-process A/B of `Simulator::step` time against a parent revision
# (PERFORMANCE.md §1).
#
# Usage: scripts/step_ab.sh PARENT_REV [REPS] [SEED]
#
# Exports PARENT_REV into a scratch directory with `git archive` (no
# worktree is registered, and uncommitted changes in this tree are what
# gets measured) and gives that copy a different workspace version, so
# Cargo can link both trees into one binary. It then generates a
# throwaway harness crate next to the copy that depends on both trees'
# smtsim-core and smtsim-policy, and builds it in release.
#
# The harness rebuilds the benchmark's 128 sim jobs (paper-sweep and
# long-latency at seed SEED) and runs every job REPS times on each side,
# alternating which side goes first. It times `Simulator::step` alone
# (prewarm included, build and snapshot excluded) by thread CPU time,
# keeps each job's best run per side, and prints per workload the sum
# of the best times per side, their ratio parent/change (below 1 means
# the change is slower) and the median of the per-job ratios. It exits
# 1 if any job's `SimResult::to_json` differs between the sides.
#
# Defaults: 5 reps, seed 1. The scratch directory is printed and kept.
# Host time is informational: CI only checks this script's syntax.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/step_ab.sh PARENT_REV [REPS] [SEED]"
parent_rev=${1:?$usage}
reps=${2:-5}
seed=${3:-1}

work=$(mktemp -d "${TMPDIR:-/tmp}/step_ab.XXXXXX")
echo "step_ab: $parent_rev vs working tree, best of $reps, seed $seed, in $work" >&2
mkdir "$work/parent" "$work/harness"
git archive "$parent_rev" | tar -x -C "$work/parent"
# Two path packages of one name and version cannot share a lock file.
sed -i '/^\[workspace\.package\]/,/^\[/ s/^version = .*/version = "0.0.0-parent"/' \
    "$work/parent/Cargo.toml"
grep -q '^version = "0.0.0-parent"' "$work/parent/Cargo.toml" || {
    echo "step_ab: no [workspace.package] version in $parent_rev's Cargo.toml" >&2
    exit 2
}

cat >"$work/harness/Cargo.toml" <<EOF
[package]
name = "step-ab"
version = "0.0.0"
edition = "2021"
publish = false

[dependencies]
parent_core = { package = "smtsim-core", path = "$work/parent/crates/core" }
parent_policy = { package = "smtsim-policy", path = "$work/parent/crates/policy" }
change_core = { package = "smtsim-core", path = "$PWD/crates/core" }
change_policy = { package = "smtsim-policy", path = "$PWD/crates/policy" }

# The workspace's release settings.
[profile.release]
debug = "line-tables-only"

[workspace]
EOF

mkdir "$work/harness/src"
cat >"$work/harness/src/main.rs" <<'EOF'
//! Step-time A/B harness generated by scripts/step_ab.sh.

/// The benchmark's two sim job lists for one side's crates, copied
/// from crates/bench/src/bin/benchmark/sims.rs (`SimSize::FULL`,
/// `fig8_jobs`, `paper_sweep`, `long_latency`).
macro_rules! side {
    ($side:ident, $core:ident, $policy:ident) => {
        mod $side {
            use $core::{SimConfig, Simulator, ToJson, Workload};
            use $policy::PolicyKind;

            /// sims.rs `SEED_STRIDE`.
            const SEED_STRIDE: u64 = 1_000_000;

            fn fig8_jobs(
                names: [&str; 4],
                cycles: u64,
                seed: u64,
                dram: Option<u64>,
            ) -> Vec<SimConfig> {
                let mut jobs = Vec::new();
                for name in names {
                    let w = Workload::by_name(name).expect("a paper workload");
                    for policy in PolicyKind::fig8_set() {
                        for j in 0..4 {
                            let mut cfg = SimConfig::for_workload(w, policy)
                                .with_cycles(cycles)
                                .with_seed(seed.wrapping_add(j * SEED_STRIDE));
                            if let Some(dram) = dram {
                                cfg.mem.dram_cycles = dram;
                            }
                            jobs.push(cfg);
                        }
                    }
                }
                jobs
            }

            /// paper-sweep's jobs, then long-latency's.
            pub fn jobs(seed: u64) -> Vec<SimConfig> {
                let mut jobs = fig8_jobs(["2W2", "4W3", "6W2", "8W2"], 12_000, seed, None);
                jobs.extend(fig8_jobs(["2W1", "2W5", "4W1", "4W5"], 56_000, seed, Some(800)));
                jobs
            }

            /// Thread CPU seconds of `step` over the whole run, and the
            /// result's JSON.
            pub fn run(cfg: &SimConfig) -> (f64, String) {
                let mut sim = Simulator::build(cfg).expect("the job builds");
                let t = crate::thread_cpu_s();
                sim.step(cfg.cycles).expect("the job runs");
                let step_s = crate::thread_cpu_s() - t;
                (step_s, sim.snapshot().to_json())
            }
        }
    };
}
side!(parent, parent_core, parent_policy);
side!(change, change_core, change_policy);

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_THREAD_CPUTIME_ID`.
const THREAD_CPUTIME: i32 = 3;

fn thread_cpu_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec.
    let rc = unsafe { clock_gettime(THREAD_CPUTIME, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID)");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn main() {
    let arg = |i: usize, default: u64| {
        std::env::args()
            .nth(i)
            .map_or(default, |a| a.parse().expect("a number"))
    };
    let (reps, seed) = (arg(1, 5).max(1), arg(2, 1));
    let (pj, cj) = (parent::jobs(seed), change::jobs(seed));
    assert_eq!(pj.len(), cj.len(), "the sides build different job lists");
    let mut best = vec![(f64::INFINITY, f64::INFINITY); pj.len()];
    let mut differ = 0;
    for rep in 0..reps {
        for i in 0..pj.len() {
            let ((ps, pjson), (cs, cjson)) = if (i + rep as usize) % 2 == 0 {
                let p = parent::run(&pj[i]);
                (p, change::run(&cj[i]))
            } else {
                let c = change::run(&cj[i]);
                (parent::run(&pj[i]), c)
            };
            if rep == 0 && pjson != cjson {
                eprintln!("step_ab: job {i} ({:?}) differs", pj[i].benchmarks);
                differ += 1;
            }
            best[i].0 = best[i].0.min(ps);
            best[i].1 = best[i].1.min(cs);
        }
        eprintln!("step_ab: rep {}/{reps} done", rep + 1);
    }
    println!("workload       jobs  parent_s  change_s  parent/change  median_job_ratio");
    let half = pj.len() / 2;
    for (name, range) in [
        ("paper-sweep", 0..half),
        ("long-latency", half..pj.len()),
        ("both", 0..pj.len()),
    ] {
        let b = &best[range];
        let (p, c) = b.iter().fold((0.0, 0.0), |(p, c), &(x, y)| (p + x, c + y));
        let ratio = median(b.iter().map(|&(x, y)| x / y).collect());
        println!(
            "{name:<13} {:>5} {p:>9.3} {c:>9.3} {:>14.4} {ratio:>17.4}",
            b.len(),
            p / c
        );
    }
    if differ > 0 {
        eprintln!("step_ab: {differ} job(s) differ between the sides");
        std::process::exit(1);
    }
}
EOF

CARGO_TARGET_DIR="$work/target" cargo build --release --offline --quiet \
    --manifest-path "$work/harness/Cargo.toml"
"$work/target/release/step-ab" "$reps" "$seed"
