//! Integration tests asserting the paper's headline claims *in shape*.
//!
//! These run scaled-down intervals (tens of thousands of cycles instead
//! of the paper's 120 M) so thresholds are generous; the full-budget
//! numbers live in EXPERIMENTS.md and are regenerated by
//! `cargo run --release -p smtsim-bench --bin figures`.

use mflush::policy::mflush::MflushConfig;
use mflush::prelude::*;
use mflush::sim::{run_sweep_ok, SweepJob};

const CYCLES: u64 = 40_000;

fn avg_throughput(size: usize, policy: PolicyKind) -> f64 {
    let jobs: Vec<SweepJob> = Workload::of_size(size)
        .into_iter()
        .map(|w| {
            SweepJob::new(
                w.name,
                SimConfig::for_workload(w, policy).with_cycles(CYCLES),
            )
        })
        .collect();
    let results = run_sweep_ok(&jobs, 0);
    results.iter().map(|(_, r)| r.throughput()).sum::<f64>() / results.len() as f64
}

/// Paper §3.1 / Fig. 2: on a single-core SMT, the FLUSH mechanism
/// yields a solid average speedup over ICOUNT across the 2-thread
/// workloads (paper: +22 % average, up to +93 %).
#[test]
fn fig2_flush_beats_icount_on_single_core() {
    let ic = avg_throughput(2, PolicyKind::Icount);
    let fl = avg_throughput(2, PolicyKind::FlushSpec(30));
    assert!(
        fl > ic * 1.10,
        "single-core FLUSH-S30 must clearly beat ICOUNT: {fl:.3} vs {ic:.3}"
    );
}

/// Paper §3.2 / Fig. 3: the FLUSH-S30 advantage shrinks as SMT cores
/// are added (paper: from +22 % at 1 core to −9 % at 4 cores; we
/// reproduce the monotonic-decay *shape*).
#[test]
fn fig3_flush_advantage_decays_with_cores() {
    let ratio = |size| {
        avg_throughput(size, PolicyKind::FlushSpec(30)) / avg_throughput(size, PolicyKind::Icount)
    };
    let r2 = ratio(2);
    let r8 = ratio(8);
    assert!(
        r2 > r8 + 0.10,
        "FLUSH-S30's edge must decay from 1 core ({r2:.3}) to 4 cores ({r8:.3})"
    );
    assert!(
        r8 < 1.10,
        "at 4 cores the FLUSH-S30 advantage must be (nearly) gone, got {r8:.3}"
    );
}

/// Paper §3.2 / Fig. 4: both the mean and the dispersion of the L2-hit
/// service time grow with the number of cores sharing the L2.
#[test]
fn fig4_l2_hit_time_mean_and_dispersion_grow_with_cores() {
    let merged_hist = |size: usize| {
        let jobs: Vec<SweepJob> = Workload::of_size(size)
            .into_iter()
            .map(|w| {
                SweepJob::new(
                    w.name,
                    SimConfig::for_workload(w, PolicyKind::Icount).with_cycles(CYCLES),
                )
            })
            .collect();
        let results = run_sweep_ok(&jobs, 0);
        let mut h = mflush::mem::LatencyHistogram::for_l2_hit_time();
        for (_, r) in &results {
            h.merge(&r.l2_hit_hist);
        }
        h
    };
    let one_core = merged_hist(2);
    let four_cores = merged_hist(8);
    assert!(one_core.count() > 200 && four_cores.count() > 200);
    assert!(
        four_cores.mean() > one_core.mean() + 3.0,
        "mean L2 hit time must grow: {:.1} → {:.1}",
        one_core.mean(),
        four_cores.mean()
    );
    assert!(
        four_cores.std_dev() > one_core.std_dev() + 3.0,
        "dispersion must grow: {:.1} → {:.1}",
        one_core.std_dev(),
        four_cores.std_dev()
    );
}

/// Paper §3.3 / Fig. 5: there is no single best trigger — low triggers
/// suffer false misses, high triggers let threads clog resources.
/// Verify that the throughput-vs-trigger curve is workload-dependent by
/// checking that the S30-to-S150 *slope* differs across workloads.
#[test]
fn fig5_best_trigger_is_workload_dependent() {
    let run = |w: &Workload, x: u64| {
        Simulator::build(&SimConfig::for_workload(w, PolicyKind::FlushSpec(x)).with_cycles(CYCLES))
            .unwrap()
            .run()
            .unwrap()
            .throughput()
    };
    let w_a = Workload::by_name("8W3").unwrap();
    let w_b = Workload::by_name("bzip2x4+twolfx4").unwrap();
    let slope_a = run(w_a, 150) / run(w_a, 30);
    let slope_b = run(w_b, 150) / run(w_b, 30);
    assert!(
        (slope_a - slope_b).abs() > 0.02,
        "trigger sensitivity should differ across workloads: {slope_a:.3} vs {slope_b:.3}"
    );
}

/// Paper §4 / Fig. 6: the operational environment equations.
#[test]
fn fig6_operational_environment_equations() {
    let c = MflushConfig::paper(4, 4);
    assert_eq!(c.mt(), (4 + 15) * 3, "MT = (bus+bank)·(cores−1)");
    assert_eq!(c.preventive_threshold(), 22 + 57, "preventive = MIN+MT");
    assert_eq!(c.barrier(55), 55 + 11 + 57, "BARRIER = pred + MIN/2 + MT");
    assert_eq!(c.barrier(0), 22 + 57, "clamped below at MIN+MT");
    assert_eq!(c.barrier(100_000), 272 + 57, "clamped above at MAX+MT");
}

/// Paper §4.2 / Fig. 8: MFLUSH's throughput lands within a few percent
/// of the best-performing speculative FLUSH (FLUSH-S100) without
/// needing an a-priori trigger.
#[test]
fn fig8_mflush_matches_best_speculative_flush() {
    let s100 = avg_throughput(8, PolicyKind::FlushSpec(100));
    let mflush = avg_throughput(8, PolicyKind::Mflush);
    let ratio = mflush / s100;
    assert!(
        ratio > 0.93,
        "MFLUSH must be within a few % of FLUSH-S100: ratio {ratio:.3}"
    );
}

/// Paper §4.3 / Fig. 11: MFLUSH wastes clearly less refetch energy than
/// FLUSH-S100 (paper: −20 %) at nearly equal throughput.
#[test]
fn fig11_mflush_saves_energy_over_flush_s100() {
    let wasted = |policy: PolicyKind| {
        let jobs: Vec<SweepJob> = Workload::of_size(8)
            .into_iter()
            .map(|w| {
                SweepJob::new(
                    w.name,
                    SimConfig::for_workload(w, policy).with_cycles(CYCLES),
                )
            })
            .collect();
        run_sweep_ok(&jobs, 0)
            .iter()
            .map(|(_, r)| r.wasted_energy())
            .sum::<f64>()
    };
    let s100 = wasted(PolicyKind::FlushSpec(100));
    let mflush = wasted(PolicyKind::Mflush);
    assert!(
        mflush < s100 * 0.97,
        "MFLUSH must waste less energy than FLUSH-S100: {mflush:.0} vs {s100:.0}"
    );
}

/// ICOUNT performs no flushes, so it wastes no refetch energy — the
/// zero line every Fig. 11 bar is measured against.
#[test]
fn icount_wastes_no_flush_energy() {
    let w = Workload::by_name("8W1").unwrap();
    let r = Simulator::build(&SimConfig::for_workload(w, PolicyKind::Icount).with_cycles(20_000))
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(r.total_flushes(), 0);
    assert_eq!(r.wasted_energy(), 0.0);
}
