//! Per-benchmark calibration: run each SPEC2000 profile paired with
//! itself on one core and report the metrics that the synthetic-trace
//! substitution promises (DESIGN.md §4). The ordering tests here are
//! the guard-rail that keeps profile tuning honest: whatever the
//! absolute numbers, `mcf` must stay the worst-behaved integer code and
//! `eon`/`gzip` the best-behaved ones, or every paper figure loses its
//! meaning.

use crate::config::SimConfig;
use crate::result::SimResult;
use crate::sim::Simulator;
use crate::sweep::{run_sweep_ok, SweepJob};
use smtsim_policy::PolicyKind;
use smtsim_trace::spec;

smtsim_obs::record! {
    /// One benchmark's measured behaviour (self-paired on one SMT core
    /// under ICOUNT).
    #[derive(Debug, Clone)]
    pub struct CalRow {
        #[label]
        /// Benchmark name (the paper's Fig. 1 legend key).
        pub name: String,
        #[gauge("instr/cycle")]
        /// Committed IPC per thread.
        pub ipc_per_thread: f64,
        #[gauge("fraction")]
        /// Branch prediction accuracy (committed conditional branches).
        pub branch_accuracy: f64,
        #[gauge("fraction")]
        /// L1D load miss rate.
        pub l1d_miss_rate: f64,
        #[gauge("fraction")]
        /// Shared-L2 demand hit rate.
        pub l2_hit_rate: f64,
        #[gauge("fraction")]
        /// D-TLB miss rate per load+store.
        pub dtlb_miss_rate: f64,
    }
}

/// The self-paired ICOUNT run that calibrates benchmark `name`.
fn calibration_config(name: &str, cycles: u64) -> SimConfig {
    SimConfig::for_benchmarks(&[name, name], PolicyKind::Icount).with_cycles(cycles)
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl CalRow {
    /// The calibration row of benchmark `name` from its run `r`.
    fn from_result(name: String, r: &SimResult) -> Self {
        let core = &r.cores[0];
        let mem = &r.mem.cores[0];
        let branches: u64 = core.threads.iter().map(|t| t.branches).sum();
        let mispredicts: u64 = core.threads.iter().map(|t| t.mispredicts).sum();
        CalRow {
            name,
            ipc_per_thread: r.throughput() / core.threads.len() as f64,
            branch_accuracy: 1.0 - ratio(mispredicts, branches),
            l1d_miss_rate: ratio(mem.load_l1_misses, mem.loads),
            l2_hit_rate: ratio(mem.l2_hits, mem.l2_hits + mem.l2_misses),
            dtlb_miss_rate: ratio(mem.dtlb_misses, mem.loads + mem.stores),
        }
    }
}

/// Run the calibration suite (26 single-core simulations, parallel).
pub fn calibrate(cycles: u64, workers: usize) -> Vec<CalRow> {
    let jobs: Vec<SweepJob> = spec::ALL_BENCHMARKS
        .iter()
        .map(|b| SweepJob::new(b.name, calibration_config(b.name, cycles)))
        .collect();
    run_sweep_ok(&jobs, workers)
        .into_iter()
        .map(|(name, r)| CalRow::from_result(name, &r))
        .collect()
}

/// Run calibration for a single benchmark (cheaper for tests).
pub fn calibrate_one(name: &str, cycles: u64) -> CalRow {
    let r = Simulator::build(&calibration_config(name, cycles))
        .expect("calibration config is valid")
        .run()
        .expect("calibration runs make forward progress");
    CalRow::from_result(name.to_string(), &r)
}

/// Render the calibration rows as a JSON array (machine-readable twin
/// of [`calibration_table`]).
pub fn calibration_json(rows: &[CalRow]) -> String {
    use crate::json::ToJson;
    rows.to_json()
}

/// Render a calibration table.
pub fn calibration_table(rows: &[CalRow]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<10}{:>9}{:>9}{:>9}{:>9}{:>9}",
        "bench", "ipc/thr", "br acc", "l1d m%", "l2 hit%", "dtlb m%"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<10}{:>9.3}{:>9.3}{:>9.2}{:>9.2}{:>9.3}",
            r.name,
            r.ipc_per_thread,
            r.branch_accuracy,
            100.0 * r.l1d_miss_rate,
            100.0 * r.l2_hit_rate,
            100.0 * r.dtlb_miss_rate
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const CYCLES: u64 = 25_000;

    #[test]
    fn memory_bound_threads_behave_memory_bound() {
        let mcf = calibrate_one("mcf", CYCLES);
        let eon = calibrate_one("eon", CYCLES);
        assert!(
            mcf.ipc_per_thread < eon.ipc_per_thread / 3.0,
            "mcf {:.3} vs eon {:.3}",
            mcf.ipc_per_thread,
            eon.ipc_per_thread
        );
        assert!(mcf.l1d_miss_rate > 3.0 * eon.l1d_miss_rate);
    }

    #[test]
    fn ilp_threads_are_fast() {
        for name in ["gzip", "eon", "mesa", "sixtrack"] {
            let r = calibrate_one(name, CYCLES);
            assert!(
                r.ipc_per_thread > 0.6,
                "{name}: ipc {:.3} too low for an ILP code",
                r.ipc_per_thread
            );
        }
    }

    #[test]
    fn streamers_miss_the_l1_heavily() {
        for name in ["swim", "lucas", "art"] {
            let r = calibrate_one(name, CYCLES);
            assert!(
                r.l1d_miss_rate > 0.10,
                "{name}: l1d miss {:.3} too low for a streamer",
                r.l1d_miss_rate
            );
        }
    }

    #[test]
    fn fp_codes_predict_branches_well() {
        for name in ["swim", "wupwise", "lucas"] {
            let r = calibrate_one(name, CYCLES);
            assert!(
                r.branch_accuracy > 0.93,
                "{name}: acc {:.3}",
                r.branch_accuracy
            );
        }
    }

    #[test]
    fn table_renders_all_rows() {
        let rows = vec![calibrate_one("gzip", 5_000), calibrate_one("mcf", 5_000)];
        let t = calibration_table(&rows);
        assert!(t.contains("gzip"));
        assert!(t.contains("mcf"));
        let j = calibration_json(&rows);
        assert!(j.starts_with("[{\"name\":\"gzip\",\"ipc_per_thread\":"));
        assert!(j.contains("{\"name\":\"mcf\""));
    }

    #[test]
    fn suite_and_single_runs_compute_the_same_row() {
        use crate::json::ToJson;
        let suite = calibrate(2_000, 0);
        let mcf = suite
            .iter()
            .find(|r| r.name == "mcf")
            .expect("mcf is calibrated");
        assert_eq!(mcf.to_json(), calibrate_one("mcf", 2_000).to_json());
    }
}
