//! Measurement snapshot of one simulation run.

use smtsim_cpu::CoreStats;
use smtsim_energy::EnergyAccount;
use smtsim_mem::{LatencyHistogram, MemStats};

smtsim_obs::record! {
    /// Everything the figure harness needs from one run.
    #[derive(Debug, Clone)]
    pub struct SimResult {
        #[label]
        /// Policy label (e.g. `"FLUSH-S100"`).
        pub policy: String,
        #[label]
        /// Workload description (benchmark names, thread order).
        pub workload: Vec<String>,
        #[counter("cycles")]
        /// Simulated cycles.
        pub cycles: u64,
        #[gauge("instr/cycle", "Figs. 2, 3, 5, 8")]
        /// System throughput: instructions committed by every thread,
        /// per cycle.
        "throughput": f64 = |r| r.throughput(),
        #[gauge("instr/cycle")]
        /// Harmonic mean of the per-thread IPCs (0 when a thread
        /// committed nothing).
        "hmean_ipc": f64 = |r| r.hmean_ipc(),
        #[gauge("instr/cycle")]
        /// Each thread's committed instructions per cycle, in thread
        /// order.
        "per_thread_ipc": Vec<f64> = |r| r.per_thread_ipc(),
        #[counter("events")]
        /// FLUSH response actions executed, all cores.
        "total_flushes": u64 = |r| r.total_flushes(),
        #[record]
        /// Per-core statistics.
        pub cores: Vec<CoreStats>,
        #[record]
        /// Memory-system statistics.
        pub mem: MemStats,
        #[record]
        /// Distribution of L2-hit service times for loads (Fig. 4).
        pub l2_hit_hist: LatencyHistogram,
        #[record]
        /// Every thread's energy ledger, merged.
        "energy": EnergyAccount = |r| r.energy(),
    }
    decode with SimResult::check_identities;
}

impl SimResult {
    /// Total committed instructions across all threads.
    pub fn total_committed(&self) -> u64 {
        self.cores.iter().map(|c| c.total_committed()).sum()
    }

    /// System throughput in instructions per cycle — the paper's
    /// figure-of-merit for every throughput plot.
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_committed() as f64 / self.cycles as f64
        }
    }

    /// Per-thread IPCs in thread order.
    pub fn per_thread_ipc(&self) -> Vec<f64> {
        self.cores
            .iter()
            .flat_map(|c| c.threads.iter().map(|t| t.ipc(self.cycles)))
            .collect()
    }

    /// Merged energy ledger across all threads.
    pub fn energy(&self) -> EnergyAccount {
        let mut acc = EnergyAccount::new();
        for c in &self.cores {
            acc.merge(&c.energy());
        }
        acc
    }

    /// The paper's Fig. 11 metric: energy wasted by the FLUSH mechanism
    /// (refetched work), in commit-energy units.
    pub fn wasted_energy(&self) -> f64 {
        self.energy().wasted_energy()
    }

    /// FLUSH response actions executed across all cores.
    pub fn total_flushes(&self) -> u64 {
        self.cores.iter().map(|c| c.flushes_executed).sum()
    }

    /// Throughput ratio of `self` over a baseline run.
    pub fn speedup_over(&self, baseline: &SimResult) -> f64 {
        let b = baseline.throughput();
        if b == 0.0 {
            0.0
        } else {
            self.throughput() / b
        }
    }

    /// Harmonic mean of the per-thread IPCs — the standard SMT metric
    /// that rewards *balanced* progress: a policy that starves one
    /// thread to feed another scores worse here than on raw throughput.
    pub fn hmean_ipc(&self) -> f64 {
        let ipcs = self.per_thread_ipc();
        if ipcs.iter().any(|&i| i <= 0.0) {
            return 0.0;
        }
        ipcs.len() as f64 / ipcs.iter().map(|i| 1.0 / i).sum::<f64>()
    }

    /// Min/max fairness index over per-thread IPCs, in `[0, 1]`
    /// (1 = perfectly balanced). Note that multiprogrammed SPEC threads
    /// have very different intrinsic IPCs, so this measures *joint*
    /// imbalance, not policy-induced imbalance alone.
    pub fn fairness_index(&self) -> f64 {
        let ipcs = self.per_thread_ipc();
        let max = ipcs.iter().cloned().fold(f64::NAN, f64::max);
        let min = ipcs.iter().cloned().fold(f64::NAN, f64::min);
        if max.is_nan() || max <= 0.0 {
            return 0.0;
        }
        min / max
    }

    /// Per-thread speedups over a baseline run of the *same workload*
    /// (thread-by-thread), e.g. MFLUSH vs ICOUNT. Panics when the
    /// workloads differ.
    pub fn per_thread_speedup(&self, baseline: &SimResult) -> Vec<f64> {
        assert_eq!(
            self.workload, baseline.workload,
            "per-thread speedup needs identical workloads"
        );
        self.per_thread_ipc()
            .iter()
            .zip(baseline.per_thread_ipc())
            .map(|(a, b)| if b == 0.0 { 0.0 } else { a / b })
            .collect()
    }

    /// The identities between the counters of one run, checked on
    /// every decoded result:
    ///
    /// * each core's per-thread `flushes` sum to its
    ///   `flushes_executed` (so `total_flushes` agrees with both);
    /// * the memory system reports one entry per core;
    /// * no thread committed or squashed more instructions than it
    ///   fetched: `fetched − committed − flush_squashed −
    ///   branch_squashed` (the instructions still in flight when the
    ///   run ended) is not negative.
    pub fn check_identities(&self) -> Result<(), String> {
        if self.mem.cores.len() != self.cores.len() {
            return Err(format!(
                "{} cores but {} memory-system entries",
                self.cores.len(),
                self.mem.cores.len()
            ));
        }
        for (i, core) in self.cores.iter().enumerate() {
            let flushes = core
                .threads
                .iter()
                .try_fold(0u64, |sum, t| sum.checked_add(t.flushes));
            if flushes != Some(core.flushes_executed) {
                return Err(format!(
                    "core {i}: its threads' flushes do not sum to its {} flushes",
                    core.flushes_executed
                ));
            }
            for (tid, t) in core.threads.iter().enumerate() {
                if t.in_flight().is_none() {
                    return Err(format!(
                        "core {i} thread {tid}: more instructions committed or squashed \
                         than the {} fetched",
                        t.fetched
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtsim_cpu::ThreadStats;

    fn result_with(committed: &[u64], cycles: u64) -> SimResult {
        SimResult {
            policy: "TEST".into(),
            workload: vec!["a".into(); committed.len()],
            cycles,
            cores: committed
                .chunks(2)
                .map(|pair| CoreStats {
                    threads: pair
                        .iter()
                        .map(|&c| ThreadStats {
                            committed: c,
                            ..Default::default()
                        })
                        .collect(),
                    ..Default::default()
                })
                .collect(),
            mem: MemStats::default(),
            l2_hit_hist: LatencyHistogram::for_l2_hit_time(),
        }
    }

    #[test]
    fn throughput_and_ipc() {
        let r = result_with(&[100, 300], 100);
        assert!((r.throughput() - 4.0).abs() < 1e-12);
        assert_eq!(r.per_thread_ipc(), vec![1.0, 3.0]);
        assert_eq!(r.total_committed(), 400);
    }

    #[test]
    fn speedup_over_baseline() {
        let base = result_with(&[100, 100], 100);
        let fast = result_with(&[150, 150], 100);
        assert!((fast.speedup_over(&base) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_safe() {
        let r = result_with(&[0, 0], 0);
        assert_eq!(r.throughput(), 0.0);
    }

    #[test]
    fn hmean_punishes_imbalance() {
        let balanced = result_with(&[200, 200], 100);
        let skewed = result_with(&[390, 10], 100);
        assert_eq!(balanced.total_committed(), skewed.total_committed());
        assert!(balanced.hmean_ipc() > 3.0 * skewed.hmean_ipc());
    }

    #[test]
    fn hmean_zero_when_a_thread_starves() {
        let r = result_with(&[100, 0], 100);
        assert_eq!(r.hmean_ipc(), 0.0);
    }

    #[test]
    fn fairness_index_bounds() {
        assert!((result_with(&[100, 100], 100).fairness_index() - 1.0).abs() < 1e-12);
        assert!((result_with(&[100, 25], 100).fairness_index() - 0.25).abs() < 1e-12);
        assert_eq!(result_with(&[0, 0], 100).fairness_index(), 0.0);
    }

    #[test]
    fn per_thread_speedup_elementwise() {
        let base = result_with(&[100, 200], 100);
        let fast = result_with(&[150, 100], 100);
        assert_eq!(fast.per_thread_speedup(&base), vec![1.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "identical workloads")]
    fn per_thread_speedup_rejects_different_workloads() {
        let a = result_with(&[100], 100);
        let mut b = result_with(&[100], 100);
        b.workload = vec!["other".into()];
        let _ = a.per_thread_speedup(&b);
    }

    /// A real 4W3 MFLUSH run's result: every field non-trivial (histogram
    /// populated, energy non-zero, flushes executed).
    fn real_result(cycles: u64) -> SimResult {
        use crate::config::SimConfig;
        use crate::sim::Simulator;
        use crate::workloads::Workload;
        use smtsim_policy::PolicyKind;
        let w = Workload::by_name("4W3").unwrap();
        let cfg = SimConfig::for_workload(w, PolicyKind::Mflush).with_cycles(cycles);
        Simulator::build(&cfg).unwrap().run().unwrap()
    }

    /// `json` with the value of the first `"key":` replaced by `value`.
    fn with_value(json: &str, key: &str, value: &str) -> String {
        let start = json.find(&format!("\"{key}\":")).unwrap() + key.len() + 3;
        let rest = &json[start..];
        // The value ends where its brackets close, or at the `,`, `]`
        // or `}` after a scalar.
        let mut depth = 0;
        let mut len = rest.len();
        for (i, c) in rest.char_indices() {
            match c {
                '[' | '{' => depth += 1,
                ']' | '}' if depth > 0 => {
                    depth -= 1;
                    if depth == 0 {
                        len = i + 1;
                        break;
                    }
                }
                ',' | ']' | '}' if depth == 0 => {
                    len = i;
                    break;
                }
                _ => {}
            }
        }
        format!("{}{value}{}", &json[..start], &rest[len..])
    }

    #[test]
    fn json_roundtrip_is_byte_identical() {
        use crate::json::{parse_json, ToJson};
        let r = real_result(8_000);
        let encoded = r.to_json();
        let decoded = SimResult::from_json(&parse_json(&encoded).unwrap()).unwrap();
        assert_eq!(decoded.to_json(), encoded);
    }

    #[test]
    fn from_json_rejects_damaged_documents() {
        use crate::json::{parse_json, ToJson};
        let r = real_result(4_000);
        let real = r.to_json();
        // The first thread squashed instructions: fetching only those it
        // committed leaves the squashed ones unaccounted for.
        let first = &r.cores[0].threads[0];
        assert!(
            first.fetched > first.committed
                && first.in_flight() < Some(first.fetched - first.committed)
        );
        let committed_only = first.committed.to_string();
        for bad in [
            r#"{"policy":"X"}"#.to_string(),
            r#"{"policy":1,"workload":[],"cycles":5}"#.to_string(),
            r#"[1,2,3]"#.to_string(),
            // A histogram `LatencyHistogram::new` would refuse.
            with_value(&real, "bin_width", "0"),
            with_value(&real, "bins", "[]"),
            // Integers the field cannot hold, and arrays of the wrong
            // length.
            with_value(&real, "cycles", "-1"),
            with_value(&real, "cycles", "18446744073709551616"),
            with_value(&real, "cycles", "1.5"),
            with_value(&real, "flush_squashed", "[0,0,0,0,0,0,0,0,0]"),
            with_value(&real, "flush_squashed", "[0,0,0,0,0,0,0]"),
            // Counters that break an identity.
            with_value(&real, "flushes", "1000000007"),
            with_value(&real, "fetched", "0"),
            with_value(&real, "fetched", &committed_only),
            with_value(&real, "mem", r#"{"cores":[],"l2_hit_rate":0.0}"#),
        ] {
            let v = parse_json(&bad).unwrap();
            assert!(SimResult::from_json(&v).is_err(), "accepted {bad}");
        }
        assert!(SimResult::from_json(&parse_json(&real).unwrap()).is_ok());
    }
}
