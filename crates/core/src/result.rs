//! Measurement snapshot of one simulation run.

use crate::json::JsonValue;
use smtsim_cpu::{CoreStats, ThreadStats};
use smtsim_energy::EnergyAccount;
use smtsim_mem::{CoreMemStats, LatencyHistogram, MemStats};

/// Everything the figure harness needs from one run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Policy label (e.g. `"FLUSH-S100"`).
    pub policy: String,
    /// Workload description (benchmark names, thread order).
    pub workload: Vec<String>,
    /// Simulated cycles.
    pub cycles: u64,
    /// Per-core statistics.
    pub cores: Vec<CoreStats>,
    /// Memory-system statistics.
    pub mem: MemStats,
    /// Distribution of L2-hit service times for loads (Fig. 4).
    pub l2_hit_hist: LatencyHistogram,
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

    /// Decode a result from its own JSON rendering (the sweep journal's
    /// replay path). Only the *raw* fields are read — every float in
    /// the JSON (`throughput`, `hmean_ipc`, `l2_hit_rate`, energy
    /// ratios, …) is derived from them and recomputed at emit time, so
    /// `decode(encode(r)).to_json() == r.to_json()` byte-for-byte.
    pub fn from_json(v: &JsonValue) -> Result<SimResult, String> {
        Ok(SimResult {
            policy: v.req_str("policy")?.to_string(),
            workload: v
                .req_arr("workload")?
                .iter()
                .map(|w| {
                    w.as_str()
                        .map(String::from)
                        .ok_or_else(|| "non-string workload entry".to_string())
                })
                .collect::<Result<_, _>>()?,
            cycles: v.req_u64("cycles")?,
            cores: v
                .req_arr("cores")?
                .iter()
                .map(core_stats_from_json)
                .collect::<Result<_, _>>()?,
            mem: mem_stats_from_json(v.get("mem").ok_or("missing mem")?)?,
            l2_hit_hist: histogram_from_json(v.get("l2_hit_hist").ok_or("missing l2_hit_hist")?)?,
        })
    }
}

fn u64_array(v: &JsonValue, key: &str) -> Result<Vec<u64>, String> {
    v.req_arr(key)?
        .iter()
        .map(|x| x.as_u64().ok_or_else(|| format!("non-integer in {key:?}")))
        .collect()
}

fn u64_array8(v: &JsonValue, key: &str) -> Result<[u64; 8], String> {
    u64_array(v, key)?
        .try_into()
        .map_err(|_| format!("{key:?} is not 8 entries"))
}

fn energy_from_json(v: &JsonValue) -> Result<EnergyAccount, String> {
    Ok(EnergyAccount::from_parts(
        v.req_u64("committed")?,
        u64_array8(v, "flush_squashed")?,
        u64_array8(v, "branch_squashed")?,
    ))
}

fn thread_stats_from_json(v: &JsonValue) -> Result<ThreadStats, String> {
    Ok(ThreadStats {
        committed: v.req_u64("committed")?,
        fetched: v.req_u64("fetched")?,
        branches: v.req_u64("branches")?,
        mispredicts: v.req_u64("mispredicts")?,
        loads_issued: v.req_u64("loads_issued")?,
        flushes: v.req_u64("flushes")?,
        energy: energy_from_json(v.get("energy").ok_or("missing energy")?)?,
    })
}

fn core_stats_from_json(v: &JsonValue) -> Result<CoreStats, String> {
    Ok(CoreStats {
        threads: v
            .req_arr("threads")?
            .iter()
            .map(thread_stats_from_json)
            .collect::<Result<_, _>>()?,
        fetch_active_cycles: v.req_u64("fetch_active_cycles")?,
        iq_full_stalls: v.req_u64("iq_full_stalls")?,
        reg_full_stalls: v.req_u64("reg_full_stalls")?,
        rob_full_stalls: v.req_u64("rob_full_stalls")?,
        mshr_retries: v.req_u64("mshr_retries")?,
        flushes_executed: v.req_u64("flushes_executed")?,
        stalls_executed: v.req_u64("stalls_executed")?,
        store_forwards: v.req_u64("store_forwards")?,
    })
}

fn core_mem_stats_from_json(v: &JsonValue) -> Result<CoreMemStats, String> {
    Ok(CoreMemStats {
        ifetches: v.req_u64("ifetches")?,
        ifetch_l1_misses: v.req_u64("ifetch_l1_misses")?,
        loads: v.req_u64("loads")?,
        load_l1_misses: v.req_u64("load_l1_misses")?,
        stores: v.req_u64("stores")?,
        store_l1_misses: v.req_u64("store_l1_misses")?,
        l2_hits: v.req_u64("l2_hits")?,
        l2_misses: v.req_u64("l2_misses")?,
        itlb_misses: v.req_u64("itlb_misses")?,
        dtlb_misses: v.req_u64("dtlb_misses")?,
        mshr_merges: v.req_u64("mshr_merges")?,
        mshr_full_stalls: v.req_u64("mshr_full_stalls")?,
        writebacks: v.req_u64("writebacks")?,
        prefetches: v.req_u64("prefetches")?,
    })
}

fn mem_stats_from_json(v: &JsonValue) -> Result<MemStats, String> {
    Ok(MemStats {
        cores: v
            .req_arr("cores")?
            .iter()
            .map(core_mem_stats_from_json)
            .collect::<Result<_, _>>()?,
    })
}

fn histogram_from_json(v: &JsonValue) -> Result<LatencyHistogram, String> {
    Ok(LatencyHistogram::from_parts(
        v.req_u64("bin_width")?,
        u64_array(v, "bins")?,
        v.req_u64("overflow")?,
        v.req_u64("count")?,
        v.req_u64("sum")?,
        v.req_opt_u64("min")?,
        v.req_opt_u64("max")?,
    ))
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

    #[test]
    fn json_roundtrip_is_byte_identical() {
        use crate::json::{parse_json, ToJson};
        // A real simulation result, so every field is exercised with
        // non-trivial values (histogram populated, energy non-zero).
        use crate::config::SimConfig;
        use crate::sim::Simulator;
        use crate::workloads::Workload;
        use smtsim_policy::PolicyKind;
        let w = Workload::by_name("4W3").unwrap();
        let cfg = SimConfig::for_workload(w, PolicyKind::Mflush).with_cycles(8_000);
        let r = Simulator::build(&cfg).unwrap().run().unwrap();
        let encoded = r.to_json();
        let decoded = SimResult::from_json(&parse_json(&encoded).unwrap()).unwrap();
        assert_eq!(decoded.to_json(), encoded);
    }

    #[test]
    fn from_json_rejects_damaged_documents() {
        use crate::json::parse_json;
        for bad in [
            r#"{"policy":"X"}"#,
            r#"{"policy":1,"workload":[],"cycles":5}"#,
            r#"[1,2,3]"#,
        ] {
            let v = parse_json(bad).unwrap();
            assert!(SimResult::from_json(&v).is_err(), "accepted {bad}");
        }
    }
}
