//! Trace analysis: measure the aggregate properties of an instruction
//! stream — the same quantities the benchmark profiles promise.
//!
//! Used to validate that generated streams deliver their calibration
//! targets (the profile-fidelity tests).

use crate::instr::{DynInstr, InstrClass, UncondKind};
use crate::stream::InstrStream;
// BTreeSet, not HashSet: footprint counting must not depend on the
// per-process hasher seed (determinism lint rule D1).
use std::collections::BTreeSet;

/// Aggregate statistics of an instruction stream.
#[derive(Debug, Clone, Default)]
pub struct TraceStats {
    pub instructions: u64,
    pub loads: u64,
    pub stores: u64,
    pub branches_cond: u64,
    pub branches_uncond: u64,
    pub calls: u64,
    pub rets: u64,
    pub fp_ops: u64,
    pub taken_cond: u64,
    /// Distinct 64-byte data lines touched.
    pub data_lines: u64,
    /// Distinct 64-byte code lines touched.
    pub code_lines: u64,
    /// Distinct 8 KB data pages touched.
    pub data_pages: u64,
    /// Histogram of dependency distances (in dynamic instructions) from
    /// each instruction to its first source's most recent producer;
    /// index = distance − 1, saturating at the last bucket.
    pub dep_distance: [u64; 32],
}

impl TraceStats {
    /// Fraction helper.
    fn frac(&self, n: u64) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            n as f64 / self.instructions as f64
        }
    }

    /// Fraction of loads.
    pub fn load_frac(&self) -> f64 {
        self.frac(self.loads)
    }

    /// Fraction of stores.
    pub fn store_frac(&self) -> f64 {
        self.frac(self.stores)
    }

    /// Fraction of branches (conditional + unconditional).
    pub fn branch_frac(&self) -> f64 {
        self.frac(self.branches_cond + self.branches_uncond)
    }

    /// Fraction of floating-point compute.
    pub fn fp_frac(&self) -> f64 {
        self.frac(self.fp_ops)
    }

    /// Taken rate of conditional branches.
    pub fn taken_rate(&self) -> f64 {
        if self.branches_cond == 0 {
            0.0
        } else {
            self.taken_cond as f64 / self.branches_cond as f64
        }
    }

    /// Mean dependency distance (dynamic instructions to the producer).
    pub fn mean_dep_distance(&self) -> f64 {
        let total: u64 = self.dep_distance.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .dep_distance
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as u64 + 1) * c)
            .sum();
        weighted as f64 / total as f64
    }

    /// Touched data footprint in bytes (line granularity).
    pub fn data_footprint_bytes(&self) -> u64 {
        self.data_lines * 64
    }
}

/// Analyse `n` instructions from a stream.
pub fn analyze<S: InstrStream>(stream: &mut S, n: u64) -> TraceStats {
    let mut s = TraceStats::default();
    let mut data_lines = BTreeSet::new();
    let mut code_lines = BTreeSet::new();
    let mut data_pages = BTreeSet::new();
    // (logical reg, seq) of most recent writers.
    let mut writers: Vec<(u8, u64)> = Vec::new();
    for _ in 0..n {
        let i = stream.next_instr();
        s.instructions += 1;
        code_lines.insert(i.pc / 64);
        match i.class {
            InstrClass::Load => s.loads += 1,
            InstrClass::Store => s.stores += 1,
            InstrClass::BranchCond => {
                s.branches_cond += 1;
                if i.taken {
                    s.taken_cond += 1;
                }
            }
            InstrClass::BranchUncond => {
                s.branches_uncond += 1;
                match i.uncond_kind {
                    UncondKind::Call => s.calls += 1,
                    UncondKind::Ret => s.rets += 1,
                    UncondKind::Jump => {}
                }
            }
            InstrClass::FpAlu | InstrClass::FpMul | InstrClass::FpDiv => s.fp_ops += 1,
            _ => {}
        }
        if i.class.is_mem() {
            data_lines.insert(i.mem_addr / 64);
            data_pages.insert(i.mem_addr / 8192);
        }
        record_dep(&mut s, &writers, &i);
        if let Some(d) = i.dst {
            writers.push((d, i.seq));
            if writers.len() > 512 {
                writers.drain(..256);
            }
        }
    }
    s.data_lines = data_lines.len() as u64;
    s.code_lines = code_lines.len() as u64;
    s.data_pages = data_pages.len() as u64;
    s
}

fn record_dep(s: &mut TraceStats, writers: &[(u8, u64)], i: &DynInstr) {
    let Some(src) = i.srcs[0] else { return };
    if let Some(&(_, wseq)) = writers.iter().rev().find(|&&(r, _)| r == src) {
        let d = (i.seq - wseq) as usize;
        let idx = d.saturating_sub(1).min(s.dep_distance.len() - 1);
        s.dep_distance[idx] += 1;
    }
}

/// Render the statistics as a small text report.
pub fn report(s: &TraceStats) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "instructions      {}", s.instructions);
    let _ = writeln!(out, "loads             {:.2}%", 100.0 * s.load_frac());
    let _ = writeln!(out, "stores            {:.2}%", 100.0 * s.store_frac());
    let _ = writeln!(out, "branches          {:.2}%", 100.0 * s.branch_frac());
    let _ = writeln!(out, "fp compute        {:.2}%", 100.0 * s.fp_frac());
    let _ = writeln!(out, "calls / rets      {} / {}", s.calls, s.rets);
    let _ = writeln!(out, "cond taken rate   {:.3}", s.taken_rate());
    let _ = writeln!(out, "mean dep distance {:.2}", s.mean_dep_distance());
    let _ = writeln!(
        out,
        "footprint         {} KB data ({} pages), {} KB code",
        s.data_footprint_bytes() >> 10,
        s.data_pages,
        (s.code_lines * 64) >> 10
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TraceGenerator;
    use crate::spec;

    fn stats_for(name: &str, n: u64) -> TraceStats {
        let mut g = TraceGenerator::new(spec::benchmark_by_name(name).unwrap(), 77);
        analyze(&mut g, n)
    }

    #[test]
    fn mix_matches_profile_targets() {
        for name in ["gzip", "mcf", "swim", "vortex"] {
            let p = spec::benchmark_by_name(name).unwrap();
            let s = stats_for(name, 40_000);
            assert!(
                (s.load_frac() - p.mix.load).abs() < 0.06,
                "{name}: load {:.3} vs target {:.3}",
                s.load_frac(),
                p.mix.load
            );
            assert!(
                (s.store_frac() - p.mix.store).abs() < 0.05,
                "{name}: store {:.3} vs target {:.3}",
                s.store_frac(),
                p.mix.store
            );
        }
    }

    #[test]
    fn fp_benchmarks_have_fp_work() {
        assert!(stats_for("swim", 20_000).fp_frac() > 0.25);
        assert_eq!(stats_for("gzip", 20_000).fp_frac(), 0.0);
    }

    #[test]
    fn dependency_distance_ordering() {
        // eon is declared higher-ILP than mcf.
        let eon = stats_for("eon", 30_000).mean_dep_distance();
        let mcf = stats_for("mcf", 30_000).mean_dep_distance();
        assert!(eon > mcf, "eon {eon:.2} vs mcf {mcf:.2}");
    }

    #[test]
    fn footprint_ordering() {
        // mcf touches far more data than eon in the same window.
        let mcf = stats_for("mcf", 30_000).data_footprint_bytes();
        let eon = stats_for("eon", 30_000).data_footprint_bytes();
        assert!(mcf > 2 * eon, "mcf {mcf} vs eon {eon}");
    }

    #[test]
    fn code_footprint_tracks_block_count() {
        let vortex = stats_for("vortex", 60_000).code_lines; // 5000 blocks
        let swim = stats_for("swim", 60_000).code_lines; // 150 blocks
        assert!(vortex > swim);
    }

    #[test]
    fn report_renders() {
        let s = stats_for("gcc", 5_000);
        let r = report(&s);
        assert!(r.contains("instructions      5000"));
        assert!(r.contains("mean dep distance"));
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = TraceStats::default();
        assert_eq!(s.load_frac(), 0.0);
        assert_eq!(s.taken_rate(), 0.0);
        assert_eq!(s.mean_dep_distance(), 0.0);
    }
}
