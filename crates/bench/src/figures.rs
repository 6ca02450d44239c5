//! One regeneration function per paper table/figure.

use smtsim_core::config::DEFAULT_CYCLES;
use smtsim_core::{report, run_sweep_journaled, SimConfig, SimResult, SweepJob, Workload};
use smtsim_core::workloads::{ALL_WORKLOADS, FIG5B_WORKLOAD};
use smtsim_energy::report as energy_report;
use smtsim_mem::{LatencyHistogram, MemConfig};
use smtsim_policy::mflush::{McRegConfig, McRegFile, McRegReducer, MflushConfig};
use smtsim_policy::PolicyKind;
use std::fmt::Write;
use std::path::Path;

/// Resolve a cycle budget (0 → default).
fn budget(cycles: u64) -> u64 {
    if cycles == 0 {
        DEFAULT_CYCLES
    } else {
        cycles
    }
}

fn sweep_workloads(
    workloads: &[&Workload],
    policies: &[PolicyKind],
    cycles: u64,
    workers: usize,
    journal: Option<&Path>,
) -> Vec<(String, Vec<SimResult>)> {
    let mut jobs = Vec::new();
    for w in workloads {
        for p in policies {
            jobs.push(SweepJob::new(
                format!("{}/{}", w.name, p.label()),
                SimConfig::for_workload(w, *p).with_cycles(budget(cycles)),
            ));
        }
    }
    let flat = run_jobs(&jobs, workers, journal);
    workloads
        .iter()
        .zip(flat.chunks(policies.len()))
        .map(|(w, results)| (w.name.to_string(), results.to_vec()))
        .collect()
}

/// Run `jobs` through the journaled sweep runner, in job order. A
/// failed job is fatal: a partial figure is worse than none.
fn run_jobs(jobs: &[SweepJob], workers: usize, journal: Option<&Path>) -> Vec<SimResult> {
    run_sweep_journaled(jobs, workers, journal)
        .into_iter()
        .map(|(label, r)| match r {
            Ok(r) => r,
            Err(e) => panic!("figure sweep job '{label}' failed: {e}"),
        })
        .collect()
}

// ----------------------------------------------------------------
// Fig. 1 — simulation parameters and workloads
// ----------------------------------------------------------------

/// Render the paper's Fig. 1: core parameters, cache hierarchy and the
/// workload table.
pub fn fig1() -> String {
    let core = smtsim_cpu::CoreConfig::paper();
    let mem = MemConfig::paper(4);
    let mut s = String::new();
    let _ = writeln!(s, "== Fig. 1: Simulation parameters ==");
    let _ = writeln!(s, "Pipeline depth        11 stages (front-end {} + back-end)", core.frontend_latency);
    let _ = writeln!(s, "Queue entries         {} int, {} fp, {} ld/st", core.int_queue, core.fp_queue, core.ls_queue);
    let _ = writeln!(s, "Execution units       {} int, {} fp, {} ld/st", core.int_units, core.fp_units, core.ls_units);
    let _ = writeln!(s, "Physical registers    {}", core.phys_regs);
    let _ = writeln!(s, "ROB size*             {} entries", core.rob_per_thread);
    let _ = writeln!(s, "Branch predictor      perceptron ({} local, {} perceps.)", core.local_history_entries, core.perceptrons);
    let _ = writeln!(s, "BTB                   {} entries, {}-way", core.btb_entries, core.btb_ways);
    let _ = writeln!(s, "RAS*                  {} entries", core.ras_entries);
    let _ = writeln!(s, "L1 icache             {} KB, {}-way, {} banks", mem.l1i.bytes >> 10, mem.l1i.ways, mem.l1_banks);
    let _ = writeln!(s, "L1 dcache             {} KB, {}-way, {} banks", mem.l1d.bytes >> 10, mem.l1d.ways, mem.l1_banks);
    let _ = writeln!(s, "L1 lat./miss          {}/{} cycles", mem.l1_hit_cycles, mem.l1_miss_nominal());
    let _ = writeln!(s, "I-TLB, D-TLB          {} entries, fully associative", mem.tlb_entries);
    let _ = writeln!(s, "TLB miss              {} cycles", mem.tlb_miss_cycles);
    let _ = writeln!(s, "L2 cache              {} MB, {}-way, {} banks", mem.l2_bytes >> 20, mem.l2_ways, mem.l2_banks);
    let _ = writeln!(s, "L2 latency            {} cycles", mem.l2_bank_cycles);
    let _ = writeln!(s, "Main memory latency   {} cycles", mem.dram_cycles);
    let _ = writeln!(s, "(* replicated per thread)");
    let _ = writeln!(s);
    let _ = writeln!(s, "Workloads (xWy → benchmark letters):");
    for w in &ALL_WORKLOADS {
        let _ = writeln!(s, "  {:<4} {}", w.name, w.benchmark_names().join(", "));
    }
    s
}

// ----------------------------------------------------------------
// Fig. 2 — single-core SMT: ICOUNT vs speculative FLUSH (FL-S30)
// ----------------------------------------------------------------

/// Fig. 2 data: per 2-thread workload, (ICOUNT IPC, FLUSH-S30 IPC).
pub struct Fig2 {
    pub rows: Vec<(String, f64, f64)>,
    pub text: String,
}

impl Fig2 {
    /// Speedups of FLUSH-S30 over ICOUNT per workload.
    pub fn speedups(&self) -> Vec<f64> {
        self.rows.iter().map(|(_, i, f)| f / i).collect()
    }

    /// Average speedup (paper: ≈ 1.22, max ≈ 1.93).
    pub fn avg_speedup(&self) -> f64 {
        let s = self.speedups();
        s.iter().sum::<f64>() / s.len() as f64
    }
}

/// Reproduce Fig. 2: all 2Wy workloads on a single-core SMT under
/// ICOUNT and FLUSH-S30.
pub fn fig2(cycles: u64, workers: usize, journal: Option<&Path>) -> Fig2 {
    let workloads = Workload::of_size(2);
    let policies = [PolicyKind::Icount, PolicyKind::FlushSpec(30)];
    let data = sweep_workloads(&workloads, &policies, cycles, workers, journal);
    let mut rows = Vec::new();
    let mut text = String::new();
    let _ = writeln!(text, "== Fig. 2: Throughput in single-core SMT ==");
    let _ = writeln!(text, "{:<8}{:>12}{:>12}{:>10}", "wl", "ICOUNT", "FLUSH-S30", "speedup");
    for (name, results) in &data {
        let ic = results[0].throughput();
        let fl = results[1].throughput();
        let _ = writeln!(text, "{name:<8}{ic:>12.4}{fl:>12.4}{:>10.3}", fl / ic);
        rows.push((name.clone(), ic, fl));
    }
    let fig = Fig2 { rows, text };
    fig_with_avg(fig)
}

fn fig_with_avg(mut fig: Fig2) -> Fig2 {
    let avg = fig.avg_speedup();
    let max = fig
        .speedups()
        .into_iter()
        .fold(f64::NEG_INFINITY, f64::max);
    let _ = writeln!(fig.text, "average speedup {avg:.3}   max speedup {max:.3}");
    fig
}

// ----------------------------------------------------------------
// Fig. 3 — multicore CMP+SMT average throughput
// ----------------------------------------------------------------

/// Fig. 3 data: per workload size, average ICOUNT and FLUSH-S30 IPC.
pub struct Fig3 {
    /// (threads, avg ICOUNT IPC, avg FLUSH-S30 IPC).
    pub rows: Vec<(usize, f64, f64)>,
    pub text: String,
}

impl Fig3 {
    /// FLUSH-S30 / ICOUNT ratio per workload size.
    pub fn ratios(&self) -> Vec<(usize, f64)> {
        self.rows.iter().map(|&(n, i, f)| (n, f / i)).collect()
    }
}

/// Reproduce Fig. 3: average throughput per workload size (2, 4, 6, 8
/// threads → 1–4 cores) under ICOUNT and FLUSH-S30. The paper's
/// finding: the single-core FLUSH advantage shrinks with core count and
/// inverts at 4 cores.
pub fn fig3(cycles: u64, workers: usize, journal: Option<&Path>) -> Fig3 {
    let policies = [PolicyKind::Icount, PolicyKind::FlushSpec(30)];
    let mut rows = Vec::new();
    let mut text = String::new();
    let _ = writeln!(text, "== Fig. 3: Average throughput, multicore CMP+SMT ==");
    let _ = writeln!(text, "{:<9}{:>12}{:>12}{:>10}", "threads", "ICOUNT", "FLUSH-S30", "ratio");
    for size in [2usize, 4, 6, 8] {
        let data = sweep_workloads(&Workload::of_size(size), &policies, cycles, workers, journal);
        let avg = |k: usize| {
            data.iter().map(|(_, r)| r[k].throughput()).sum::<f64>() / data.len() as f64
        };
        let (ic, fl) = (avg(0), avg(1));
        let _ = writeln!(text, "{size:<9}{ic:>12.4}{fl:>12.4}{:>10.3}", fl / ic);
        rows.push((size, ic, fl));
    }
    Fig3 { rows, text }
}

// ----------------------------------------------------------------
// Fig. 4 — average L2 cache hit time vs number of cores
// ----------------------------------------------------------------

/// Fig. 4 data: merged L2-hit-time histogram per workload size (under
/// ICOUNT, which "does not alter the L2 cache access pattern").
pub struct Fig4 {
    pub rows: Vec<(usize, LatencyHistogram)>,
    pub text: String,
}

impl Fig4 {
    /// (threads, mean, std-dev) series.
    pub fn summary(&self) -> Vec<(usize, f64, f64)> {
        self.rows
            .iter()
            .map(|(n, h)| (*n, h.mean(), h.std_dev()))
            .collect()
    }
}

/// Reproduce Fig. 4: distribution of cycles from LSQ issue to service
/// for loads that hit the shared L2, per machine size.
pub fn fig4(cycles: u64, workers: usize, journal: Option<&Path>) -> Fig4 {
    let mut rows = Vec::new();
    let mut text = String::new();
    let _ = writeln!(text, "== Fig. 4: Average L2 cache hit time ==");
    for size in [2usize, 4, 6, 8] {
        let data = sweep_workloads(
            &Workload::of_size(size),
            &[PolicyKind::Icount],
            cycles,
            workers,
            journal,
        );
        let mut merged = LatencyHistogram::for_l2_hit_time();
        for (_, rs) in &data {
            merged.merge(&rs[0].l2_hit_hist);
        }
        let _ = writeln!(
            text,
            "-- {size} threads ({} cores) --\n{}",
            size / 2,
            report::histogram_table(&merged)
        );
        rows.push((size, merged));
    }
    Fig4 { rows, text }
}

// ----------------------------------------------------------------
// Fig. 5 — detection-moment analysis (trigger sweep)
// ----------------------------------------------------------------

/// Fig. 5 data: throughput per FLUSH trigger on the two study
/// workloads.
pub struct Fig5 {
    /// (trigger label, 8W3 IPC, bzip2x4+twolfx4 IPC).
    pub rows: Vec<(String, f64, f64)>,
    pub text: String,
}

impl Fig5 {
    /// Best trigger label per workload `(8W3, fig5b)`.
    pub fn best(&self) -> (String, String) {
        let best = |idx: usize| {
            self.rows
                .iter()
                .max_by(|a, b| {
                    let va = if idx == 0 { a.1 } else { a.2 };
                    let vb = if idx == 0 { b.1 } else { b.2 };
                    va.total_cmp(&vb)
                })
                .map(|r| r.0.clone())
                .unwrap()
        };
        (best(0), best(1))
    }
}

/// Reproduce Fig. 5: sweep the speculative trigger from 30 to 150
/// cycles (plus FL-NS) on (a) 8W3 and (b) the bzip2/twolf workload.
pub fn fig5(cycles: u64, workers: usize, journal: Option<&Path>) -> Fig5 {
    let triggers: Vec<PolicyKind> = (30..=150)
        .step_by(20)
        .map(PolicyKind::FlushSpec)
        .chain([PolicyKind::FlushNonSpec])
        .collect();
    let w_a = Workload::by_name("8W3").unwrap();
    let w_b = &FIG5B_WORKLOAD;
    let data = sweep_workloads(&[w_a, w_b], &triggers, cycles, workers, journal);
    let mut rows = Vec::new();
    let mut text = String::new();
    let _ = writeln!(text, "== Fig. 5: Detection Moment analysis ==");
    let _ = writeln!(text, "{:<12}{:>12}{:>20}", "trigger", "8W3", "bzip2x4+twolfx4");
    for (i, p) in triggers.iter().enumerate() {
        let a = data[0].1[i].throughput();
        let b = data[1].1[i].throughput();
        let _ = writeln!(text, "{:<12}{a:>12.4}{b:>20.4}", p.label());
        rows.push((p.label(), a, b));
    }
    let fig = Fig5 { rows, text };
    let (ba, bb) = fig.best();
    let mut fig = fig;
    let _ = writeln!(fig.text, "best trigger: 8W3 → {ba}, bzip2/twolf → {bb}");
    fig
}

// ----------------------------------------------------------------
// Fig. 6 — the MFLUSH operational environment
// ----------------------------------------------------------------

/// Render Fig. 6: MIN/MAX/MT/preventive/barrier per machine size.
pub fn fig6() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== Fig. 6: MFLUSH operational environment ==");
    let _ = writeln!(
        s,
        "{:<7}{:>6}{:>6}{:>6}{:>12}{:>22}",
        "cores", "MIN", "MAX", "MT", "preventive", "barrier(pred=MIN)"
    );
    for cores in 1..=4u32 {
        let c = MflushConfig::paper(cores, 4);
        let _ = writeln!(
            s,
            "{cores:<7}{:>6}{:>6}{:>6}{:>12}{:>22}",
            c.min,
            c.max,
            c.mt(),
            c.preventive_threshold(),
            c.barrier(c.min)
        );
    }
    s
}

// ----------------------------------------------------------------
// Fig. 7 — MCReg hardware example
// ----------------------------------------------------------------

/// Render Fig. 7's example: a 4-core CMP with a 4-banked L2; core 0
/// misses L1, bank 2's MCReg predicts 55 cycles.
pub fn fig7() -> String {
    let mut file = McRegFile::new(4, 22, McRegConfig::default());
    // Observed last-hit latencies per bank, as drawn in the figure.
    for (bank, lat) in [(0u32, 31u64), (1, 24), (2, 55), (3, 40)] {
        file.update(bank, lat);
    }
    let mut s = String::new();
    let _ = writeln!(s, "== Fig. 7: MCReg support (4 cores, 4 L2 banks) ==");
    for bank in 0..4 {
        let _ = writeln!(s, "MCReg[bank {bank}] = {} cycles", file.predict(bank));
    }
    let _ = writeln!(
        s,
        "L1 miss in core 0 to bank 2 → predicted L2 hit latency {} cycles",
        file.predict(2)
    );
    s
}

// ----------------------------------------------------------------
// Fig. 8 — throughput of ICOUNT / FLUSH-S30 / FLUSH-S100 / MFLUSH
// ----------------------------------------------------------------

/// Fig. 8 data.
pub struct Fig8 {
    /// (workload, [ICOUNT, FLUSH-S30, FLUSH-S100, MFLUSH] IPC).
    pub rows: Vec<(String, [f64; 4])>,
    /// The same runs, full results (for Fig. 11 reuse).
    pub results: Vec<(String, Vec<SimResult>)>,
    pub text: String,
}

impl Fig8 {
    /// Column averages.
    pub fn averages(&self) -> [f64; 4] {
        let mut avg = [0.0; 4];
        for (_, r) in &self.rows {
            for k in 0..4 {
                avg[k] += r[k];
            }
        }
        for a in &mut avg {
            *a /= self.rows.len() as f64;
        }
        avg
    }

    /// MFLUSH throughput relative to FLUSH-S100 (paper: ≈ 0.98).
    pub fn mflush_vs_s100(&self) -> f64 {
        let a = self.averages();
        a[3] / a[2]
    }
}

/// Reproduce Fig. 8: the four evaluated policies on every 4-, 6- and
/// 8-thread workload.
pub fn fig8(cycles: u64, workers: usize, journal: Option<&Path>) -> Fig8 {
    let policies = PolicyKind::fig8_set();
    let workloads: Vec<&Workload> = [4usize, 6, 8]
        .iter()
        .flat_map(|&s| Workload::of_size(s))
        .collect();
    let results = sweep_workloads(&workloads, &policies, cycles, workers, journal);
    let mut rows = Vec::new();
    let mut text = String::new();
    let _ = writeln!(text, "== Fig. 8: Throughput results ==");
    let _ = write!(text, "{:<8}", "wl");
    for p in &policies {
        let _ = write!(text, "{:>12}", p.label());
    }
    let _ = writeln!(text);
    for (name, rs) in &results {
        let mut row = [0.0; 4];
        let _ = write!(text, "{name:<8}");
        for (k, r) in rs.iter().enumerate() {
            row[k] = r.throughput();
            let _ = write!(text, "{:>12.4}", row[k]);
        }
        let _ = writeln!(text);
        rows.push((name.clone(), row));
    }
    let fig = Fig8 {
        rows,
        results,
        text,
    };
    let avg = fig.averages();
    let mut fig = fig;
    let _ = writeln!(
        fig.text,
        "{:<8}{:>12.4}{:>12.4}{:>12.4}{:>12.4}   (MFLUSH/FLUSH-S100 = {:.3})",
        "avg", avg[0], avg[1], avg[2], avg[3],
        fig.mflush_vs_s100()
    );
    fig
}

// ----------------------------------------------------------------
// Extension study — beyond the paper's four policies
// ----------------------------------------------------------------

/// Extension-policy comparison data (not a paper figure).
pub struct ExtStudy {
    /// (policy label, avg IPC over the 8-thread workloads,
    /// avg wasted energy).
    pub rows: Vec<(String, f64, f64)>,
    pub text: String,
}

/// Compare the paper's four policies against the extension set (RR,
/// DCRA, ADTS, STALL-S30, FLUSH-ADAPT, FLUSH-LMP) on the 8-thread
/// workloads: adaptivity-in-priority vs adaptivity-in-threshold vs
/// adaptivity-in-prediction.
pub fn extension_study(cycles: u64, workers: usize, journal: Option<&Path>) -> ExtStudy {
    let policies = [
        PolicyKind::RoundRobin,
        PolicyKind::Icount,
        PolicyKind::Brcount,
        PolicyKind::Adts,
        PolicyKind::Dcra,
        PolicyKind::StallSpec(30),
        PolicyKind::FlushSpec(30),
        PolicyKind::FlushSpec(100),
        PolicyKind::FlushNonSpec,
        PolicyKind::FlushAdaptive,
        PolicyKind::FlushMissPredict,
        PolicyKind::Mflush,
    ];
    let workloads = Workload::of_size(8);
    let data = sweep_workloads(&workloads, &policies, cycles, workers, journal);
    let mut rows = Vec::new();
    let mut text = String::new();
    let _ = writeln!(
        text,
        "== Extension study: all policies, 8-thread workloads =="
    );
    let _ = writeln!(text, "{:<14}{:>12}{:>16}", "policy", "avg IPC", "avg wasted eu");
    for (k, p) in policies.iter().enumerate() {
        let ipc = data.iter().map(|(_, r)| r[k].throughput()).sum::<f64>()
            / data.len() as f64;
        let eu = data.iter().map(|(_, r)| r[k].wasted_energy()).sum::<f64>()
            / data.len() as f64;
        let _ = writeln!(text, "{:<14}{ipc:>12.4}{eu:>16.1}", p.label());
        rows.push((p.label(), ipc, eu));
    }
    ExtStudy { rows, text }
}

// ----------------------------------------------------------------
// Ablations — the design choices DESIGN.md §6 calls out
// ----------------------------------------------------------------

/// Ablation report data (not a paper figure).
pub struct Ablations {
    /// (variant label, 8W3 IPC), in report order.
    pub rows: Vec<(String, f64)>,
    pub text: String,
}

fn mflush_variant(history: usize, reducer: McRegReducer, preventive: bool, mt: bool) -> PolicyKind {
    PolicyKind::MflushCustom {
        mcreg_history: history,
        mcreg_reducer: reducer,
        preventive,
        mt_enabled: mt,
    }
}

/// Run the DESIGN.md §6 ablations on 8W3, one job per variant: MCReg
/// history and reducer, the Preventive State, the MT term, STALL vs
/// FLUSH, L2 bank and cluster counts, the related-work policies and
/// next-line prefetching. Variants that restate the paper default
/// (MCReg 1/Last, 4 L2 banks, 1 cluster, no prefetch) are run again
/// under their own label, so they must agree exactly.
pub fn ablations(cycles: u64, workers: usize, journal: Option<&Path>) -> Ablations {
    let w = Workload::by_name("8W3").unwrap();
    let cycles = budget(cycles);
    let cfg = |p: PolicyKind| SimConfig::for_workload(w, p).with_cycles(cycles);
    let mut variants = vec![
        (
            "MCReg history 1/Last (paper)".to_string(),
            cfg(PolicyKind::Mflush),
        ),
        (
            "MCReg history 4/Mean".into(),
            cfg(mflush_variant(4, McRegReducer::Mean, true, true)),
        ),
        (
            "MCReg history 4/Max".into(),
            cfg(mflush_variant(4, McRegReducer::Max, true, true)),
        ),
        (
            "MFLUSH w/o preventive state".into(),
            cfg(mflush_variant(1, McRegReducer::Last, false, true)),
        ),
        (
            "MFLUSH w/o MT term".into(),
            cfg(mflush_variant(1, McRegReducer::Last, true, false)),
        ),
        ("STALL-S30".into(), cfg(PolicyKind::StallSpec(30))),
        ("FLUSH-S30".into(), cfg(PolicyKind::FlushSpec(30))),
    ];
    for banks in [1u32, 2, 4, 8] {
        let mut c = cfg(PolicyKind::Icount);
        c.mem.l2_banks = banks;
        variants.push((format!("ICOUNT with {banks} L2 bank(s)"), c));
    }
    for (label, p) in [
        ("ADTS adaptive (related work)", PolicyKind::Adts),
        ("DCRA (related work [3])", PolicyKind::Dcra),
        ("FLUSH-ADAPT (hill-climbed)", PolicyKind::FlushAdaptive),
        ("FLUSH-LMP (miss predictor)", PolicyKind::FlushMissPredict),
    ] {
        variants.push((label.into(), cfg(p)));
    }
    for clusters in [1u32, 2, 4] {
        let mut c = cfg(PolicyKind::Mflush);
        c.mem.l2_clusters = clusters;
        variants.push((format!("MFLUSH with {clusters} L2 cluster(s)"), c));
    }
    let mut prefetch = cfg(PolicyKind::Icount);
    prefetch.mem.next_line_prefetch = true;
    variants.push(("ICOUNT + next-line prefetch".into(), prefetch));
    variants.push(("ICOUNT without prefetch".into(), cfg(PolicyKind::Icount)));

    let jobs: Vec<SweepJob> = variants
        .into_iter()
        .map(|(label, c)| SweepJob::new(label, c))
        .collect();
    let results = run_jobs(&jobs, workers, journal);
    let mut text = String::new();
    let _ = writeln!(text, "== Ablation report ({cycles}-cycle runs on 8W3) ==");
    let mut rows = Vec::new();
    for (job, r) in jobs.iter().zip(&results) {
        let label = format!("{}:", job.label);
        let ipc = r.throughput();
        let _ = writeln!(text, "{label:<30}{ipc:.4}");
        rows.push((job.label.clone(), ipc));
    }
    Ablations { rows, text }
}

// ----------------------------------------------------------------
// Figs. 9 & 10 — the energy model tables
// ----------------------------------------------------------------

/// Render Fig. 9: energy distribution per hardware resource.
pub fn fig9() -> String {
    format!(
        "== Fig. 9: Energy consumption distribution ==\n{}",
        energy_report::resource_table()
    )
}

/// Render Fig. 10: the Energy Consumption Factor table.
pub fn fig10() -> String {
    format!(
        "== Fig. 10: Energy Consumption Factor ==\n{}",
        energy_report::ecf_table()
    )
}

// ----------------------------------------------------------------
// Fig. 11 — FLUSH wasted energy
// ----------------------------------------------------------------

/// Fig. 11 data.
pub struct Fig11 {
    /// (workload, [FLUSH-S30, FLUSH-S100, MFLUSH] wasted energy units).
    pub rows: Vec<(String, [f64; 3])>,
    pub text: String,
}

impl Fig11 {
    /// Total wasted energy per policy.
    pub fn totals(&self) -> [f64; 3] {
        let mut t = [0.0; 3];
        for (_, r) in &self.rows {
            for k in 0..3 {
                t[k] += r[k];
            }
        }
        t
    }

    /// MFLUSH waste relative to FLUSH-S100 (paper: ≈ 0.8, a 20 %
    /// saving).
    pub fn mflush_vs_s100(&self) -> f64 {
        let t = self.totals();
        t[2] / t[1]
    }
}

/// Reproduce Fig. 11: the wasted (refetch) energy of each flushing
/// policy on the Fig. 8 workloads.
pub fn fig11(cycles: u64, workers: usize, journal: Option<&Path>) -> Fig11 {
    let policies = [
        PolicyKind::FlushSpec(30),
        PolicyKind::FlushSpec(100),
        PolicyKind::Mflush,
    ];
    let workloads: Vec<&Workload> = [4usize, 6, 8]
        .iter()
        .flat_map(|&s| Workload::of_size(s))
        .collect();
    let results = sweep_workloads(&workloads, &policies, cycles, workers, journal);
    let mut rows = Vec::new();
    let mut text = String::new();
    let _ = writeln!(text, "== Fig. 11: FLUSH wasted energy (energy units) ==");
    let _ = writeln!(
        text,
        "{:<8}{:>14}{:>14}{:>14}",
        "wl", "FLUSH-S30", "FLUSH-S100", "MFLUSH"
    );
    for (name, rs) in &results {
        let row = [
            rs[0].wasted_energy(),
            rs[1].wasted_energy(),
            rs[2].wasted_energy(),
        ];
        let _ = writeln!(
            text,
            "{name:<8}{:>14.1}{:>14.1}{:>14.1}",
            row[0], row[1], row[2]
        );
        rows.push((name.clone(), row));
    }
    let fig = Fig11 { rows, text };
    let t = fig.totals();
    let mut fig = fig;
    let _ = writeln!(
        fig.text,
        "{:<8}{:>14.1}{:>14.1}{:>14.1}   (MFLUSH/FLUSH-S100 = {:.3})",
        "total", t[0], t[1], t[2],
        fig.mflush_vs_s100()
    );
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_rows_that_restate_the_paper_default_agree() {
        let a = ablations(3_000, 0, None);
        let ipc = |label: &str| match a.rows.iter().find(|(l, _)| l == label) {
            Some(&(_, ipc)) => ipc,
            None => panic!("no row '{label}'"),
        };
        // MemConfig's defaults are 4 L2 banks and 1 L2 cluster.
        assert_eq!(
            ipc("ICOUNT with 4 L2 bank(s)"),
            ipc("ICOUNT without prefetch")
        );
        assert_eq!(
            ipc("MFLUSH with 1 L2 cluster(s)"),
            ipc("MCReg history 1/Last (paper)")
        );
        // A variant that changes the machine must change the answer,
        // or the equalities above prove nothing.
        assert_ne!(
            ipc("ICOUNT with 1 L2 bank(s)"),
            ipc("ICOUNT with 4 L2 bank(s)")
        );
        assert_ne!(
            ipc("MFLUSH with 4 L2 cluster(s)"),
            ipc("MFLUSH with 1 L2 cluster(s)")
        );
    }
}
