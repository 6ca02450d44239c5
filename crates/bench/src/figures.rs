//! One renderer per paper table/figure, and the plan that simulates
//! what they need.
//!
//! A simulated figure is two things: its job list, in report order,
//! and a pure renderer that turns those jobs' results into the
//! figure's text. [`Plan`] gathers the jobs of every requested figure
//! and keeps one per distinct machine, so the caller runs a single
//! sweep and a config that recurs across figures is simulated once.

use smtsim_core::cache::config_fingerprint;
use smtsim_core::config::DEFAULT_CYCLES;
use smtsim_core::workloads::{ALL_WORKLOADS, FIG5B_WORKLOAD};
use smtsim_core::{report, SimConfig, SimResult, SweepJob, Workload};
use smtsim_energy::report as energy_report;
use smtsim_mem::{LatencyHistogram, MemConfig};
use smtsim_policy::mflush::{McRegConfig, McRegFile, McRegReducer, MflushConfig};
use smtsim_policy::PolicyKind;
use std::collections::BTreeMap;
use std::fmt::Write;

/// One name `figures` accepts: what it simulates and how it prints.
pub struct Figure {
    /// The name on the command line.
    pub name: &'static str,
    /// Part of `figures all`; the studies beyond the paper are not.
    pub(crate) in_all: bool,
    /// The jobs the figure needs at a cycle budget, in report order
    /// (none for a table the model states).
    pub(crate) jobs: fn(u64) -> Vec<SweepJob>,
    /// The figure's text from its jobs and their results, in order.
    pub(crate) render: fn(&[SweepJob], &[SimResult]) -> String,
}

/// Every figure, in print order.
#[rustfmt::skip]
pub static FIGURES: [Figure; 13] = [
    Figure { name: "fig1", in_all: true, jobs: no_jobs, render: |_, _| fig1() },
    Figure { name: "fig2", in_all: true, jobs: fig2_jobs, render: |_, r| fig2(r) },
    Figure { name: "fig3", in_all: true, jobs: fig3_jobs, render: |_, r| fig3(r) },
    Figure { name: "fig4", in_all: true, jobs: fig4_jobs, render: |_, r| fig4(r) },
    Figure { name: "fig5", in_all: true, jobs: fig5_jobs, render: |_, r| fig5(r) },
    Figure { name: "fig6", in_all: true, jobs: no_jobs, render: |_, _| fig6() },
    Figure { name: "fig7", in_all: true, jobs: no_jobs, render: |_, _| fig7() },
    Figure { name: "fig8", in_all: true, jobs: fig8_jobs, render: |_, r| fig8(r) },
    Figure { name: "fig9", in_all: true, jobs: no_jobs, render: |_, _| fig9() },
    Figure { name: "fig10", in_all: true, jobs: no_jobs, render: |_, _| fig10() },
    Figure { name: "fig11", in_all: true, jobs: fig11_jobs, render: |_, r| fig11(r) },
    Figure { name: "extensions", in_all: false, jobs: extension_jobs, render: |_, r| extension_study(r) },
    Figure { name: "ablations", in_all: false, jobs: ablation_jobs, render: ablations },
];

/// The figures `names` ask for, in print order; `all` stands for every
/// paper figure.
pub fn select(names: &[&str]) -> Vec<&'static Figure> {
    let all = names.contains(&"all");
    FIGURES
        .iter()
        .filter(|f| names.contains(&f.name) || (all && f.in_all))
        .collect()
}

/// The one sweep behind a set of figures.
pub struct Plan {
    /// Each figure with its jobs and, per job, its index in `unique`.
    figures: Vec<(&'static Figure, Vec<SweepJob>, Vec<usize>)>,
    /// One job per distinct config fingerprint, in first-planned order.
    pub unique: Vec<SweepJob>,
}

impl Plan {
    /// Plan `figures` at a cycle budget (0 → the default): every
    /// figure's jobs, deduplicated by config fingerprint.
    pub fn new(figures: &[&'static Figure], cycles: u64) -> Plan {
        let cycles = if cycles == 0 { DEFAULT_CYCLES } else { cycles };
        let mut index = BTreeMap::new();
        let mut unique = Vec::new();
        let figures = figures
            .iter()
            .map(|&figure| {
                let jobs = (figure.jobs)(cycles);
                let slots = jobs
                    .iter()
                    .map(|job| {
                        *index
                            .entry(config_fingerprint(&job.config))
                            .or_insert_with(|| {
                                unique.push(job.clone());
                                unique.len() - 1
                            })
                    })
                    .collect();
                (figure, jobs, slots)
            })
            .collect();
        Plan { figures, unique }
    }

    /// Every figure's text, in plan order, from the results of
    /// [`Plan::unique`] in its order.
    pub fn render(&self, results: &[SimResult]) -> Vec<String> {
        self.figures
            .iter()
            .map(|(figure, jobs, slots)| {
                let mine: Vec<SimResult> = slots.iter().map(|&i| results[i].clone()).collect();
                (figure.render)(jobs, &mine)
            })
            .collect()
    }
}

fn no_jobs(_cycles: u64) -> Vec<SweepJob> {
    Vec::new()
}

/// The workloads of the given thread counts, in the paper's order.
fn workloads_of(sizes: &[usize]) -> Vec<&'static Workload> {
    sizes.iter().flat_map(|&s| Workload::of_size(s)).collect()
}

/// One job per (workload, policy), workload-major: renderers read
/// their results as one `policies.len()` chunk per workload.
fn grid(workloads: &[&Workload], policies: &[PolicyKind], cycles: u64) -> Vec<SweepJob> {
    let mut jobs = Vec::new();
    for w in workloads {
        for p in policies {
            jobs.push(SweepJob::new(
                format!("{}/{}", w.name, p.label()),
                SimConfig::for_workload(w, *p).with_cycles(cycles),
            ));
        }
    }
    jobs
}

/// The machine sizes of Figs. 3 and 4: 2–8 threads on 1–4 cores.
const SIZES: [usize; 4] = [2, 4, 6, 8];

/// Figs. 2 and 3 compare ICOUNT with speculative FLUSH.
const ICOUNT_VS_FLUSH: [PolicyKind; 2] = [PolicyKind::Icount, PolicyKind::FlushSpec(30)];

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
    let _ = writeln!(
        s,
        "Pipeline depth        11 stages (front-end {} + back-end)",
        core.frontend_latency
    );
    let _ = writeln!(
        s,
        "Queue entries         {} int, {} fp, {} ld/st",
        core.int_queue, core.fp_queue, core.ls_queue
    );
    let _ = writeln!(
        s,
        "Execution units       {} int, {} fp, {} ld/st",
        core.int_units, core.fp_units, core.ls_units
    );
    let _ = writeln!(s, "Physical registers    {}", core.phys_regs);
    let _ = writeln!(s, "ROB size*             {} entries", core.rob_per_thread);
    let _ = writeln!(
        s,
        "Branch predictor      perceptron ({} local, {} perceps.)",
        core.local_history_entries, core.perceptrons
    );
    let _ = writeln!(
        s,
        "BTB                   {} entries, {}-way",
        core.btb_entries, core.btb_ways
    );
    let _ = writeln!(s, "RAS*                  {} entries", core.ras_entries);
    let _ = writeln!(
        s,
        "L1 icache             {} KB, {}-way, {} banks",
        mem.l1i.bytes >> 10,
        mem.l1i.ways,
        mem.l1_banks
    );
    let _ = writeln!(
        s,
        "L1 dcache             {} KB, {}-way, {} banks",
        mem.l1d.bytes >> 10,
        mem.l1d.ways,
        mem.l1_banks
    );
    let _ = writeln!(
        s,
        "L1 lat./miss          {}/{} cycles",
        mem.l1_hit_cycles,
        mem.l1_miss_nominal()
    );
    let _ = writeln!(
        s,
        "I-TLB, D-TLB          {} entries, fully associative",
        mem.tlb_entries
    );
    let _ = writeln!(s, "TLB miss              {} cycles", mem.tlb_miss_cycles);
    let _ = writeln!(
        s,
        "L2 cache              {} MB, {}-way, {} banks",
        mem.l2_bytes >> 20,
        mem.l2_ways,
        mem.l2_banks
    );
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

fn fig2_jobs(cycles: u64) -> Vec<SweepJob> {
    grid(&Workload::of_size(2), &ICOUNT_VS_FLUSH, cycles)
}

/// Render Fig. 2: all 2Wy workloads on a single-core SMT under ICOUNT
/// and FLUSH-S30 (paper: average speedup ≈ 1.22, max ≈ 1.93).
pub fn fig2(results: &[SimResult]) -> String {
    let mut text = String::new();
    let _ = writeln!(text, "== Fig. 2: Throughput in single-core SMT ==");
    let _ = writeln!(
        text,
        "{:<8}{:>12}{:>12}{:>10}",
        "wl", "ICOUNT", "FLUSH-S30", "speedup"
    );
    let mut speedups = Vec::new();
    for (w, rs) in Workload::of_size(2).iter().zip(results.chunks(2)) {
        let name = w.name;
        let ic = rs[0].throughput();
        let fl = rs[1].throughput();
        let _ = writeln!(text, "{name:<8}{ic:>12.4}{fl:>12.4}{:>10.3}", fl / ic);
        speedups.push(fl / ic);
    }
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    let max = speedups.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let _ = writeln!(text, "average speedup {avg:.3}   max speedup {max:.3}");
    text
}

// ----------------------------------------------------------------
// Fig. 3 — multicore CMP+SMT average throughput
// ----------------------------------------------------------------

fn fig3_jobs(cycles: u64) -> Vec<SweepJob> {
    grid(&workloads_of(&SIZES), &ICOUNT_VS_FLUSH, cycles)
}

/// Render Fig. 3: average throughput per workload size (2, 4, 6, 8
/// threads → 1–4 cores) under ICOUNT and FLUSH-S30. The paper's
/// finding: the single-core FLUSH advantage shrinks with core count and
/// inverts at 4 cores.
pub fn fig3(results: &[SimResult]) -> String {
    let rows: Vec<_> = workloads_of(&SIZES)
        .into_iter()
        .zip(results.chunks(2))
        .collect();
    let mut text = String::new();
    let _ = writeln!(text, "== Fig. 3: Average throughput, multicore CMP+SMT ==");
    let _ = writeln!(
        text,
        "{:<9}{:>12}{:>12}{:>10}",
        "threads", "ICOUNT", "FLUSH-S30", "ratio"
    );
    for size in SIZES {
        let data: Vec<&[SimResult]> = rows
            .iter()
            .filter(|(w, _)| w.threads() == size)
            .map(|&(_, r)| r)
            .collect();
        let avg =
            |k: usize| data.iter().map(|r| r[k].throughput()).sum::<f64>() / data.len() as f64;
        let (ic, fl) = (avg(0), avg(1));
        let _ = writeln!(text, "{size:<9}{ic:>12.4}{fl:>12.4}{:>10.3}", fl / ic);
    }
    text
}

// ----------------------------------------------------------------
// Fig. 4 — average L2 cache hit time vs number of cores
// ----------------------------------------------------------------

/// Fig. 4 runs ICOUNT, which "does not alter the L2 cache access
/// pattern".
fn fig4_jobs(cycles: u64) -> Vec<SweepJob> {
    grid(&workloads_of(&SIZES), &[PolicyKind::Icount], cycles)
}

/// Render Fig. 4: distribution of cycles from LSQ issue to service for
/// loads that hit the shared L2, merged per machine size.
pub fn fig4(results: &[SimResult]) -> String {
    let rows: Vec<_> = workloads_of(&SIZES).into_iter().zip(results).collect();
    let mut text = String::new();
    let _ = writeln!(text, "== Fig. 4: Average L2 cache hit time ==");
    for size in SIZES {
        let mut merged = LatencyHistogram::for_l2_hit_time();
        for (_, r) in rows.iter().filter(|(w, _)| w.threads() == size) {
            merged.merge(&r.l2_hit_hist);
        }
        let _ = writeln!(
            text,
            "-- {size} threads ({} cores) --\n{}",
            size / 2,
            report::histogram_table(&merged)
        );
    }
    text
}

// ----------------------------------------------------------------
// Fig. 5 — detection-moment analysis (trigger sweep)
// ----------------------------------------------------------------

/// The speculative triggers from 30 to 150 cycles, then FL-NS.
fn fig5_triggers() -> Vec<PolicyKind> {
    (30..=150)
        .step_by(20)
        .map(PolicyKind::FlushSpec)
        .chain([PolicyKind::FlushNonSpec])
        .collect()
}

/// (a) 8W3 and (b) the bzip2/twolf workload.
fn fig5_jobs(cycles: u64) -> Vec<SweepJob> {
    let w_a = Workload::by_name("8W3").expect("8W3 is a Fig. 1 workload");
    grid(&[w_a, &FIG5B_WORKLOAD], &fig5_triggers(), cycles)
}

/// Render Fig. 5: throughput per FLUSH trigger on the two study
/// workloads, and the best trigger of each.
pub fn fig5(results: &[SimResult]) -> String {
    let triggers = fig5_triggers();
    let (a, b) = results.split_at(triggers.len());
    let mut text = String::new();
    let _ = writeln!(text, "== Fig. 5: Detection Moment analysis ==");
    let _ = writeln!(
        text,
        "{:<12}{:>12}{:>20}",
        "trigger", "8W3", "bzip2x4+twolfx4"
    );
    for (p, (ra, rb)) in triggers.iter().zip(a.iter().zip(b)) {
        let (a, b) = (ra.throughput(), rb.throughput());
        let _ = writeln!(text, "{:<12}{a:>12.4}{b:>20.4}", p.label());
    }
    let best = |rs: &[SimResult]| {
        triggers
            .iter()
            .zip(rs)
            .max_by(|x, y| x.1.throughput().total_cmp(&y.1.throughput()))
            .map(|(p, _)| p.label())
            .unwrap_or_default()
    };
    let _ = writeln!(
        text,
        "best trigger: 8W3 → {}, bzip2/twolf → {}",
        best(a),
        best(b)
    );
    text
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

/// The 4-, 6- and 8-thread workloads of Figs. 8 and 11.
const FIG8_SIZES: [usize; 3] = [4, 6, 8];

fn fig8_jobs(cycles: u64) -> Vec<SweepJob> {
    grid(&workloads_of(&FIG8_SIZES), &PolicyKind::fig8_set(), cycles)
}

/// Render Fig. 8: the four evaluated policies on every 4-, 6- and
/// 8-thread workload, with column averages (paper: MFLUSH/FLUSH-S100
/// ≈ 0.98).
pub fn fig8(results: &[SimResult]) -> String {
    let policies = PolicyKind::fig8_set();
    let workloads = workloads_of(&FIG8_SIZES);
    let mut text = String::new();
    let _ = writeln!(text, "== Fig. 8: Throughput results ==");
    let _ = write!(text, "{:<8}", "wl");
    for p in &policies {
        let _ = write!(text, "{:>12}", p.label());
    }
    let _ = writeln!(text);
    let mut avg = [0.0; 4];
    for (w, rs) in workloads.iter().zip(results.chunks(policies.len())) {
        let _ = write!(text, "{:<8}", w.name);
        for (k, r) in rs.iter().enumerate() {
            let ipc = r.throughput();
            avg[k] += ipc;
            let _ = write!(text, "{ipc:>12.4}");
        }
        let _ = writeln!(text);
    }
    for a in &mut avg {
        *a /= workloads.len() as f64;
    }
    let _ = writeln!(
        text,
        "{:<8}{:>12.4}{:>12.4}{:>12.4}{:>12.4}   (MFLUSH/FLUSH-S100 = {:.3})",
        "avg",
        avg[0],
        avg[1],
        avg[2],
        avg[3],
        avg[3] / avg[2]
    );
    text
}

// ----------------------------------------------------------------
// Extension study — beyond the paper's four policies
// ----------------------------------------------------------------

const EXTENSION_POLICIES: [PolicyKind; 12] = [
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

fn extension_jobs(cycles: u64) -> Vec<SweepJob> {
    grid(&Workload::of_size(8), &EXTENSION_POLICIES, cycles)
}

/// Render the comparison of the paper's four policies against the
/// extension set (RR, DCRA, ADTS, STALL-S30, FLUSH-ADAPT, FLUSH-LMP) on
/// the 8-thread workloads: adaptivity-in-priority vs
/// adaptivity-in-threshold vs adaptivity-in-prediction.
pub fn extension_study(results: &[SimResult]) -> String {
    let data: Vec<&[SimResult]> = results.chunks(EXTENSION_POLICIES.len()).collect();
    let mut text = String::new();
    let _ = writeln!(
        text,
        "== Extension study: all policies, 8-thread workloads =="
    );
    let _ = writeln!(
        text,
        "{:<14}{:>12}{:>16}",
        "policy", "avg IPC", "avg wasted eu"
    );
    for (k, p) in EXTENSION_POLICIES.iter().enumerate() {
        let ipc = data.iter().map(|r| r[k].throughput()).sum::<f64>() / data.len() as f64;
        let eu = data.iter().map(|r| r[k].wasted_energy()).sum::<f64>() / data.len() as f64;
        let _ = writeln!(text, "{:<14}{ipc:>12.4}{eu:>16.1}", p.label());
    }
    text
}

// ----------------------------------------------------------------
// Ablations — the design choices DESIGN.md §6 calls out
// ----------------------------------------------------------------

fn mflush_variant(history: usize, reducer: McRegReducer, preventive: bool, mt: bool) -> PolicyKind {
    PolicyKind::MflushCustom {
        mcreg_history: history,
        mcreg_reducer: reducer,
        preventive,
        mt_enabled: mt,
    }
}

/// Render the DESIGN.md §6 ablations on 8W3, one row per job: MCReg
/// history and reducer, the Preventive State, the MT term, STALL vs
/// FLUSH, L2 bank and cluster counts, the related-work policies and
/// next-line prefetching.
pub fn ablations(jobs: &[SweepJob], results: &[SimResult]) -> String {
    let cycles = jobs.first().map_or(0, |j| j.config.cycles);
    let mut text = String::new();
    let _ = writeln!(text, "== Ablation report ({cycles}-cycle runs on 8W3) ==");
    for (job, r) in jobs.iter().zip(results) {
        let label = format!("{}:", job.label);
        let _ = writeln!(text, "{label:<30}{:.4}", r.throughput());
    }
    text
}

/// The [`ablations`] jobs, one per variant, in report order. Variants
/// that restate the paper default (MCReg 1/Last, 4 L2 banks, 1 cluster,
/// no prefetch) keep their own row, so each pair must agree exactly.
fn ablation_jobs(cycles: u64) -> Vec<SweepJob> {
    let w = Workload::by_name("8W3").unwrap();
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
    variants
        .into_iter()
        .map(|(label, c)| SweepJob::new(label, c))
        .collect()
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

const FIG11_POLICIES: [PolicyKind; 3] = [
    PolicyKind::FlushSpec(30),
    PolicyKind::FlushSpec(100),
    PolicyKind::Mflush,
];

fn fig11_jobs(cycles: u64) -> Vec<SweepJob> {
    grid(&workloads_of(&FIG8_SIZES), &FIG11_POLICIES, cycles)
}

/// Render Fig. 11: the wasted (refetch) energy of each flushing policy
/// on the Fig. 8 workloads, with totals (paper: MFLUSH/FLUSH-S100 ≈
/// 0.8, a 20 % saving).
pub fn fig11(results: &[SimResult]) -> String {
    let mut text = String::new();
    let _ = writeln!(text, "== Fig. 11: FLUSH wasted energy (energy units) ==");
    let _ = writeln!(
        text,
        "{:<8}{:>14}{:>14}{:>14}",
        "wl", "FLUSH-S30", "FLUSH-S100", "MFLUSH"
    );
    let mut t = [0.0; 3];
    for (w, rs) in workloads_of(&FIG8_SIZES).iter().zip(results.chunks(3)) {
        let row = [
            rs[0].wasted_energy(),
            rs[1].wasted_energy(),
            rs[2].wasted_energy(),
        ];
        let _ = writeln!(
            text,
            "{:<8}{:>14.1}{:>14.1}{:>14.1}",
            w.name, row[0], row[1], row[2]
        );
        for k in 0..3 {
            t[k] += row[k];
        }
    }
    let _ = writeln!(
        text,
        "{:<8}{:>14.1}{:>14.1}{:>14.1}   (MFLUSH/FLUSH-S100 = {:.3})",
        "total",
        t[0],
        t[1],
        t[2],
        t[2] / t[1]
    );
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtsim_core::run_sweep;

    #[test]
    fn figures_all_simulates_each_distinct_machine_once() {
        // Figs. 2, 3, 4, 5, 8, 11: 10 + 40 + 20 + 16 + 60 + 45 jobs, of
        // which Figs. 2, 3, 5 and 8 bring 10 + 30 + 15 + 30 new configs.
        let plan = Plan::new(&select(&["all"]), 3_000);
        let planned: usize = plan.figures.iter().map(|(_, jobs, _)| jobs.len()).sum();
        assert_eq!(planned, 191);
        assert_eq!(plan.unique.len(), 85);
        let distinct: std::collections::BTreeSet<String> = plan
            .unique
            .iter()
            .map(|j| config_fingerprint(&j.config))
            .collect();
        assert_eq!(distinct.len(), 85, "one job per fingerprint");
    }

    #[test]
    fn ablation_fingerprints_tell_every_distinct_machine_apart() {
        // A plan and a journal both key each job by its config
        // fingerprint, so two variants that share one are simulated
        // once and print the same answer: deduplicating the plan is
        // sound only because every distinct machine has its own.
        let jobs = ablation_jobs(3_000);
        let print = |label: &str| match jobs.iter().find(|j| j.label == label) {
            Some(j) => config_fingerprint(&j.config),
            None => panic!("no job '{label}'"),
        };
        let distinct: std::collections::BTreeSet<String> =
            jobs.iter().map(|j| config_fingerprint(&j.config)).collect();
        assert_eq!(jobs.len(), 20);
        assert_eq!(
            distinct.len(),
            18,
            "only the two restatements of the default may share"
        );
        assert_eq!(
            print("ICOUNT with 4 L2 bank(s)"),
            print("ICOUNT without prefetch")
        );
        assert_eq!(
            print("MFLUSH with 1 L2 cluster(s)"),
            print("MCReg history 1/Last (paper)")
        );
    }

    #[test]
    fn ablation_rows_that_restate_the_paper_default_agree() {
        // Each row runs on its own through `run_sweep`: the plan would
        // simulate two rows with one fingerprint once, and make the
        // equalities below true by construction.
        let labels = [
            "ICOUNT with 4 L2 bank(s)",
            "ICOUNT without prefetch",
            "MFLUSH with 1 L2 cluster(s)",
            "MCReg history 1/Last (paper)",
            "ICOUNT with 1 L2 bank(s)",
            "MFLUSH with 4 L2 cluster(s)",
        ];
        let jobs: Vec<SweepJob> = ablation_jobs(3_000)
            .into_iter()
            .filter(|j| labels.contains(&j.label.as_str()))
            .collect();
        assert_eq!(jobs.len(), labels.len());
        let ipc: BTreeMap<String, f64> = run_sweep(&jobs, 0)
            .into_iter()
            .map(|(label, r)| match r {
                Ok(r) => (label, r.throughput()),
                Err(e) => panic!("ablation '{label}' failed: {e}"),
            })
            .collect();
        let ipc = |label: &str| ipc[label];
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
