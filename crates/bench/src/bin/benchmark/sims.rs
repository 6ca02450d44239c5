//! The two simulation workloads and the per-job drivers every workload
//! shares: the untraced `Simulator` job and the traced/untraced pair.

use crate::stats::{best, geomean, median, now, secs_since};
use crate::traced::{run_traced, LayerTimes};
use crate::{layer_metrics, run_passes, Report, MIN_PASSES};
use smtsim_core::cache::fnv64;
use smtsim_core::{SimConfig, SimResult, Simulator, ToJson, Workload};
use smtsim_energy::EnergyAccount;
use smtsim_policy::PolicyKind;

/// How big the simulation workloads are. The smoke test runs the same
/// code at a fiftieth of the size.
#[derive(Debug, Clone, Copy)]
pub struct SimSize {
    /// Cycles per paper-sweep job.
    pub sweep_cycles: u64,
    /// Cycles per long-latency job.
    pub long_cycles: u64,
    /// Seeds each configuration runs with. A seed fixes a thread's
    /// miss pattern for the whole run, so simulated work varies more
    /// between seeds than with run length; several seeds per config
    /// keep one run's total work close to another's.
    pub seeds: u64,
}

impl SimSize {
    /// The benchmark's size.
    pub const FULL: SimSize = SimSize {
        sweep_cycles: 12_000,
        long_cycles: 56_000,
        seeds: 4,
    };
    /// One fiftieth, for the smoke test.
    pub const SMOKE: SimSize = SimSize {
        sweep_cycles: 240,
        long_cycles: 1_120,
        seeds: 4,
    };
}

/// Distance between the seeds of one configuration; larger than the
/// `thread * 7919` offset the simulator adds per thread.
const SEED_STRIDE: u64 = 1_000_000;

/// DRAM latency of the long-latency workload (the paper machine has
/// 250 cycles).
pub const LONG_DRAM_CYCLES: u64 = 800;

/// Fig. 8's policies × `workloads` × `size.seeds` seeds from `seed`
/// on, workload-major.
fn fig8_jobs(
    workloads: [&str; 4],
    cycles: u64,
    seed: u64,
    seeds: u64,
    dram: Option<u64>,
) -> Vec<SimConfig> {
    let mut jobs = Vec::new();
    for name in workloads {
        let w = Workload::by_name(name).expect("the benchmark names paper workloads");
        for policy in PolicyKind::fig8_set() {
            for j in 0..seeds {
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

/// `paper-sweep`: the Fig. 8 policy set on the paper machine.
pub fn paper_sweep(seed: u64, size: SimSize) -> Vec<SimConfig> {
    let workloads = ["2W2", "4W3", "6W2", "8W2"];
    fig8_jobs(workloads, size.sweep_cycles, seed, size.seeds, None)
}

/// `long-latency`: the same policies on memory-bound workloads with a
/// slow DRAM, where most cycles stall on long-latency loads.
pub fn long_latency(seed: u64, size: SimSize) -> Vec<SimConfig> {
    let workloads = ["2W1", "2W5", "4W1", "4W5"];
    fig8_jobs(
        workloads,
        size.long_cycles,
        seed,
        size.seeds,
        Some(LONG_DRAM_CYCLES),
    )
}

/// One untraced job, timed by phase.
pub struct Job {
    /// The result and its JSON.
    pub result: SimResult,
    /// `SimResult::to_json` of `result`.
    pub json: String,
    /// `Simulator::step` over the whole interval (prewarm included),
    /// seconds.
    pub step_s: f64,
    /// Build to JSON, seconds.
    pub total_s: f64,
    /// Cycles stall skip-ahead elided.
    pub skipped: u64,
}

/// Run one job through `Simulator::build → step → snapshot → to_json`.
/// A job that errs, or ends short of its cycles, is an error.
pub fn run_job(cfg: &SimConfig) -> Result<Job, String> {
    let start = now();
    let mut sim = Simulator::build(cfg).map_err(|e| e.to_string())?;
    let t = now();
    sim.step(cfg.cycles).map_err(|e| e.to_string())?;
    let step_s = secs_since(t);
    let result = sim.snapshot();
    let json = result.to_json();
    let total_s = secs_since(start);
    if result.cycles != cfg.cycles {
        return Err(format!(
            "ended at cycle {} of {}",
            result.cycles, cfg.cycles
        ));
    }
    Ok(Job {
        skipped: sim.skipped_cycles(),
        result,
        json,
        step_s,
        total_s,
    })
}

/// Set-up of every job in `jobs`: `Simulator::build` plus the prewarm
/// the first `step` performs (`step(0)` runs exactly that), seconds.
pub fn setup_secs(jobs: &[SimConfig]) -> Result<f64, String> {
    let start = now();
    for cfg in jobs {
        let mut sim = Simulator::build(cfg).map_err(|e| e.to_string())?;
        sim.step(0).map_err(|e| e.to_string())?;
    }
    Ok(secs_since(start))
}

/// What one pass of traced/untraced job pairs measured.
#[derive(Default)]
pub struct TracedPass {
    /// Per-layer host times, summed over the jobs.
    pub layers: LayerTimes,
    /// Untraced `step` seconds over the same jobs.
    pub untraced_step_s: f64,
    /// Untraced build-to-JSON seconds over the same jobs.
    pub untraced_total_s: f64,
    /// Cycles the untraced runs skipped ahead.
    pub skipped: u64,
    /// Cycles simulated.
    pub cycles: u64,
    /// The untraced results.
    pub results: Vec<SimResult>,
}

impl TracedPass {
    /// Accumulate a later pass; its results repeat the first pass's.
    pub fn add(&mut self, o: TracedPass) {
        self.layers.add(&o.layers);
        self.untraced_step_s += o.untraced_step_s;
        self.untraced_total_s += o.untraced_total_s;
        self.skipped += o.skipped;
        self.cycles += o.cycles;
        if self.results.is_empty() {
            self.results = o.results;
        }
    }
}

/// Run each job untraced and then traced, failing the op when the two
/// JSON renderings differ by a single byte.
pub fn traced_pass(jobs: &[SimConfig], report: &mut Report) -> TracedPass {
    let mut pass = TracedPass::default();
    for cfg in jobs {
        report.ops += 1;
        let job = match run_job(cfg) {
            Ok(job) => job,
            Err(e) => {
                report.fail(format!("untraced {}: {e}", label(cfg)));
                continue;
            }
        };
        match run_traced(cfg) {
            Ok((json, _)) if json != job.json => {
                report.fail(format!("traced {} differs from Simulator::run", label(cfg)));
            }
            Ok((_, layers)) => {
                pass.layers.add(&layers);
                pass.untraced_step_s += job.step_s;
                pass.untraced_total_s += job.total_s;
                pass.skipped += job.skipped;
                pass.cycles += cfg.cycles;
            }
            Err(e) => report.fail(format!("traced {}: {e}", label(cfg))),
        }
        pass.results.push(job.result);
    }
    pass
}

/// `workload/policy@seed`, for failure messages.
pub fn label(cfg: &SimConfig) -> String {
    format!(
        "{}/{}@{}",
        cfg.benchmarks.join(","),
        cfg.policy.label(),
        cfg.seed
    )
}

/// The deterministic simulated statistics of `results`, summed. A
/// change that claims only speed must leave every one identical.
pub fn sim_counts(results: &[SimResult]) -> Vec<(&'static str, f64, &'static str)> {
    let cores = || results.iter().flat_map(|r| r.cores.iter());
    let core_sum = |f: fn(&smtsim_cpu::CoreStats) -> u64| cores().map(f).sum::<u64>() as f64;
    let mem_sum = |f: fn(&smtsim_mem::CoreMemStats) -> u64| {
        results.iter().map(|r| r.mem.total(f)).sum::<u64>() as f64
    };
    let committed = core_sum(|c| c.total_committed());
    let fetched = cores()
        .flat_map(|c| c.threads.iter())
        .map(|t| t.fetched)
        .sum::<u64>() as f64;
    let l2_hits = mem_sum(|m| m.l2_hits);
    let l2_misses = mem_sum(|m| m.l2_misses);
    let mut energy = EnergyAccount::new();
    for r in results {
        energy.merge(&r.energy());
    }
    vec![
        ("cpu.committed", committed, "count"),
        ("cpu.fetched", fetched, "count"),
        ("cpu.useful_fetch_ratio", committed / fetched, "ratio"),
        (
            "cpu.rob_full_stalls",
            core_sum(|c| c.rob_full_stalls),
            "count",
        ),
        (
            "cpu.iq_full_stalls",
            core_sum(|c| c.iq_full_stalls),
            "count",
        ),
        ("cpu.mshr_retries", core_sum(|c| c.mshr_retries), "count"),
        ("policy.flushes", core_sum(|c| c.flushes_executed), "count"),
        ("policy.stalls", core_sum(|c| c.stalls_executed), "count"),
        (
            "mem.l1d_misses",
            mem_sum(|m| m.load_l1_misses + m.store_l1_misses),
            "count",
        ),
        ("mem.l2_misses", l2_misses, "count"),
        ("mem.l2_hit_rate", l2_hits / (l2_hits + l2_misses), "ratio"),
        (
            "mem.mshr_full_stalls",
            mem_sum(|m| m.mshr_full_stalls),
            "count",
        ),
        ("energy.waste_ratio", energy.waste_ratio(), "ratio"),
    ]
}

/// The paper's headline: geometric mean, over workloads and seeds, of
/// MFLUSH's throughput over ICOUNT's. Runs of one workload pair up in
/// seed order. `None` unless `results` holds both policies.
pub fn mflush_over_icount(results: &[SimResult]) -> Option<f64> {
    let mut log_sum = 0.0;
    let mut n = 0;
    let mut seen: Vec<&Vec<String>> = Vec::new();
    for r in results {
        if seen.contains(&&r.workload) {
            continue;
        }
        seen.push(&r.workload);
        let runs = |policy: &str| -> Vec<&SimResult> {
            results
                .iter()
                .filter(|x| x.policy == policy && x.workload == r.workload)
                .collect()
        };
        for (m, i) in runs("MFLUSH").into_iter().zip(runs("ICOUNT")) {
            log_sum += m.speedup_over(i).ln();
            n += 1;
        }
    }
    (n > 0).then(|| (log_sum / n as f64).exp())
}

/// Run a simulation workload for `seconds`: timed passes over `jobs`,
/// or, with `trace`, passes of traced/untraced pairs.
pub fn run(
    jobs: &[SimConfig],
    seconds: f64,
    trace: bool,
    report: &mut Report,
) -> Result<(), String> {
    if trace {
        let mut traced = TracedPass::default();
        let passes = run_passes(seconds, 1, || {
            traced.add(traced_pass(jobs, report));
            Ok(())
        })?;
        report.passes = passes;
        finish(&traced.results, report);
        layer_metrics(&traced, report);
        return Ok(());
    }

    // Every pass repeats the same jobs. Host interference only ever adds
    // time, so each job's time is its best repeat. Each pass also takes
    // one set-up sample, so the samples spread over the whole run.
    let mut setups = Vec::new();
    let mut total_s = vec![Vec::new(); jobs.len()];
    let mut step_s = vec![Vec::new(); jobs.len()];
    let mut results = Vec::new();
    let passes = run_passes(seconds, MIN_PASSES, || {
        setups.push(setup_secs(jobs)?);
        let first = results.is_empty();
        for (j, cfg) in jobs.iter().enumerate() {
            report.ops += 1;
            match run_job(cfg) {
                Ok(job) => {
                    total_s[j].push(job.total_s);
                    step_s[j].push(job.step_s);
                    if first {
                        results.push(job.result);
                    }
                }
                Err(e) => report.fail(format!("{}: {e}", label(cfg))),
            }
        }
        Ok(())
    })?;
    report.passes = passes;
    report.metric("setup_s", median(&setups), "s");
    let job_s: Vec<f64> = total_s.iter().filter_map(|s| best(s)).collect();
    let simulating_s: f64 = step_s.iter().filter_map(|s| best(s)).sum();
    let committed: u64 = results.iter().map(|r| r.total_committed()).sum();
    let cycles: u64 = results.iter().map(|r| r.cycles).sum();
    report.metric("pass_s", job_s.iter().sum(), "s");
    report.metric("sim_mips", committed as f64 / simulating_s / 1e6, "M/s");
    report.metric("sim_mcps", cycles as f64 / simulating_s / 1e6, "M/s");
    let job_ms: Vec<f64> = job_s.iter().map(|s| s * 1e3).collect();
    report.metric("op_geomean_ms", geomean(&job_ms), "ms");
    finish(&results, report);
    Ok(())
}

/// Record the deterministic side of one pass: counts, digest, headline.
fn finish(results: &[SimResult], report: &mut Report) {
    report.counts = sim_counts(results);
    let all: String = results.iter().map(|r| r.to_json()).collect();
    report.result_fnv = fnv64(all.as_bytes());
    if let Some(ratio) = mflush_over_icount(results) {
        report
            .counts
            .push(("policy.mflush_over_icount", ratio, "ratio"));
    }
}
