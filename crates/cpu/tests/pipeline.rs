//! End-to-end tests of one SMT core against the shared memory system.
//!
//! The golden correctness property of a trace-driven pipeline with
//! squash/replay is: **every thread commits its trace's sequence
//! numbers in order, exactly once** — regardless of branch
//! mispredictions, FLUSH response actions and wrong-path fetch.

use smtsim_cpu::thread::ThreadProgram;
use smtsim_cpu::{CoreConfig, SmtCore};
use smtsim_mem::{MemConfig, MemoryModel};
use smtsim_policy::{build_policy, PolicyEnv, PolicyKind};
use smtsim_trace::check::Cases;
use smtsim_trace::{spec, TraceGenerator};

fn make_core(policy: PolicyKind, benchmarks: &[&str], seed: u64) -> SmtCore {
    make_core_with(CoreConfig::paper(), policy, benchmarks, seed)
}

fn make_core_with(cfg: CoreConfig, policy: PolicyKind, benchmarks: &[&str], seed: u64) -> SmtCore {
    let env = PolicyEnv::paper(1);
    let programs = benchmarks
        .iter()
        .enumerate()
        .map(|(i, name)| {
            ThreadProgram::from_generator(TraceGenerator::new(
                spec::benchmark_by_name(name).unwrap(),
                seed + i as u64 * 1000,
            ))
        })
        .collect();
    SmtCore::new(0, cfg, build_policy(policy, &env), programs)
}

fn run_from(core: &mut SmtCore, mem: &mut MemoryModel, start: u64, cycles: u64) -> u64 {
    if start == 0 {
        core.prewarm(mem);
    }
    for now in start..start + cycles {
        mem.tick(now);
        core.tick(now, mem);
    }
    start + cycles
}

fn run(core: &mut SmtCore, mem: &mut MemoryModel, cycles: u64) {
    run_from(core, mem, 0, cycles);
}

/// Check the golden property on a commit log.
fn assert_in_order_exactly_once(log: &[(usize, u64)], contexts: usize) {
    let mut next = vec![0u64; contexts];
    for &(tid, seq) in log {
        assert_eq!(
            seq, next[tid],
            "thread {tid} committed seq {seq}, expected {}",
            next[tid]
        );
        next[tid] += 1;
    }
}

#[test]
fn single_thread_commits_in_order() {
    let mut core = make_core(PolicyKind::Icount, &["gzip", "eon"], 1);
    core.enable_commit_log();
    let mut mem = MemoryModel::detailed(MemConfig::paper(1));
    run(&mut core, &mut mem, 20_000);
    let stats = core.stats();
    assert!(
        stats.total_committed() > 5_000,
        "2 ILP threads on an 8-wide core must commit plenty, got {}",
        stats.total_committed()
    );
    assert_in_order_exactly_once(core.commit_log(), 2);
}

#[test]
fn deterministic_across_runs() {
    let mk = || {
        let mut core = make_core(PolicyKind::Icount, &["vpr", "twolf"], 7);
        let mut mem = MemoryModel::detailed(MemConfig::paper(1));
        run(&mut core, &mut mem, 10_000);
        core.total_committed()
    };
    assert_eq!(mk(), mk());
}

#[test]
fn different_policies_still_commit_correctly() {
    for policy in [
        PolicyKind::FlushSpec(30),
        PolicyKind::FlushSpec(100),
        PolicyKind::FlushNonSpec,
        PolicyKind::StallSpec(30),
        PolicyKind::Mflush,
        PolicyKind::Brcount,
        PolicyKind::L1dMissCount,
        PolicyKind::Adts,
    ] {
        let mut core = make_core(policy, &["mcf", "gzip"], 3);
        core.enable_commit_log();
        let mut mem = MemoryModel::detailed(MemConfig::paper(1));
        run(&mut core, &mut mem, 15_000);
        assert!(
            core.total_committed() > 500,
            "{policy:?} starved: {} commits",
            core.total_committed()
        );
        assert_in_order_exactly_once(core.commit_log(), 2);
    }
}

#[test]
fn flush_policy_actually_flushes_on_memory_bound_threads() {
    let mut core = make_core(PolicyKind::FlushSpec(30), &["mcf", "mcf"], 11);
    let mut mem = MemoryModel::detailed(MemConfig::paper(1));
    run(&mut core, &mut mem, 20_000);
    let stats = core.stats();
    assert!(
        stats.flushes_executed > 0,
        "mcf must trigger FLUSH-S30 within 20k cycles"
    );
    // Flushed instructions must show up in the energy ledger.
    let energy = stats.energy();
    assert!(energy.flush_squashed_total() > 0);
    assert!(energy.wasted_energy() > 0.0);
}

#[test]
fn icount_never_flushes() {
    let mut core = make_core(PolicyKind::Icount, &["mcf", "mcf"], 11);
    let mut mem = MemoryModel::detailed(MemConfig::paper(1));
    run(&mut core, &mut mem, 15_000);
    let stats = core.stats();
    assert_eq!(stats.flushes_executed, 0);
    assert_eq!(stats.energy().flush_squashed_total(), 0);
}

#[test]
fn flush_improves_mixed_workload_over_icount() {
    // The paper's core claim at 1 core (Fig. 2): ICOUNT lets an
    // L2-missing thread clog shared resources; FLUSH frees them. The
    // paper's 2W5 workload (lucas + wupwise: a streaming FP code with
    // frequent L2 misses next to a cache-resident FP code) shows the
    // effect strongly.
    let throughput = |policy| {
        let mut core = make_core(policy, &["lucas", "wupwise"], 5);
        let mut mem = MemoryModel::detailed(MemConfig::paper(1));
        run(&mut core, &mut mem, 40_000);
        core.total_committed()
    };
    let icount = throughput(PolicyKind::Icount);
    let flush = throughput(PolicyKind::FlushSpec(30));
    assert!(
        flush as f64 > icount as f64 * 1.10,
        "FLUSH-S30 ({flush}) must beat ICOUNT ({icount}) on lucas+wupwise at 1 core"
    );
}

#[test]
fn branch_predictor_learns_on_real_streams() {
    let mut core = make_core(PolicyKind::Icount, &["swim", "wupwise"], 9);
    let mut mem = MemoryModel::detailed(MemConfig::paper(1));
    run(&mut core, &mut mem, 20_000);
    for (tid, t) in core.stats().threads.iter().enumerate() {
        let acc = t.branch_accuracy();
        assert!(
            t.branches > 100,
            "thread {tid} committed only {} branches",
            t.branches
        );
        assert!(
            acc > 0.9,
            "fp codes are highly predictable; thread {tid} reached only {acc}"
        );
    }
}

#[test]
fn mispredicts_happen_and_are_recovered() {
    // twolf has weakly-biased branches → real mispredicts.
    let mut core = make_core(PolicyKind::Icount, &["twolf", "vpr"], 13);
    core.enable_commit_log();
    let mut mem = MemoryModel::detailed(MemConfig::paper(1));
    run(&mut core, &mut mem, 20_000);
    let stats = core.stats();
    let mispredicts: u64 = stats.threads.iter().map(|t| t.mispredicts).sum();
    assert!(
        mispredicts > 10,
        "expected real mispredicts, got {mispredicts}"
    );
    // Wrong-path work shows up as mispredict squash energy…
    assert!(stats.energy().branch_squashed_total() > 0);
    // …but correctness is untouched.
    assert_in_order_exactly_once(core.commit_log(), 2);
}

/// The replay ring is sized from the core's config, not the paper's
/// core: with a ROB and fetch queue four times the paper's, FLUSH-S30
/// rewinds past more correct-path instructions than a ring sized for
/// the paper's ROB and fetch queue holds (the first such flush on this
/// pair comes within a thousand instructions), and every one of them
/// must replay in order, exactly once.
#[test]
fn replay_ring_covers_the_configured_rob_and_fetch_queue() {
    let cfg = CoreConfig {
        rob_per_thread: 1024,
        fetch_queue: 64,
        phys_regs: 4096,
        ..CoreConfig::paper()
    };
    let mut core = make_core_with(cfg, PolicyKind::FlushSpec(30), &["equake", "art"], 1);
    core.enable_commit_log();
    let mut mem = MemoryModel::detailed(MemConfig::paper(1));
    run(&mut core, &mut mem, 50_000);
    assert!(core.stats().flushes_executed > 0);
    assert_in_order_exactly_once(core.commit_log(), 2);
}

#[test]
fn stall_policy_gates_without_squashing() {
    let mut core = make_core(PolicyKind::StallSpec(30), &["mcf", "mcf"], 17);
    let mut mem = MemoryModel::detailed(MemConfig::paper(1));
    run(&mut core, &mut mem, 20_000);
    let stats = core.stats();
    assert!(stats.stalls_executed > 0, "mcf must trigger stalls");
    assert_eq!(
        stats.energy().flush_squashed_total(),
        0,
        "STALL never squashes"
    );
}

#[test]
fn mflush_runs_and_uses_preventive_state() {
    let mut core = make_core(PolicyKind::Mflush, &["mcf", "art"], 19);
    let mut mem = MemoryModel::detailed(MemConfig::paper(1));
    run(&mut core, &mut mem, 30_000);
    let stats = core.stats();
    assert!(
        stats.stalls_executed > 0,
        "MFLUSH's preventive state must engage on memory-bound threads"
    );
    assert!(
        stats.flushes_executed > 0,
        "MFLUSH must flush past-barrier accesses"
    );
}

#[test]
fn resources_stay_balanced_over_long_runs() {
    // Conservation check: after many flushes/mispredicts, the pipeline
    // still commits and queue accounting never deadlocks.
    let mut core = make_core(PolicyKind::FlushSpec(50), &["mcf", "twolf"], 23);
    let mut mem = MemoryModel::detailed(MemConfig::paper(1));
    let t = run_from(&mut core, &mut mem, 0, 30_000);
    let committed_early = core.total_committed();
    run_from(&mut core, &mut mem, t, 30_000);
    // Progress continues in the second half (no wedge).
    assert!(core.total_committed() > committed_early + 100);
}

#[test]
fn scheduler_invariants_hold_every_tick() {
    // The issue-queue slots, their ready masks and the per-register
    // waiting masks must agree with the ROB and register file after
    // every cycle, across flushes, stalls and mispredict squashes.
    Cases::new(8).run("scheduler_invariants_hold_every_tick", |g| {
        let policy = *g.choose(&PolicyKind::fig8_set());
        let a = g.choose(&spec::ALL_BENCHMARKS).name;
        let b = g.choose(&spec::ALL_BENCHMARKS).name;
        let mut core = make_core(policy, &[a, b], g.u64_in(0..1 << 32));
        let mut mem = MemoryModel::detailed(MemConfig::paper(1));
        core.prewarm(&mut mem);
        for now in 0..6_000 {
            mem.tick(now);
            core.tick(now, &mut mem);
            if let Err(e) = core.check_scheduler() {
                panic!("{policy:?} on {a}+{b}, cycle {now}: {e}");
            }
        }
    });
}
