//! Cross-crate wiring tests: the full stack (traces → cores → shared
//! memory → policies → energy) assembled through the public facade.

use mflush::prelude::*;
use mflush::sim::{run_sweep_ok, SweepJob};

#[test]
fn every_policy_runs_on_every_workload_size() {
    let policies = [
        PolicyKind::Icount,
        PolicyKind::FlushSpec(50),
        PolicyKind::FlushNonSpec,
        PolicyKind::StallSpec(50),
        PolicyKind::StallNonSpec,
        PolicyKind::Mflush,
        PolicyKind::Brcount,
        PolicyKind::L1dMissCount,
        PolicyKind::Adts,
    ];
    for size in [2usize, 8] {
        let w = Workload::of_size(size)[0];
        for p in policies {
            let r = Simulator::build(&SimConfig::for_workload(w, p).with_cycles(5_000))
                .unwrap()
                .run()
                .unwrap();
            assert!(
                r.total_committed() > 100,
                "{} on {}: starved with {} commits",
                p.label(),
                w.name,
                r.total_committed()
            );
        }
    }
}

#[test]
fn golden_commit_order_holds_through_the_full_stack() {
    // Every thread must commit its trace in order, exactly once, under
    // the most squash-happy policy on the most memory-bound workload.
    let w = Workload::by_name("4W3").unwrap(); // mcf, mesa, lucas, gzip
    let cfg = SimConfig::for_workload(w, PolicyKind::FlushSpec(30)).with_cycles(30_000);
    let mut sim = Simulator::build(&cfg).unwrap();
    sim.enable_commit_logs();
    sim.step(30_000).unwrap();
    for (core, log) in sim.commit_logs().iter().enumerate() {
        let mut next = [0u64; 2];
        assert!(!log.is_empty(), "core {core} committed nothing");
        for &(tid, seq) in *log {
            assert_eq!(
                seq, next[tid],
                "core {core} thread {tid}: committed {seq}, expected {}",
                next[tid]
            );
            next[tid] += 1;
        }
    }
}

#[test]
fn simulation_is_deterministic_end_to_end() {
    let run = || {
        let w = Workload::by_name("6W5").unwrap();
        let r =
            Simulator::build(&SimConfig::for_workload(w, PolicyKind::Mflush).with_cycles(10_000))
                .unwrap()
                .run()
                .unwrap();
        (
            r.total_committed(),
            r.total_flushes(),
            r.l2_hit_hist.count(),
            format!("{:.6}", r.wasted_energy()),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn parallel_sweep_matches_serial_execution() {
    let mk_jobs = || {
        vec![
            SweepJob::new(
                "a",
                SimConfig::for_workload(Workload::by_name("2W2").unwrap(), PolicyKind::Mflush)
                    .with_cycles(5_000),
            ),
            SweepJob::new(
                "b",
                SimConfig::for_workload(Workload::by_name("4W4").unwrap(), PolicyKind::Icount)
                    .with_cycles(5_000),
            ),
        ]
    };
    let par = run_sweep_ok(&mk_jobs(), 2);
    let ser = run_sweep_ok(&mk_jobs(), 1);
    for ((la, a), (lb, b)) in par.iter().zip(&ser) {
        assert_eq!(la, lb);
        assert_eq!(a.total_committed(), b.total_committed());
        assert_eq!(a.total_flushes(), b.total_flushes());
    }
}

#[test]
fn config_clones_validate_and_rebuild_identically() {
    let w = Workload::by_name("8W2").unwrap();
    let cfg = SimConfig::for_workload(w, PolicyKind::FlushSpec(70));
    cfg.validate().unwrap();
    let again = cfg.clone();
    let a = Simulator::build(&cfg.with_cycles(2_000))
        .unwrap()
        .run()
        .unwrap();
    let b = Simulator::build(&again.with_cycles(2_000))
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(a.total_committed(), b.total_committed());
}

#[test]
fn policy_env_is_derived_from_memory_machine() {
    let w = Workload::by_name("6W1").unwrap();
    let mut cfg = SimConfig::for_workload(w, PolicyKind::Mflush);
    cfg.mem.dram_cycles = 500;
    let env = cfg.policy_env();
    assert_eq!(env.max_latency, 22 + 500, "MAX follows the machine");
    assert_eq!(env.num_cores, 3);
}

#[test]
fn l2_clusters_reduce_mt_and_still_run() {
    // Extension: 4 cores over 2 L2 clusters — MFLUSH's operational
    // environment must use the 2 cores per cluster for its MT term.
    let w = Workload::by_name("8W2").unwrap();
    let mut cfg = SimConfig::for_workload(w, PolicyKind::Mflush).with_cycles(10_000);
    cfg.mem.l2_clusters = 2;
    cfg.validate().unwrap();
    let env = cfg.policy_env();
    assert_eq!(env.num_cores, 2, "MT scales with cores per cluster");
    let r = Simulator::build(&cfg).unwrap().run().unwrap();
    assert!(r.total_committed() > 1_000);
}

#[test]
fn next_line_prefetch_runs_end_to_end() {
    let w = Workload::by_name("4W2").unwrap();
    let mut cfg = SimConfig::for_workload(w, PolicyKind::Icount).with_cycles(10_000);
    cfg.mem.next_line_prefetch = true;
    let r = Simulator::build(&cfg).unwrap().run().unwrap();
    let prefetches = r.mem.total(|c| c.prefetches);
    assert!(prefetches > 0, "streaming workload must trigger prefetches");
    assert!(r.total_committed() > 1_000);
}

#[test]
fn extension_policies_run_on_real_workloads() {
    for p in [
        PolicyKind::RoundRobin,
        PolicyKind::Dcra,
        PolicyKind::FlushAdaptive,
        PolicyKind::FlushMissPredict,
    ] {
        let w = Workload::by_name("4W3").unwrap();
        let r = Simulator::build(&SimConfig::for_workload(w, p).with_cycles(8_000))
            .unwrap()
            .run()
            .unwrap();
        assert!(
            r.total_committed() > 500,
            "{} starved: {}",
            p.label(),
            r.total_committed()
        );
    }
}

#[test]
fn mflush_introspection_via_core_policy_handle() {
    let w = Workload::by_name("4W3").unwrap();
    let cfg = SimConfig::for_workload(w, PolicyKind::Mflush).with_cycles(20_000);
    let mut sim = Simulator::build(&cfg).unwrap();
    sim.step(20_000).unwrap();
    for core in sim.cores() {
        assert_eq!(core.policy_name(), "MFLUSH");
    }
    let r = sim.snapshot();
    let stalls: u64 = r.cores.iter().map(|c| c.stalls_executed).sum();
    assert!(
        stalls > 0,
        "MFLUSH preventive state should engage on mcf/lucas"
    );
}
