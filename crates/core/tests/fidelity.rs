//! Model goldens and robustness suite.
//!
//! The load-bearing invariant: every code path — single run, policy
//! sweep, journaled sweep with replay — reproduces the output of the
//! binary that captured the fixtures **byte for byte**. The fixtures
//! under `fixtures/fidelity/` (named after the retired fidelity
//! selection, DESIGN.md §13) were captured before that refactor (CLI
//! default seed `0x5eed`; the mflush fixture pins `--seed 7`) and are
//! compared as raw bytes, never as parsed values.
//!
//! Beside the goldens: the policy ordering the paper's conclusions rest
//! on, and config validation that *returns* `SimError::InvalidConfig`
//! instead of panicking, whatever geometry a caller invents.

use smtsim_core::json::{write_escaped, JsonObject};
use smtsim_core::{
    run_sweep_journaled, SimConfig, SimError, Simulator, SweepJob, ToJson, Workload,
};
use smtsim_policy::mflush::McRegReducer;
use smtsim_policy::PolicyKind;

fn golden(name: &str) -> String {
    let path = format!(
        "{}/tests/fixtures/fidelity/{name}",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing fixture {path}: {e}"))
}

/// What `smtsim run --json` printed: the result JSON plus the trailing
/// newline from `println!`.
fn run_stdout(cfg: &SimConfig) -> String {
    let r = Simulator::build(cfg).unwrap().run().unwrap();
    format!("{}\n", r.to_json())
}

#[test]
fn detailed_run_reproduces_pre_refactor_goldens() {
    let cases: [(&str, &str, PolicyKind, u64, Option<u64>); 3] = [
        (
            "run_4W3_flush-s30_c6000.golden.json",
            "4W3",
            PolicyKind::FlushSpec(30),
            6_000,
            None,
        ),
        (
            "run_2W1_mflush_c10000_s7.golden.json",
            "2W1",
            PolicyKind::Mflush,
            10_000,
            Some(7),
        ),
        (
            "run_8W2_icount_c4000.golden.json",
            "8W2",
            PolicyKind::Icount,
            4_000,
            None,
        ),
    ];
    for (fixture, workload, policy, cycles, seed) in cases {
        let w = Workload::by_name(workload).unwrap();
        let mut cfg = SimConfig::for_workload(w, policy).with_cycles(cycles);
        if let Some(s) = seed {
            cfg = cfg.with_seed(s);
        }
        assert_eq!(
            run_stdout(&cfg),
            golden(fixture),
            "{workload}/{policy:?} diverged from the pre-refactor bytes"
        );
    }
}

/// L1-hit loads behind a TLB walk far longer than any completion-wheel
/// span: with 4000-cycle walks and a 4-entry TLB, L1-resident lines
/// lose their translations, so some completions are scheduled thousands
/// of cycles out and go through the wheel's overflow heap. The Fig. 1
/// machine (512 entries, 300 cycles) never reaches that path, so its
/// goldens would not notice it breaking. The fixture was captured
/// before the wheel replaced the binary-heap schedule; skip-ahead must
/// not change a byte either.
#[test]
fn overflowing_completions_reproduce_pre_wheel_bytes() {
    let w = Workload::by_name("2W1").unwrap();
    let mut cfg = SimConfig::for_workload(w, PolicyKind::Mflush).with_cycles(60_000);
    cfg.mem.tlb_miss_cycles = 4_000;
    cfg.mem.tlb_entries = 4;
    let skip_on = run_stdout(&cfg.clone().with_skip_ahead(true));
    let skip_off = run_stdout(&cfg.with_skip_ahead(false));
    assert_eq!(skip_on, skip_off, "skip-ahead changed the bytes");
    assert_eq!(
        skip_on,
        golden("run_2W1_mflush_tlb4000x4_c60000.golden.json"),
        "overflowing completions diverged from the pre-wheel bytes"
    );
}

/// The policy list `smtsim sweep` runs.
const SWEEP_POLICIES: [PolicyKind; 7] = [
    PolicyKind::Icount,
    PolicyKind::FlushSpec(30),
    PolicyKind::FlushSpec(100),
    PolicyKind::FlushNonSpec,
    PolicyKind::StallSpec(30),
    PolicyKind::Mflush,
    PolicyKind::Dcra,
];

/// Every `PolicyKind` variant once, plus an MFLUSH ablation variant.
const EVERY_POLICY: [PolicyKind; 14] = [
    PolicyKind::Icount,
    PolicyKind::FlushSpec(30),
    PolicyKind::FlushNonSpec,
    PolicyKind::StallSpec(30),
    PolicyKind::StallNonSpec,
    PolicyKind::Mflush,
    PolicyKind::MflushCustom {
        mcreg_history: 4,
        mcreg_reducer: McRegReducer::Max,
        preventive: false,
        mt_enabled: true,
    },
    PolicyKind::Brcount,
    PolicyKind::L1dMissCount,
    PolicyKind::Adts,
    PolicyKind::RoundRobin,
    PolicyKind::Dcra,
    PolicyKind::FlushAdaptive,
    PolicyKind::FlushMissPredict,
];

/// The sweep job list for one workload: one job per policy, the way
/// `smtsim sweep` builds them.
fn sweep_jobs(workload: &str, policies: &[PolicyKind], cycles: u64) -> Vec<SweepJob> {
    let w = Workload::by_name(workload).unwrap();
    policies
        .iter()
        .map(|p| {
            SweepJob::new(
                p.label(),
                SimConfig::for_workload(w, *p).with_cycles(cycles),
            )
        })
        .collect()
}

/// The `a+b` workload label `smtsim sweep` prints, recovered from the
/// first successful job so the fixture stays the single source of
/// truth for benchmark names.
fn out_workload(out: &[(String, Result<smtsim_core::SimResult, SimError>)]) -> String {
    out.iter()
        .find_map(|(_, r)| r.as_ref().ok())
        .expect("at least one sweep job must succeed")
        .workload
        .join("+")
}

/// Re-render `run_sweep_journaled` output the way `smtsim sweep --json`
/// does, so the fixture comparison covers the whole serialization path.
fn sweep_stdout(out: &[(String, Result<smtsim_core::SimResult, SimError>)]) -> String {
    let mut s = String::new();
    s.push_str("{\"workload\":");
    write_escaped(&mut s, &out_workload(out));
    s.push_str(",\"jobs\":[");
    for (i, (label, r)) in out.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let mut o = JsonObject::begin(&mut s);
        o.field("label", label);
        match r {
            Ok(res) => o.field("result", res),
            Err(e) => o.field("error", e),
        };
        o.end();
    }
    s.push_str("]}\n");
    s
}

#[test]
fn detailed_sweep_reproduces_pre_refactor_golden() {
    let out = run_sweep_journaled(&sweep_jobs("2W2", &SWEEP_POLICIES, 3_000), 0, None);
    assert_eq!(sweep_stdout(&out), golden("sweep_2W2_c3000.golden.json"));
}

/// Every policy on a shared-L2 CMP, long enough to cross FLUSH-ADAPT's
/// 8192-cycle and ADTS's 4096-cycle epochs. The fixture was captured
/// before the detect-and-respond and priority policies replaced the
/// per-policy implementations.
#[test]
fn every_policy_reproduces_its_golden() {
    let out = run_sweep_journaled(&sweep_jobs("4W3", &EVERY_POLICY, 30_000), 0, None);
    for (label, r) in &out {
        if label.starts_with("FLUSH-") || label.starts_with("STALL-") {
            let r = r.as_ref().unwrap();
            let responses: u64 = r
                .cores
                .iter()
                .map(|c| c.flushes_executed + c.stalls_executed)
                .sum();
            assert!(
                responses > 0,
                "{label} never responded: the golden pins nothing"
            );
        }
    }
    assert_eq!(
        sweep_stdout(&out),
        golden("policies_4W3_c30000.golden.json")
    );
}

#[test]
fn journal_replay_reproduces_pre_refactor_golden() {
    // A journaled sweep, then a second sweep resuming from the same
    // journal: the replayed results must serialize to the same bytes
    // as the golden — the persistence round-trip is part of the
    // equivalence surface.
    let dir = std::env::temp_dir().join(format!("smtsim-fidelity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("sweep.jsonl");
    let _ = std::fs::remove_file(&journal);

    let jobs = sweep_jobs("2W2", &SWEEP_POLICIES, 3_000);
    let fresh = run_sweep_journaled(&jobs, 0, Some(&journal));
    let replayed = run_sweep_journaled(&jobs, 0, Some(&journal));
    let expected = golden("sweep_2W2_c3000.golden.json");
    assert_eq!(sweep_stdout(&fresh), expected, "journaled run diverged");
    assert_eq!(sweep_stdout(&replayed), expected, "journal replay diverged");

    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_dir(&dir);
}

#[test]
fn flush_policies_beat_icount_on_2w3() {
    // mcf+gzip: FLUSH frees the resources mcf's L2 misses clog, so
    // MFLUSH and FLUSH-S30 beat ICOUNT by ~1.4x at this cycle count
    // (2.7x at 150k cycles).
    let w = Workload::by_name("2W3").unwrap();
    let throughput = |policy| {
        let cfg = SimConfig::for_workload(w, policy).with_cycles(20_000);
        Simulator::build(&cfg).unwrap().run().unwrap().throughput()
    };
    let icount = throughput(PolicyKind::Icount);
    for policy in [PolicyKind::Mflush, PolicyKind::FlushSpec(30)] {
        let t = throughput(policy);
        assert!(
            t > 1.25 * icount,
            "{} {t:.4} must beat ICOUNT {icount:.4} by >25%",
            policy.label()
        );
    }
}

/// Tiny deterministic generator for the fuzz loop below (xorshift64*;
/// no external crates, fixed seed — same cases every run).
struct XorShift(u64);
impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[test]
fn invalid_topologies_error_and_never_panic() {
    // Directed cases: every way the geometry `core` and `mem` state can
    // be self-inconsistent or disagree with the benchmark list.
    let w = Workload::by_name("2W2").unwrap();
    let mut directed: Vec<SimConfig> = Vec::new();
    for mutate in [
        (|c: &mut SimConfig| c.mem.num_cores = 0) as fn(&mut SimConfig),
        |c| c.core.contexts = 0,
        |c| c.mem.l2_clusters = 0,
        |c| c.mem.l2_clusters = 3,           // does not divide cores
        |c| c.mem.num_cores = 7,             // the benchmark list no longer fills it
        |c| c.core.contexts = 5,             // nor here
        |c| c.benchmarks.push("mcf".into()), // no longer fills the machine
        |c| c.benchmarks.clear(),
    ] {
        let mut cfg = SimConfig::for_workload(w, PolicyKind::Icount);
        mutate(&mut cfg);
        directed.push(cfg);
    }
    for cfg in &directed {
        match Simulator::build(cfg) {
            Err(SimError::InvalidConfig(_)) => {}
            Err(e) => panic!("wrong error class for invalid topology: {e}"),
            Ok(_) => panic!("invalid topology accepted: {cfg:?}"),
        }
    }

    // Seeded fuzz: arbitrary geometry must validate cleanly or reject
    // with InvalidConfig — building must never panic. Half the cases
    // resize the benchmark list to fill the machine, so valid shapes
    // other than the paper's get built too.
    let mut rng = XorShift(0x5eed_f1de_11ee_7e57);
    for i in 0..500 {
        let cores = (rng.next() % 12) as u32;
        let contexts = (rng.next() % 6) as u32;
        let clusters = (rng.next() % 5) as u32;
        let mut cfg = SimConfig::for_workload(w, PolicyKind::Icount);
        cfg.mem.num_cores = cores;
        cfg.core.contexts = contexts;
        cfg.mem.l2_clusters = clusters;
        if i % 2 == 0 {
            let pair = cfg.benchmarks.clone();
            cfg.benchmarks = (0..cores * contexts)
                .map(|t| pair[t as usize % pair.len()].clone())
                .collect();
        }
        match Simulator::build(&cfg) {
            Ok(_) | Err(SimError::InvalidConfig(_)) => {}
            Err(e) => panic!(
                "cores={cores} contexts={contexts} clusters={clusters}: wrong error class {e}"
            ),
        }
    }
}
