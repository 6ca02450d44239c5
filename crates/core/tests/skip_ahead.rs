//! Stall skip-ahead pinning suite (DESIGN.md §16).
//!
//! The overhaul's admissibility bar is *byte-identity*: a run with
//! `skip_ahead` enabled must be indistinguishable from the
//! cycle-by-cycle run in every observable — result JSON, fault
//! diagnoses, watchdog fire cycles. These tests pin that bar from
//! three directions:
//!
//! 1. same-seed byte-identity with skip off vs on (the skip must also
//!    engage, so the equality is exercised rather than vacuous), plus
//!    pinned committed and skipped-cycle counts per tracked MFLUSH
//!    workload;
//! 2. a `FaultPlan` whose consequences land inside what would
//!    otherwise be one unbounded idle window — the watchdog must fire
//!    at the exact same cycle with an identical structured diagnosis;
//! 3. a seeded mutation: re-running the engine's own skip targets
//!    through the public test hook reproduces the reference bytes,
//!    while overshooting every computed horizon by a single cycle is
//!    caught. A horizon with one cycle of slack anywhere in a 60k-run
//!    would slip through silently; this proves the equality gate has
//!    the resolution the invariant claims.

use smtsim_core::json::ToJson;
use smtsim_core::{SimConfig, Simulator, Workload};
use smtsim_mem::FaultPlan;
use smtsim_policy::PolicyKind;

const CYCLES: u64 = 60_000;

fn base(workload: &str) -> SimConfig {
    SimConfig::for_workload(Workload::by_name(workload).unwrap(), PolicyKind::Mflush)
        .with_cycles(CYCLES)
}

/// Run to the cycle budget; return (result JSON, skipped cycles).
fn run(cfg: &SimConfig) -> (String, u64) {
    let mut sim = Simulator::build(cfg).unwrap();
    sim.step(cfg.cycles).unwrap();
    (sim.snapshot().to_json(), sim.skipped_cycles())
}

#[test]
fn skip_is_byte_identical_to_ticking_every_cycle() {
    for workload in ["2W1", "4W3"] {
        let cfg = base(workload);
        let (off_json, off_skipped) = run(&cfg.clone().with_skip_ahead(false));
        let (on_json, on_skipped) = run(&cfg.with_skip_ahead(true));
        assert_eq!(off_skipped, 0, "skip_ahead=false must never skip");
        assert_eq!(
            off_json, on_json,
            "{workload}: skip-ahead changed the result bytes"
        );
        // The memory-bound workload must actually engage the mechanism,
        // otherwise the equality above tests nothing.
        if workload == "2W1" {
            assert!(
                on_skipped > 0,
                "{workload}: skip never engaged; identity is vacuous"
            );
        }
    }
}

/// `(workload, committed, skipped_cycles)` under MFLUSH at `CYCLES`.
/// The memory-bound workloads skip heavily; the high-ILP control `4W3`
/// rarely does. Byte-identity alone cannot see a horizon that turns
/// more conservative (it skips less and changes nothing observable);
/// these counts can.
const SKIP_PINS: &[(&str, u64, u64)] = &[
    ("2W1", 35_727, 29_977),
    ("2W2", 105_949, 11_721),
    ("2W3", 79_985, 14_539),
    ("2W5", 62_974, 19_823),
    ("4W3", 160_528, 3_174),
];

#[test]
fn skip_counts_are_pinned() {
    for &(workload, committed, skipped) in SKIP_PINS {
        let cfg = base(workload);
        let (off_json, off_skipped) = run(&cfg.clone().with_skip_ahead(false));
        let mut on = Simulator::build(&cfg.with_skip_ahead(true)).unwrap();
        on.step(CYCLES).unwrap();
        let result = on.snapshot();
        assert_eq!(off_skipped, 0, "skip_ahead=false must never skip");
        assert_eq!(
            off_json,
            result.to_json(),
            "{workload}: skip-ahead changed the result bytes"
        );
        assert_eq!(
            (result.total_committed(), on.skipped_cycles()),
            (committed, skipped),
            "{workload}: (committed, skipped_cycles) drifted from the pin"
        );
    }
}

#[test]
fn faults_inside_a_skipped_window_fire_at_the_exact_cycle() {
    // Every DRAM response is swallowed from cycle 2000: once both
    // threads block on lost lines the machine goes permanently idle,
    // so the watchdog's fire cycle sits inside what skip-ahead would
    // otherwise treat as one unbounded skip window. The clamp at
    // `last_progress + watchdog - 1` must make the abort — cycle
    // number, blamed core, full diagnosis — byte-identical.
    let mut cfg = base("2W1").with_watchdog(5_000);
    cfg.mem.faults = FaultPlan::none().dropping_dram_from(2_000);

    let mut off = Simulator::build(&cfg.clone().with_skip_ahead(false)).unwrap();
    let off_err = off
        .step(cfg.cycles)
        .expect_err("no DRAM responses: the watchdog must fire");

    let mut on = Simulator::build(&cfg.with_skip_ahead(true)).unwrap();
    let on_err = on
        .step(CYCLES)
        .expect_err("no DRAM responses: the watchdog must fire");

    assert!(
        on.skipped_cycles() > 0,
        "the wedged machine never skipped; the scenario is vacuous"
    );
    assert_eq!(
        format!("{off_err:?}"),
        format!("{on_err:?}"),
        "skip-ahead changed the watchdog diagnosis"
    );
    assert_eq!(
        off.snapshot().to_json(),
        on.snapshot().to_json(),
        "skip-ahead changed the post-abort machine state"
    );
}

/// Drive a skip-disabled simulator manually, applying the engine's own
/// skip targets plus `overshoot` cycles through the test hooks.
/// Returns (result JSON, number of skips applied).
fn drive_with_overshoot(cfg: &SimConfig, overshoot: u64) -> (String, u64) {
    let mut sim = Simulator::build(cfg).unwrap();
    let end = cfg.cycles;
    let mut skips = 0u64;
    while sim.now() < end {
        sim.step(1).unwrap();
        if sim.now() >= end {
            break;
        }
        if let Some(target) = sim.skip_target_for_test(end) {
            let target = (target + overshoot).min(end);
            if target > sim.now() {
                sim.force_skip_for_test(target);
                skips += 1;
            }
        }
    }
    (sim.snapshot().to_json(), skips)
}

#[test]
fn overshooting_the_horizon_by_one_cycle_is_caught() {
    let cfg = base("2W1").with_skip_ahead(false);
    let (reference, _) = run(&cfg);

    // Control: the engine's own targets, applied externally, are
    // byte-identical — the harness itself introduces no drift.
    let (exact_json, exact_skips) = drive_with_overshoot(&cfg, 0);
    assert!(
        exact_skips > 0,
        "control run never skipped; test is vacuous"
    );
    assert_eq!(exact_json, reference, "exact horizons must be invisible");

    // Mutation: every skip lands one cycle past the computed horizon —
    // the first event at each window's end is processed a cycle late.
    // If this were not caught, `next_event_cycle` could be off by one
    // everywhere and the goldens would still pass.
    let (mutant_json, mutant_skips) = drive_with_overshoot(&cfg, 1);
    assert!(
        mutant_skips > 0,
        "mutant run never skipped; test is vacuous"
    );
    assert_ne!(
        mutant_json, reference,
        "an off-by-one past every horizon went unnoticed by the byte-identity gate"
    );
}
