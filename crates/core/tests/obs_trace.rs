//! Observability end-to-end guarantees (DESIGN.md §12).
//!
//! Three properties carry the whole feature:
//!
//! 1. **Replayable** — same seed, same trace: two traced runs of the
//!    same config produce byte-identical JSONL (events + metric
//!    samples) and byte-identical Chrome `trace_event` exports.
//! 2. **Non-perturbing** — tracing only observes: a traced run's
//!    result JSON is byte-identical to an untraced run's, and the
//!    untraced path is the pre-observability path (the unchanged
//!    golden fixture in `golden_json.rs` pins those bytes).
//! 3. **Diagnostic** — when a run dies on the §11 watchdog, the trace
//!    tail shows *why*: a `FaultPlan`-pinned L2 bank is visible as a
//!    growing bank queue before the watchdog fires.

use smtsim_core::config::{SimConfig, DEFAULT_TRACE_CAPACITY};
use smtsim_core::json::ToJson;
use smtsim_core::obs::{chrome_trace, observability_jsonl};
use smtsim_core::{SimError, Simulator, Workload};
use smtsim_mem::FaultPlan;
use smtsim_obs::TraceEvent;
use smtsim_policy::PolicyKind;

fn traced_cfg(seed: u64) -> SimConfig {
    let w = Workload::by_name("4W3").unwrap();
    SimConfig::for_workload(w, PolicyKind::Mflush)
        .with_cycles(20_000)
        .with_seed(seed)
}

/// Build, trace, run to completion, and export every format.
fn run_traced(cfg: &SimConfig) -> (String, String, String) {
    let mut sim = Simulator::build(cfg).unwrap();
    sim.enable_tracing(DEFAULT_TRACE_CAPACITY);
    sim.enable_metrics(2_000);
    sim.step(cfg.cycles).unwrap();
    let rows = sim.trace_rows();
    let jsonl = observability_jsonl(&rows, sim.metrics_samples());
    let chrome = chrome_trace(&rows, sim.metrics_samples());
    (jsonl, chrome, sim.snapshot().to_json())
}

#[test]
fn same_seed_traced_runs_are_byte_identical() {
    let cfg = traced_cfg(42);
    let (jsonl_a, chrome_a, result_a) = run_traced(&cfg);
    let (jsonl_b, chrome_b, result_b) = run_traced(&cfg);
    assert!(!jsonl_a.is_empty() && jsonl_a.lines().count() > 100);
    assert_eq!(jsonl_a, jsonl_b, "JSONL trace must replay byte-for-byte");
    assert_eq!(
        chrome_a, chrome_b,
        "Chrome export must replay byte-for-byte"
    );
    assert_eq!(result_a, result_b);

    // A different seed must actually change the trace — otherwise the
    // byte-compares above prove nothing.
    let (jsonl_c, _, _) = run_traced(&traced_cfg(43));
    assert_ne!(jsonl_a, jsonl_c);
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    let cfg = traced_cfg(42);
    let untraced = Simulator::build(&cfg).unwrap().run().unwrap().to_json();
    let (_, _, traced) = run_traced(&cfg);
    assert_eq!(
        untraced, traced,
        "enabling the trace must not change a single result byte"
    );
}

#[test]
fn metrics_sampling_alone_does_not_perturb_either() {
    let cfg = traced_cfg(7);
    let untraced = Simulator::build(&cfg).unwrap().run().unwrap().to_json();
    let mut sim = Simulator::build(&cfg).unwrap();
    sim.enable_metrics(1_000);
    sim.step(cfg.cycles).unwrap();
    assert!(!sim.metrics_samples().is_empty());
    assert_eq!(sim.snapshot().to_json(), untraced);
}

#[test]
fn pinned_l2_bank_shows_in_the_trace_before_the_watchdog_fires() {
    const PIN_BANK: u32 = 1;
    const PIN_CYCLE: u64 = 2_000;
    // Four cores so the pinned bank collects traffic from 64 MSHRs,
    // not one core's 16 — the pile-up must dwarf healthy queueing.
    let w = Workload::by_name("8W3").unwrap();
    let mut cfg = SimConfig::for_workload(w, PolicyKind::Mflush)
        .with_cycles(60_000)
        .with_seed(5)
        .with_watchdog(5_000);
    cfg.mem.faults = FaultPlan::none().pinning_bank_from(PIN_BANK, PIN_CYCLE);

    let mut sim = Simulator::build(&cfg).unwrap();
    sim.enable_tracing(DEFAULT_TRACE_CAPACITY);
    let err = sim
        .step(cfg.cycles)
        .expect_err("a pinned L2 bank must wedge the machine");
    let fired_at = match err {
        SimError::NoForwardProgress { cycle, .. } => cycle,
        other => panic!("expected NoForwardProgress, got {other}"),
    };

    // The trace survives the abort, and the pinned bank's queue is
    // seen growing strictly between the pin and the watchdog: the
    // event tail diagnoses the livelock without a debugger.
    let mut depth_before_pin = 0u32;
    let mut depth_during_wedge = 0u32;
    for row in sim.trace_rows() {
        if let TraceEvent::L2BankEnqueue { bank, depth } = row.rec.event {
            if bank != PIN_BANK {
                continue;
            }
            if row.rec.cycle < PIN_CYCLE {
                depth_before_pin = depth_before_pin.max(depth);
            } else if row.rec.cycle < fired_at {
                depth_during_wedge = depth_during_wedge.max(depth);
            }
        }
    }
    assert!(
        depth_during_wedge > depth_before_pin,
        "pinned bank queue must visibly grow after the pin \
         (before {depth_before_pin}, during {depth_during_wedge})"
    );
    assert!(
        depth_during_wedge >= 4,
        "a frozen single-ported bank should pile up a deep queue, \
         saw max depth {depth_during_wedge}"
    );
}
