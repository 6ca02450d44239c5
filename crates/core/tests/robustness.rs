//! End-to-end robustness: fault injection → watchdog diagnosis →
//! sweep isolation → journal resume (DESIGN.md §11).
//!
//! These tests arm `smtsim_mem::FaultPlan` (a test-only surface — no
//! production path sets it) to wedge a simulation on purpose, then
//! check that the failure is *contained*: the watchdog converts the
//! livelock into a structured `SimError::NoForwardProgress`, sweep
//! neighbours of the wedged job stay byte-identical to a fault-free
//! run, and a journaled sweep interrupted mid-flight resumes to
//! byte-identical final output. The journal tests also damage it the
//! ways a disk or a crash does — a flipped digit, an invalid UTF-8
//! line, a torn tail — and demand that damage costs one entry, never a
//! wrong answer and never the entries after it.

use smtsim_core::json::ToJson;
use smtsim_core::{
    run_sweep, run_sweep_journaled, SimConfig, SimError, Simulator, SweepJob, Workload,
};
use smtsim_mem::FaultPlan;
use smtsim_policy::PolicyKind;

/// A small healthy experiment (2 threads, 1 core).
fn healthy(seed: u64) -> SimConfig {
    let w = Workload::by_name("2W1").unwrap();
    SimConfig::for_workload(w, PolicyKind::Mflush)
        .with_cycles(30_000)
        .with_seed(seed)
        .with_watchdog(5_000)
}

/// The same experiment with every DRAM response swallowed from cycle
/// 2000 on: the machine livelocks once each thread blocks on a lost
/// line.
fn livelocked(seed: u64) -> SimConfig {
    let mut cfg = healthy(seed);
    cfg.mem.faults = FaultPlan::none().dropping_dram_from(2_000);
    cfg
}

#[test]
fn watchdog_converts_livelock_into_a_diagnosis() {
    let err = Simulator::build(&livelocked(7))
        .unwrap()
        .run()
        .expect_err("a machine with no DRAM responses cannot make progress");
    match err {
        SimError::NoForwardProgress {
            cycle,
            core,
            last_commit_cycle,
            diagnostic,
        } => {
            // The watchdog fires after its interval elapses without
            // progress, well before the cycle budget.
            assert!(cycle >= 5_000, "fired at {cycle}, before one interval");
            assert!(cycle < 30_000, "fired only at the cycle budget");
            assert!(last_commit_cycle < cycle);
            assert_eq!(core, 0, "the only core is the wedged one");
            // The diagnosis names the mechanism: requests in flight
            // that never retire, on the policy we configured.
            assert_eq!(diagnostic.policy, "MFLUSH");
            assert_eq!(diagnostic.watchdog_cycles, 5_000);
            assert!(
                diagnostic.inflight > 0,
                "swallowed DRAM responses must show up as leaked in-flight requests"
            );
            assert_eq!(diagnostic.cores.len(), 1);
            assert_eq!(diagnostic.cores[0].threads.len(), 2);
            for t in &diagnostic.cores[0].threads {
                assert!(t.committed > 0, "threads ran fine until the fault armed");
            }
        }
        other => panic!("expected NoForwardProgress, got {other}"),
    }
}

#[test]
fn disarmed_watchdog_lets_the_livelock_run_to_budget() {
    // Same wedged machine, watchdog off: the run "succeeds" by burning
    // the whole cycle budget — which is exactly why the watchdog
    // defaults on.
    let mut cfg = livelocked(7).with_cycles(12_000);
    cfg.watchdog_cycles = 0;
    let r = Simulator::build(&cfg).unwrap().run().unwrap();
    let healthy_r = Simulator::build(&healthy(7).with_cycles(12_000))
        .unwrap()
        .run()
        .unwrap();
    assert!(
        r.total_committed() < healthy_r.total_committed(),
        "the faulted run must have stalled long before the budget"
    );
}

#[test]
fn livelocked_job_fails_alone_in_a_sweep() {
    let jobs = vec![
        SweepJob::new("good-a", healthy(1)),
        SweepJob::new("wedged", livelocked(2)),
        SweepJob::new("good-b", healthy(3)),
    ];
    let out = run_sweep(&jobs, 2);
    assert_eq!(out.len(), 3);
    assert!(out[0].1.is_ok());
    assert!(
        matches!(out[1].1, Err(SimError::NoForwardProgress { .. })),
        "wedged job must carry its diagnosis, got {:?}",
        out[1].1.as_ref().err()
    );
    assert!(out[2].1.is_ok());

    // The healthy jobs' JSON is byte-identical to a fault-free sweep:
    // one livelocked neighbour perturbs nothing.
    let clean = run_sweep(
        &[
            SweepJob::new("good-a", healthy(1)),
            SweepJob::new("good-b", healthy(3)),
        ],
        2,
    );
    assert_eq!(
        out[0].1.as_ref().unwrap().to_json(),
        clean[0].1.as_ref().unwrap().to_json()
    );
    assert_eq!(
        out[2].1.as_ref().unwrap().to_json(),
        clean[1].1.as_ref().unwrap().to_json()
    );
}

#[test]
fn interrupted_journal_resumes_to_byte_identical_output() {
    let jobs = vec![
        SweepJob::new("good-a", healthy(1)),
        SweepJob::new("wedged", livelocked(2)),
        SweepJob::new("good-b", healthy(3)),
    ];
    let render = |out: &[(String, Result<smtsim_core::SimResult, SimError>)]| -> Vec<String> {
        out.iter()
            .map(|(label, r)| match r {
                Ok(v) => format!("{label} ok {}", v.to_json()),
                Err(e) => format!("{label} err {}", e.to_json()),
            })
            .collect()
    };

    let fresh = render(&run_sweep(&jobs, 1));

    // Run journaled, then simulate a kill -9 after the first two
    // completions: keep only the journal's first two lines plus a torn
    // fragment of the third.
    let path = std::env::temp_dir().join(format!(
        "smtsim-robustness-{}-resume.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let _ = run_sweep_journaled(&jobs, 1, Some(&path));
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "one journal line per job");
    let torn = format!(
        "{}\n{}\n{}",
        lines[0],
        lines[1],
        &lines[2][..lines[2].len() / 3]
    );
    std::fs::write(&path, torn).unwrap();

    let resumed = render(&run_sweep_journaled(&jobs, 2, Some(&path)));
    assert_eq!(
        resumed, fresh,
        "resumed sweep must be byte-identical to an uninterrupted one"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn error_json_of_a_real_livelock_roundtrips() {
    // The journal replays errors through `SimError::from_json`; feed it
    // a *real* watchdog diagnosis (not a hand-built sample) and demand
    // byte-identity.
    use smtsim_core::json::parse_json;
    let err = Simulator::build(&livelocked(11))
        .unwrap()
        .run()
        .expect_err("livelocked");
    let j = err.to_json();
    let back = SimError::from_json(&parse_json(&j).unwrap()).unwrap();
    assert_eq!(back, err);
    assert_eq!(back.to_json(), j);
}

/// Three healthy jobs with distinct configs for the journal-damage
/// tests.
fn journal_jobs() -> Vec<SweepJob> {
    vec![
        SweepJob::new("a", healthy(21)),
        SweepJob::new("b", healthy(22)),
        SweepJob::new("c", healthy(23)),
    ]
}

/// Each job's result JSON: the bytes a resumed sweep must reproduce.
fn render_json(out: &[(String, Result<smtsim_core::SimResult, SimError>)]) -> Vec<String> {
    out.iter()
        .map(|(_, r)| r.as_ref().expect("healthy job").to_json())
        .collect()
}

/// A fresh journal path for one test, plus a full journal of `jobs`.
fn recorded_journal(tag: &str, jobs: &[SweepJob]) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "smtsim-robustness-{}-{tag}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let _ = run_sweep_journaled(jobs, 1, Some(&path));
    path
}

fn line_count(path: &std::path::Path) -> usize {
    std::fs::read(path)
        .unwrap()
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
}

#[test]
fn flipped_digit_in_a_journaled_result_is_resimulated_not_replayed() {
    let jobs = journal_jobs();
    let fresh = render_json(&run_sweep(&jobs, 1));
    let path = recorded_journal("flip", &jobs);
    // Flip one digit inside the first line's result body; never to `0`,
    // so the number stays valid JSON and only the checksum can tell.
    let mut text = std::fs::read_to_string(&path).unwrap();
    let body = text.find("\"result\":").unwrap();
    let pos = body + text[body..].find(|c: char| c.is_ascii_digit()).unwrap();
    let flipped = match text.as_bytes()[pos] {
        b'9' => '1',
        d => char::from(d + 1),
    };
    text.replace_range(pos..pos + 1, &flipped.to_string());
    std::fs::write(&path, text).unwrap();

    let resumed = render_json(&run_sweep_journaled(&jobs, 2, Some(&path)));
    assert_eq!(
        resumed, fresh,
        "a flipped digit must never replay as a wrong result"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn invalid_utf8_line_costs_one_entry_not_the_rest() {
    let jobs = journal_jobs();
    let fresh = render_json(&run_sweep(&jobs, 1));
    let path = recorded_journal("utf8", &jobs);
    let data = std::fs::read(&path).unwrap();
    let first_end = data.iter().position(|&b| b == b'\n').unwrap();
    let mut damaged = vec![0xff, 0xfe, b'{', 0xc3];
    damaged.extend_from_slice(&data[first_end..]);
    std::fs::write(&path, damaged).unwrap();
    let before = line_count(&path);

    let resumed = render_json(&run_sweep_journaled(&jobs, 2, Some(&path)));
    assert_eq!(resumed, fresh);
    assert_eq!(
        line_count(&path),
        before + 1,
        "only the damaged entry re-runs; the entries after it replay"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn append_after_a_torn_tail_does_not_weld_onto_it() {
    let jobs = journal_jobs();
    let fresh = render_json(&run_sweep(&jobs, 1));
    let path = recorded_journal("tear", &jobs);
    // kill -9 mid-append: the last line is cut short, no newline.
    let text = std::fs::read_to_string(&path).unwrap();
    let last_start = text[..text.len() - 1].rfind('\n').unwrap() + 1;
    let cut = last_start + (text.len() - last_start) / 2;
    std::fs::write(&path, &text[..cut]).unwrap();

    let resumed = render_json(&run_sweep_journaled(&jobs, 2, Some(&path)));
    assert_eq!(resumed, fresh);
    // The resume's append must land on a line of its own, so a third
    // run replays everything and appends nothing.
    let after_resume = std::fs::read(&path).unwrap();
    let third = render_json(&run_sweep_journaled(&jobs, 2, Some(&path)));
    assert_eq!(third, fresh);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        after_resume,
        "the third run must append zero lines"
    );
    let _ = std::fs::remove_file(&path);
}
