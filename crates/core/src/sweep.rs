//! Parallel, fault-tolerant experiment runner.
//!
//! Figure regeneration sweeps dozens of independent simulations
//! (workload × policy × machine size). Each simulation is single-
//! threaded and deterministic, so the sweep parallelises embarrassingly:
//! a `std::thread::scope` spawns one worker per host core, workers claim
//! jobs from an atomic counter, and results land in their job's slot —
//! deterministic output order regardless of scheduling.
//!
//! Fault tolerance (DESIGN.md §11):
//!
//! * each job runs once under `catch_unwind`; a panic becomes
//!   `SimError::JobPanicked` in that job's slot while every other job
//!   completes normally (a run is a pure function of its config, so
//!   there is nothing to retry);
//! * poisoned result slots are recovered, not re-panicked — one bad job
//!   can't cascade into a confusing secondary panic at collection time;
//! * [`run_sweep_journaled`] persists each finished job through the
//!   checksummed [`ResultCache`] and, on restart, replays every job
//!   whose config fingerprint is recorded instead of re-running it.
//!   Because every raw field in our JSON is an integer/bool/string,
//!   the replayed output is **byte-identical** to an uninterrupted
//!   sweep — the `deterministic_across_sweep_workers` guarantee
//!   extended across process boundaries.

use crate::cache::{config_fingerprint, ResultCache};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::result::SimResult;
use crate::sim::Simulator;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One labelled experiment in a sweep.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// Free-form label (e.g. `"fig8/6W4/MFLUSH"`).
    pub label: String,
    /// The experiment.
    pub config: SimConfig,
}

impl SweepJob {
    /// Convenience constructor.
    pub fn new(label: impl Into<String>, config: SimConfig) -> Self {
        SweepJob {
            label: label.into(),
            config,
        }
    }
}

/// Outcome of one sweep job.
pub type JobOutcome = Result<SimResult, SimError>;

/// Lock a slot mutex, recovering from poison: a worker that panicked
/// while holding the lock can't have left the `Option` half-written
/// (the assignment is a single store), so the value is still good.
fn lock_recovering<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Run one job with panic isolation: a panic is caught and reported as
/// `SimError::JobPanicked` in the job's slot. It is not retried — a
/// simulation is a pure function of its config, so a second attempt
/// would panic the same way. The serving layer runs its jobs here too.
pub fn run_job(job: &SweepJob) -> JobOutcome {
    catch_unwind(AssertUnwindSafe(|| {
        Simulator::build(&job.config).and_then(|s| s.run())
    }))
    .unwrap_or_else(|payload| {
        let text = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string panic payload>".to_string());
        Err(SimError::JobPanicked {
            label: job.label.clone(),
            payload: text,
        })
    })
}

/// Run all jobs, `max_workers` at a time (0 = number of host CPUs).
/// Outcomes are returned in job order; a panicking or livelocked job
/// yields an `Err` in its slot without disturbing the others.
pub fn run_sweep(jobs: &[SweepJob], max_workers: usize) -> Vec<(String, JobOutcome)> {
    run_sweep_journaled(jobs, max_workers, None)
}

/// [`run_sweep`] with an optional result journal: a [`ResultCache`]
/// file. Jobs whose config fingerprint the journal already records are
/// replayed instead of re-run, so an interrupted sweep resumes where it
/// stopped; the job's index and label play no part in the match. Every
/// finished job is stored as one checksummed line. Torn, corrupt and
/// stale lines cost their own entry only and are re-simulated. With no
/// journal nothing is fingerprinted or stored.
pub fn run_sweep_journaled(
    jobs: &[SweepJob],
    max_workers: usize,
    journal: Option<&Path>,
) -> Vec<(String, JobOutcome)> {
    let workers = if max_workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        max_workers
    }
    .min(jobs.len().max(1));

    // Resume: pre-fill slots from the journal before any worker starts.
    let cache = journal.map(ResultCache::load_from);
    let results: Vec<Mutex<Option<JobOutcome>>> = jobs
        .iter()
        .map(|job| {
            let recorded = cache
                .as_ref()
                .and_then(|c| c.cached(&config_fingerprint(&job.config)));
            Mutex::new(recorded.map(|entry| entry.outcome.clone()))
        })
        .collect();
    let cache = cache.map(Mutex::new);

    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                if lock_recovering(&results[i]).is_some() {
                    continue; // replayed from the journal
                }
                let outcome = run_job(&jobs[i]);
                if let Some(c) = &cache {
                    let fingerprint = config_fingerprint(&jobs[i].config);
                    lock_recovering(c).store_outcome(&fingerprint, &jobs[i].label, &outcome);
                }
                *lock_recovering(&results[i]) = Some(outcome);
            });
        }
    });

    jobs.iter()
        .zip(results)
        .map(|(job, slot)| {
            let outcome = slot
                .into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .unwrap_or_else(|| {
                    // Only reachable if a worker died between claiming
                    // and storing — report it instead of panicking.
                    Err(SimError::JobPanicked {
                        label: job.label.clone(),
                        payload: "job produced no result".to_string(),
                    })
                });
            (job.label.clone(), outcome)
        })
        .collect()
}

/// [`run_sweep`] for callers that treat any job failure as fatal
/// (figure harness, calibration): unwraps each outcome, panicking with
/// the job label on the first error. Panicking here is deliberate —
/// partial figures are worse than no figures.
pub fn run_sweep_ok(jobs: &[SweepJob], max_workers: usize) -> Vec<(String, SimResult)> {
    run_sweep(jobs, max_workers)
        .into_iter()
        .map(|(label, outcome)| match outcome {
            Ok(r) => (label, r),
            // lint: allow(D11) -- documented contract: `_ok` aborts on any failed job rather than plot partial figures
            Err(e) => panic!("sweep job '{label}' failed: {e}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::ToJson;
    use crate::workloads::Workload;
    use smtsim_policy::PolicyKind;

    fn job(label: &str, workload: &str, policy: PolicyKind) -> SweepJob {
        let w = Workload::by_name(workload).unwrap();
        SweepJob::new(label, SimConfig::for_workload(w, policy).with_cycles(3_000))
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("smtsim-sweep-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&dir);
        dir
    }

    #[test]
    fn results_in_job_order_with_labels() {
        let jobs = vec![
            job("a", "2W1", PolicyKind::Icount),
            job("b", "2W2", PolicyKind::FlushSpec(30)),
            job("c", "2W3", PolicyKind::Mflush),
        ];
        let out = run_sweep(&jobs, 2);
        let labels: Vec<&str> = out.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, vec!["a", "b", "c"]);
        for (_, r) in &out {
            assert!(r.as_ref().unwrap().total_committed() > 0);
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let jobs = vec![
            job("x", "2W4", PolicyKind::Icount),
            job("y", "2W5", PolicyKind::Icount),
        ];
        let par = run_sweep(&jobs, 2);
        let ser = run_sweep(&jobs, 1);
        for ((_, a), (_, b)) in par.iter().zip(&ser) {
            assert_eq!(
                a.as_ref().unwrap().total_committed(),
                b.as_ref().unwrap().total_committed()
            );
        }
    }

    #[test]
    fn zero_workers_defaults_to_host_parallelism() {
        let jobs = vec![job("only", "2W1", PolicyKind::Icount)];
        let out = run_sweep(&jobs, 0);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn empty_sweep_is_empty() {
        assert!(run_sweep(&[], 4).is_empty());
    }

    #[test]
    fn invalid_job_fails_alone() {
        let mut bad = job("bad", "2W2", PolicyKind::Icount);
        bad.config.cycles = 0;
        let jobs = vec![
            job("good1", "2W1", PolicyKind::Icount),
            bad,
            job("good2", "2W3", PolicyKind::Icount),
        ];
        let out = run_sweep(&jobs, 2);
        assert!(out[0].1.is_ok());
        assert!(matches!(out[1].1, Err(SimError::InvalidConfig(_))));
        assert!(out[2].1.is_ok());
        // The healthy jobs are unaffected by their failed neighbour.
        let clean = run_sweep(&[jobs[0].clone(), jobs[2].clone()], 2);
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
    fn run_sweep_ok_unwraps_successes() {
        let jobs = vec![job("a", "2W1", PolicyKind::Icount)];
        let out = run_sweep_ok(&jobs, 1);
        assert_eq!(out.len(), 1);
        assert!(out[0].1.total_committed() > 0);
    }

    #[test]
    #[should_panic(expected = "sweep job 'bad' failed")]
    fn run_sweep_ok_panics_on_failure() {
        let mut bad = job("bad", "2W1", PolicyKind::Icount);
        bad.config.cycles = 0;
        let _ = run_sweep_ok(&[bad], 1);
    }

    #[test]
    fn journaled_sweep_is_byte_identical_to_plain() {
        let jobs = vec![
            job("a", "2W1", PolicyKind::Icount),
            job("b", "2W2", PolicyKind::Mflush),
        ];
        let plain: Vec<String> = run_sweep(&jobs, 2)
            .iter()
            .map(|(_, r)| r.as_ref().unwrap().to_json())
            .collect();
        let path = temp_path("fresh.jsonl");
        let journaled: Vec<String> = run_sweep_journaled(&jobs, 2, Some(&path))
            .iter()
            .map(|(_, r)| r.as_ref().unwrap().to_json())
            .collect();
        assert_eq!(plain, journaled);
        // Second run replays everything from the journal and must still
        // be byte-identical.
        let replayed: Vec<String> = run_sweep_journaled(&jobs, 2, Some(&path))
            .iter()
            .map(|(_, r)| r.as_ref().unwrap().to_json())
            .collect();
        assert_eq!(plain, replayed);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn partial_journal_resumes_remaining_jobs() {
        let jobs = vec![
            job("a", "2W1", PolicyKind::Icount),
            job("b", "2W2", PolicyKind::Mflush),
            job("c", "2W3", PolicyKind::FlushSpec(30)),
        ];
        let path = temp_path("partial.jsonl");
        // Record only job 1, then simulate a crash plus a torn final
        // line (the realistic kill -9 artifact).
        {
            let full = run_sweep_journaled(&jobs, 1, Some(&path));
            assert!(full.iter().all(|(_, r)| r.is_ok()));
            let text = std::fs::read_to_string(&path).unwrap();
            let mut lines: Vec<&str> = text.lines().collect();
            assert_eq!(lines.len(), 3);
            lines.remove(0); // job "a" was never journaled
            let torn = format!(
                "{}\n{}\n{}",
                lines[0],
                lines[1],
                &lines[1][..lines[1].len() / 2]
            );
            std::fs::write(&path, torn).unwrap();
        }
        let resumed: Vec<String> = run_sweep_journaled(&jobs, 2, Some(&path))
            .iter()
            .map(|(_, r)| r.as_ref().unwrap().to_json())
            .collect();
        let fresh: Vec<String> = run_sweep(&jobs, 1)
            .iter()
            .map(|(_, r)| r.as_ref().unwrap().to_json())
            .collect();
        assert_eq!(resumed, fresh, "resume must be byte-identical");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stale_journal_entries_are_ignored() {
        let jobs = vec![job("a", "2W1", PolicyKind::Icount)];
        let path = temp_path("stale.jsonl");
        {
            let _ = run_sweep_journaled(&jobs, 1, Some(&path));
        }
        // Same label, different config → fingerprint mismatch → re-run.
        let mut changed = jobs.clone();
        changed[0].config = changed[0].config.clone().with_seed(999);
        let out = run_sweep_journaled(&changed, 1, Some(&path));
        let direct = run_sweep(&changed, 1);
        assert_eq!(
            out[0].1.as_ref().unwrap().to_json(),
            direct[0].1.as_ref().unwrap().to_json()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_replays_recorded_errors() {
        let mut bad = job("bad", "2W1", PolicyKind::Icount);
        bad.config.cycles = 0;
        let jobs = vec![bad];
        let path = temp_path("errors.jsonl");
        let first = run_sweep_journaled(&jobs, 1, Some(&path));
        let second = run_sweep_journaled(&jobs, 1, Some(&path));
        assert_eq!(
            first[0].1.as_ref().unwrap_err(),
            second[0].1.as_ref().unwrap_err()
        );
        assert!(matches!(second[0].1, Err(SimError::InvalidConfig(_))));
        // Only the first run wrote a line; the replay appended nothing.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        let _ = std::fs::remove_file(&path);
    }
}
