//! The `smtsim` binary's input contract. A flag the subcommand does not
//! take — including the retired `--fidelity` — is a usage error (exit 2)
//! that runs nothing. So is a repeated flag, and `--workload` together
//! with `--benchmarks`. `sweep` honours the same run parameters as
//! `run`.

use std::process::{Command, Output};

fn smtsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_smtsim"))
        .args(args)
        .output()
        .expect("spawn the smtsim binary")
}

/// `smtsim run` on 2W1 for 2000 cycles, plus `extra` flags.
fn run_2w1(extra: &[&str]) -> Output {
    let mut args = vec!["run", "--workload", "2W1", "--cycles", "2000", "--json"];
    args.extend_from_slice(extra);
    smtsim(&args)
}

/// Assert `out` is a usage error whose stderr contains `needle` and
/// that printed nothing to stdout.
fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains(needle),
        "want {needle:?} in stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing runs on a usage error");
}

#[test]
fn fidelity_flag_is_a_usage_error() {
    // The simulator has one memory model; even the spelling that named
    // it is refused rather than silently accepted.
    assert_usage_error(
        &run_2w1(&["--fidelity", "mem=detailed"]),
        "unknown flag --fidelity for `smtsim run`",
    );
}

#[test]
fn unknown_flags_are_usage_errors_with_a_hint() {
    assert_usage_error(&run_2w1(&["--cycels", "2000"]), "did you mean --cycles?");
    assert_usage_error(
        &smtsim(&["sweep", "--workload", "2W1", "--policy", "mflush"]),
        "unknown flag --policy for `smtsim sweep`",
    );
    assert_usage_error(&smtsim(&["calibrate", "--jsno"]), "did you mean --json?");
    assert_usage_error(&smtsim(&["workloads", "--json"]), "unknown flag --json");
    assert_usage_error(&run_2w1(&["--cycles", "0"]), "--cycles given twice");
}

#[test]
fn workload_and_benchmarks_together_are_a_usage_error() {
    assert_usage_error(&run_2w1(&["--benchmarks", "mcf,gzip"]), "not both");
}

#[test]
fn rejected_run_parameters_are_usage_errors() {
    assert_usage_error(
        &smtsim(&["run", "--workload", "2W1", "--cycles", "0"]),
        "cycles == 0",
    );
    assert_usage_error(&run_2w1(&["--policy", "mflsh"]), "did you mean 'mflush'?");
    assert_usage_error(
        &smtsim(&["run", "--benchmarks", "mfc,gzip"]),
        "did you mean 'mcf'?",
    );
}

#[test]
fn sweep_honours_the_seed() {
    // MFLUSH job's result in `sweep --json` output: the sweep runs
    // MFLUSH then DCRA, so the result object ends where DCRA's starts.
    const MFLUSH: &str = "{\"label\":\"MFLUSH\",\"result\":";
    let mflush_job = |seed: &[&str]| {
        let mut args = vec!["sweep", "--workload", "2W1", "--cycles", "2000", "--json"];
        args.extend_from_slice(seed);
        let out = smtsim(&args);
        assert_eq!(out.status.code(), Some(0));
        let stdout = String::from_utf8(out.stdout).unwrap();
        let start = stdout.find(MFLUSH).expect("MFLUSH job") + MFLUSH.len();
        let end = start
            + stdout[start..]
                .find("},{\"label\":\"DCRA\"")
                .expect("DCRA job");
        stdout[start..end].to_string()
    };
    let seeded = mflush_job(&["--seed", "99"]);
    let run = run_2w1(&["--policy", "mflush", "--seed", "99"]);
    assert_eq!(run.status.code(), Some(0));
    assert_eq!(
        format!("{seeded}\n"),
        String::from_utf8(run.stdout).unwrap()
    );
    assert_ne!(seeded, mflush_job(&[]), "--seed must change the sweep");
}
