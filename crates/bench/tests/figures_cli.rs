//! The `figures` binary's exit-code contract: `0` on success, `2` with
//! a usage line for a bad flag value or an unknown figure name (the
//! latter with a "did you mean" hint), matching the `smtsim` CLI.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("spawn the figures binary")
}

#[test]
fn bad_cycles_value_exits_2_with_usage() {
    let out = figures(&["fig8", "--cycles", "lots"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--cycles"), "stderr: {stderr}");
    assert!(stderr.contains("usage: figures"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing runs on a usage error");
}

#[test]
fn unknown_name_exits_2_with_a_suggestion() {
    let out = figures(&["ablation"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("did you mean 'ablations'?"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("usage: figures"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing runs on a usage error");
}

#[test]
fn fig1_exits_0() {
    let out = figures(&["fig1"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("== Fig. 1: Simulation parameters =="));
}
