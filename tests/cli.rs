//! The `smtsim` binary's `--fidelity` contract: `mem=<detailed|fast>`
//! is the only accepted component, and anything else — including the
//! retired `core=` component — is a usage error (exit 2) that runs
//! nothing.

use std::process::{Command, Output};

/// `smtsim run` on 2W1 for 2000 cycles, plus `extra` flags.
fn run_2w1(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_smtsim"))
        .args(["run", "--workload", "2W1", "--cycles", "2000", "--json"])
        .args(extra)
        .output()
        .expect("spawn the smtsim binary")
}

#[test]
fn core_fidelity_is_a_usage_error() {
    for spec in ["core=approx", "mem=fast,core=approx", "core=detailed"] {
        let out = run_2w1(&["--fidelity", spec]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{spec}: stderr: {stderr}");
        assert!(
            stderr.contains("mem is the only component"),
            "{spec}: stderr: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{spec}: nothing runs on a usage error"
        );
    }
}

#[test]
fn mem_fidelity_selects_the_memory_model() {
    let stdout = |extra: &[&str]| {
        let out = run_2w1(extra);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{extra:?}: stderr: {stderr}");
        out.stdout
    };
    let default = stdout(&[]);
    assert_eq!(stdout(&["--fidelity", "mem=detailed"]), default);
    assert_ne!(
        stdout(&["--fidelity", "mem=fast"]),
        default,
        "mem=fast must swap the memory model"
    );
}
