//! The `figures` binary's exit-code contract: `0` on success, `2` with
//! a usage line for a bad flag value or an unknown figure name (the
//! latter with a "did you mean" hint), matching the `smtsim` CLI; and
//! its `--journal FILE` contract: a resumed run prints the same bytes
//! and a fresh one records each distinct machine once;
//! and the bytes themselves: `figures all ablations extensions --cycles
//! 3000` must print exactly `fixtures/figures_c3000.golden.txt`.

use std::path::Path;
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

#[test]
fn journal_directory_exits_2_with_usage() {
    let dir = std::env::temp_dir();
    let out = figures(&["fig8", "--journal", dir.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--journal"), "stderr: {stderr}");
    assert!(stderr.contains("usage: figures"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing runs on a usage error");
}

#[test]
fn resumed_journal_gives_identical_figures() {
    let path = std::env::temp_dir().join(format!(
        "smtsim-figures-cli-{}-fig8.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let journal = path.to_str().unwrap();
    let plain = figures(&["fig8", "--cycles", "2000"]);
    let first = figures(&["fig8", "--cycles", "2000", "--journal", journal]);
    let recorded = std::fs::read(&path).expect("the first run writes the journal");
    let second = figures(&["fig8", "--cycles", "2000", "--journal", journal]);
    let replayed = std::fs::read(&path).expect("the journal survives");
    let _ = std::fs::remove_file(&path);
    for out in [&plain, &first, &second] {
        assert_eq!(
            out.status.code(),
            Some(0),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert!(!recorded.is_empty());
    assert_eq!(
        first.stdout, plain.stdout,
        "journaling must not change the figure"
    );
    assert_eq!(
        second.stdout, plain.stdout,
        "a resumed figure must be byte-identical"
    );
    assert_eq!(replayed, recorded, "a full replay appends nothing");
}

#[test]
fn journaled_figures_all_records_each_distinct_machine_once() {
    // `figures all` plans 191 jobs over 85 distinct configs; one sweep
    // runs each config once, so a fresh journal ends with 85 entries.
    let path = std::env::temp_dir().join(format!(
        "smtsim-figures-cli-{}-all.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let journal = path.to_str().unwrap();
    let plain = figures(&["all", "--cycles", "2000"]);
    let first = figures(&["all", "--cycles", "2000", "--journal", journal]);
    let recorded = std::fs::read(&path).expect("the first run writes the journal");
    let second = figures(&["all", "--cycles", "2000", "--journal", journal]);
    let replayed = std::fs::read(&path).expect("the journal survives");
    let _ = std::fs::remove_file(&path);
    for out in [&plain, &first, &second] {
        assert_eq!(
            out.status.code(),
            Some(0),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let entries = recorded
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .count();
    assert_eq!(entries, 85, "one journal entry per distinct config");
    assert_eq!(
        first.stdout, plain.stdout,
        "journaling must not change the figures"
    );
    assert_eq!(
        second.stdout, plain.stdout,
        "replayed figures must be byte-identical"
    );
    assert_eq!(replayed, recorded, "a full replay appends nothing");
}

#[test]
fn journaled_ablations_replay_every_variant_as_its_own_machine() {
    // Several ablation variants differ only in MFLUSH parameters or
    // next-line prefetch: a replay that confuses two of them prints
    // the wrong row.
    let path = std::env::temp_dir().join(format!(
        "smtsim-figures-cli-{}-ablations.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let journal = path.to_str().unwrap();
    let plain = figures(&["ablations", "--cycles", "3000"]);
    let first = figures(&["ablations", "--cycles", "3000", "--journal", journal]);
    let second = figures(&["ablations", "--cycles", "3000", "--journal", journal]);
    let _ = std::fs::remove_file(&path);
    for out in [&plain, &first, &second] {
        assert_eq!(
            out.status.code(),
            Some(0),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let text = |out: &Output| String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(
        text(&first),
        text(&plain),
        "journaling must not change the report"
    );
    assert_eq!(
        text(&second),
        text(&plain),
        "a replayed report must be byte-identical"
    );
}

#[test]
fn figures_at_3000_cycles_match_the_golden() {
    // Every model change that is meant to be behaviour-preserving must
    // leave this output byte-identical. Regenerate after an intended
    // model change with
    // `BLESS=1 cargo test -p smtsim-bench --test figures_cli figures_at_3000`.
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/figures_c3000.golden.txt");
    let out = figures(&["all", "ablations", "extensions", "--cycles", "3000"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    if std::env::var("BLESS").is_ok() {
        std::fs::write(&path, &out.stdout).expect("write the figures golden");
        return;
    }
    let want =
        std::fs::read_to_string(&path).expect("figures golden missing; create it with BLESS=1");
    let have = String::from_utf8_lossy(&out.stdout);
    if let Some((line, (h, w))) = have
        .lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (h, w))| h != w)
    {
        panic!(
            "figures output drifted from the golden at line {}:\n have: {h}\n want: {w}",
            line + 1
        );
    }
    assert_eq!(
        have.lines().count(),
        want.lines().count(),
        "figures output drifted from the golden in length; regenerate with BLESS=1 \
         cargo test -p smtsim-bench --test figures_cli figures_at_3000 if the change is intended"
    );
    assert!(
        have == want,
        "figures output drifted from the golden in line endings"
    );
}
