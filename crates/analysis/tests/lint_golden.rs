//! End-to-end linter tests against checked-in data.
//!
//! Three gates live here:
//!
//! 1. **Golden fixture** — the fixture workspace under
//!    `tests/fixtures/fixture_ws/` exercises every rule; its `--json`
//!    report must match `tests/fixtures/lint.golden.json` byte for
//!    byte, and repeated runs must agree byte for byte (set `BLESS=1`
//!    to regenerate the golden after an intentional change).
//! 2. **Seeded mutations** — seeding a defect into an in-memory copy
//!    of the workspace must produce the rule's finding. This proves
//!    the rules are live, not vacuously green.
//! 3. **Self-gate** — the real workspace lints clean (0 unwaived), the
//!    same check `scripts/ci.sh` enforces.

use smtsim_analysis::{collect_files, lint_files, lint_root, Baseline, Rule};
use smtsim_core::json::ToJson;
use std::path::{Path, PathBuf};

fn fixture_ws() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/fixture_ws")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn fixture_report_matches_golden_and_is_byte_stable() {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/lint.golden.json");
    let report = lint_root(&fixture_ws(), &Baseline::default());
    let json = report.to_json();

    // Byte-identity across repeated runs is the acceptance criterion
    // for the linter's own determinism.
    for _ in 0..3 {
        let again = lint_root(&fixture_ws(), &Baseline::default()).to_json();
        assert_eq!(json, again, "lint --json output differs between runs");
    }

    if std::env::var("BLESS").is_ok() {
        std::fs::write(&golden_path, &json).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden fixture missing; run with BLESS=1 to create it");
    assert_eq!(
        json, golden,
        "fixture lint report drifted from tests/fixtures/lint.golden.json; \
         if the change is intentional, regenerate with BLESS=1"
    );
}

#[test]
fn fixture_findings_cover_every_rule() {
    let report = lint_root(&fixture_ws(), &Baseline::default());
    for rule in smtsim_analysis::ALL_RULES {
        assert!(
            report.findings.iter().any(|f| f.rule == rule),
            "fixture workspace produced no {} finding",
            rule.id()
        );
    }
    // One D3 and one D5 are waived inline; everything else is raw.
    assert_eq!(report.waived_count(), 2);
    assert!(report.unwaived_count() > 0);
    // The sanctioned wall-clock user and test regions stay silent.
    assert!(
        !report
            .findings
            .iter()
            .any(|f| f.rule == Rule::D2 && f.path.starts_with("crates/bench/")),
        "crates/bench must be exempt from D2"
    );
}

#[test]
fn seeded_d10_mutation_is_caught_with_its_chain() {
    let root = workspace_root();
    let mut files = collect_files(&root);
    let baseline = Baseline::default();
    let clean = lint_files(&files, &baseline);
    assert!(
        !clean.unwaived().any(|f| f.rule == Rule::D10),
        "unmutated workspace must have zero unwaived D10 findings"
    );

    // Seed the defect: a fresh allocation inside `try_issue_one`,
    // three frames below `SmtCore::tick` in the cycle loop.
    let anchor = "let (class, addr, queue, addr_pc, wrong_path) = {";
    let core = files
        .iter_mut()
        .find(|(rel, _)| rel == "crates/cpu/src/core.rs")
        .expect("core.rs present");
    assert!(
        core.1.contains(anchor),
        "mutation anchor {anchor:?} not found in core.rs; update this test"
    );
    core.1 = core.1.replacen(
        anchor,
        "let _mutant: Vec<u64> = Vec::new();\n        let (class, addr, queue, addr_pc, wrong_path) = {",
        1,
    );

    let mutated = lint_files(&files, &baseline);
    let planted: Vec<_> = mutated
        .findings
        .iter()
        .filter(|f| {
            f.rule == Rule::D10 && f.path == "crates/cpu/src/core.rs" && f.symbol == "Vec::new"
        })
        .collect();
    assert_eq!(
        planted.len(),
        1,
        "expected the planted D10, got {planted:?}"
    );
    let f = planted[0];
    assert!(!f.waived);
    // The chain must walk from a cycle root down to the planted site's
    // function through its one real caller.
    assert_eq!(
        f.chain.last().map(String::as_str),
        Some("SmtCore::try_issue_one")
    );
    assert!(
        f.chain.contains(&"SmtCore::issue".to_string()),
        "chain must pass through the only caller: {:?}",
        f.chain
    );
    assert!(
        mutated.unwaived_count() > clean.unwaived_count(),
        "the seeded defect must fail the gate"
    );
}

#[test]
fn real_workspace_lints_clean() {
    let root = workspace_root();
    let baseline_path = root.join("scripts/lint-baseline.txt");
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => Baseline::parse(&text),
        Err(_) => Baseline::default(),
    };
    let report = lint_root(&root, &baseline);
    let stray: Vec<String> = report.unwaived().map(|f| f.render()).collect();
    assert!(
        stray.is_empty(),
        "workspace has unwaived lint findings:\n{}",
        stray.join("\n")
    );
}
