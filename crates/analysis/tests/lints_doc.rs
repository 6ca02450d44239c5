//! LINTS.md drift gate.
//!
//! LINTS.md at the workspace root is *generated* from the `Rule`
//! metadata (`smtsim_analysis::lints_doc::lints_markdown`). This test
//! byte-compares the checked-in file against the generator, so drift
//! in either direction fails:
//!
//! * a new or reworded rule without a regenerated doc;
//! * a doc section whose rule was renamed or removed;
//! * hand edits to the generated file.
//!
//! Regenerate after an intentional rule change with
//! `BLESS=1 cargo test -p smtsim-analysis --test lints_doc`.

use smtsim_analysis::lints_doc::lints_markdown;
use std::path::{Path, PathBuf};

fn lints_md_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../LINTS.md")
}

#[test]
fn lints_md_matches_the_rule_metadata() {
    let path = lints_md_path();
    let want = lints_markdown();
    if std::env::var("BLESS").is_ok() {
        std::fs::write(&path, &want).expect("write LINTS.md");
        return;
    }
    let have = std::fs::read_to_string(&path).expect(
        "LINTS.md missing; create it with BLESS=1 cargo test -p smtsim-analysis --test lints_doc",
    );
    assert_eq!(
        have, want,
        "LINTS.md drifted from the Rule metadata; \
         regenerate with BLESS=1 cargo test -p smtsim-analysis --test lints_doc"
    );
}

#[test]
fn generator_catches_synthetic_drift_both_ways() {
    let doc = lints_markdown();
    // Removing any line breaks the byte-compare (stale doc)…
    let without_last_line = {
        let mut lines: Vec<&str> = doc.lines().collect();
        lines.pop();
        lines.join("\n")
    };
    assert_ne!(doc, without_last_line);
    // …and so does an extra row (overpromising doc).
    let with_extra_row = format!("{doc}| D99 | file | no such rule |\n");
    assert_ne!(doc, with_extra_row);
}

#[test]
fn explain_text_matches_the_doc_sections() {
    // `smtsim-lint --explain D<n>` and LINTS.md must tell one story.
    let doc = lints_markdown();
    for rule in smtsim_analysis::ALL_RULES {
        assert!(
            doc.contains(rule.explain()),
            "{} --explain text missing from LINTS.md",
            rule.id()
        );
    }
}
