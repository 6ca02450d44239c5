//! METRICS.md drift gate.
//!
//! METRICS.md at the workspace root is *generated* from the
//! `MetricSpec` registrations (`smtsim_core::obs::metrics_markdown`).
//! This test byte-compares the checked-in file against the generator,
//! so drift in either direction fails:
//!
//! * a new registration without a regenerated doc (missing row);
//! * a doc row whose registration was renamed or removed (stale row);
//! * hand edits to the generated file.
//!
//! Regenerate after an intentional registry change with
//! `BLESS=1 cargo test -p smtsim-core --test metrics_doc`.
//! Lint rule D8 enforces the same agreement name-by-name from the
//! linter side (`smtsim-lint`), so CI catches drift even when this
//! test target is skipped.

use smtsim_core::obs::metrics_markdown;
use std::path::{Path, PathBuf};

fn metrics_md_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../METRICS.md")
}

#[test]
fn metrics_md_matches_the_registry() {
    let path = metrics_md_path();
    let want = metrics_markdown();
    if std::env::var("BLESS").is_ok() {
        std::fs::write(&path, &want).expect("write METRICS.md");
        return;
    }
    let have = std::fs::read_to_string(&path).expect(
        "METRICS.md missing; create it with BLESS=1 cargo test -p smtsim-core --test metrics_doc",
    );
    assert_eq!(
        have, want,
        "METRICS.md drifted from the MetricSpec registrations; \
         regenerate with BLESS=1 cargo test -p smtsim-core --test metrics_doc"
    );
}

#[test]
fn generator_catches_synthetic_drift_both_ways() {
    let doc = metrics_markdown();
    // Removing any table row breaks the byte-compare (stale doc)…
    let without_last_row = {
        let mut lines: Vec<&str> = doc.lines().collect();
        lines.pop();
        lines.join("\n")
    };
    assert_ne!(doc, without_last_row);
    // …and so does an extra row (overpromising doc).
    let with_extra_row = format!("{doc}| `fake.metric` | gauge | x | core | \u{2014} | nope |\n");
    assert_ne!(doc, with_extra_row);
}

#[test]
fn every_documented_name_is_backticked_exactly_once_per_table() {
    let doc = metrics_markdown();
    for m in smtsim_core::obs::all_metrics() {
        let rows: Vec<&str> = doc
            .lines()
            .filter(|l| l.contains(&format!("`{}`", m.name)))
            .collect();
        assert_eq!(
            rows.len(),
            1,
            "{} should have exactly one table row",
            m.name
        );
        assert!(rows[0].contains(m.unit), "{} row lists its unit", m.name);
    }
}
