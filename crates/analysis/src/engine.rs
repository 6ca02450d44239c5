//! The lint driver: file collection, rule execution, waiver and
//! baseline application.
//!
//! Determinism of the linter itself is part of the contract: files are
//! walked in sorted relative-path order, findings are sorted before
//! reporting, and nothing (no clock, no hash order, no thread
//! scheduling) can perturb the output between runs.

use crate::callgraph::{check_graph, Graph};
use crate::findings::{Finding, LintReport, Rule};
use crate::lexer::lex;
use crate::metrics_doc::{check_metrics_doc, collect_registrations, Registration};
use crate::parse::{parse_file, FnDef};
use crate::rules::check_file;
use crate::waiver::{Baseline, Waivers};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Directory names the walker never descends into. `fixtures` keeps
/// the linter's own deliberately-bad test inputs (and any checked-in
/// golden data) out of the real workspace's lint run.
const SKIP_DIRS: &[&str] = &["target", "fixtures", ".git"];

/// Collect every `.rs` file under `root`, as sorted
/// `(relative_path, contents)` pairs. Unreadable files are skipped —
/// the linter judges code, it does not gate on filesystem weather.
pub fn collect_files(root: &Path) -> Vec<(String, String)> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                if let Ok(src) = fs::read_to_string(&path) {
                    let rel = path
                        .strip_prefix(root)
                        .unwrap_or(&path)
                        .components()
                        .map(|c| c.as_os_str().to_string_lossy().into_owned())
                        .collect::<Vec<_>>()
                        .join("/");
                    files.push((rel, src));
                }
            }
        }
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    files
}

/// Lint an in-memory file set without a METRICS.md (rule D8 is
/// skipped — it judges the registry/doc *pair*). `lint_root` supplies
/// the doc; use [`lint_files_doc`] to pass one explicitly.
pub fn lint_files(files: &[(String, String)], baseline: &Baseline) -> LintReport {
    lint_files_doc(files, baseline, None)
}

/// Lint an in-memory file set. This is the engine proper; `lint_root`
/// wraps it with the filesystem walk and the METRICS.md read.
pub fn lint_files_doc(
    files: &[(String, String)],
    baseline: &Baseline,
    metrics_doc: Option<&str>,
) -> LintReport {
    let mut findings: Vec<Finding> = Vec::new();
    let mut waivers: BTreeMap<&str, Waivers> = BTreeMap::new();
    let mut registrations: Vec<Registration> = Vec::new();
    let mut defs: Vec<FnDef> = Vec::new();

    for (rel, src) in files {
        let toks = lex(src);
        check_file(rel, &toks, &mut findings);
        collect_registrations(rel, &toks, &mut registrations);
        defs.extend(parse_file(rel, &toks));
        waivers.insert(rel, Waivers::collect(&toks));
    }
    check_metrics_doc(&registrations, metrics_doc, &mut findings);

    // The call-graph pass (D10–D12, and D3's graph scope). When the
    // file set defines cycle-loop roots, graph-D3 — which sees the
    // whole call graph and therefore exonerates construction-time code
    // — replaces the lexical hot-file scope.
    let graph = Graph::build(defs);
    if !graph.cycle_roots().is_empty() {
        findings.retain(|f| f.rule != Rule::D3);
    }
    check_graph(&graph, &waivers, &mut findings);

    for f in &mut findings {
        let inline = waivers
            .get(f.path.as_str())
            .map(|w| w.allows(f.line, f.rule))
            .unwrap_or(false);
        if inline || baseline.contains(&f.fingerprint()) {
            f.waived = true;
        }
    }

    let mut report = LintReport {
        files_scanned: files.len() as u64,
        findings,
    };
    report.normalize();
    report
}

/// Walk `root` and lint everything under it, reading `METRICS.md` at
/// the root (when present) for rule D8.
pub fn lint_root(root: &Path, baseline: &Baseline) -> LintReport {
    let doc = fs::read_to_string(root.join("METRICS.md")).ok();
    lint_files_doc(&collect_files(root), baseline, doc.as_deref())
}

/// Find the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owned(files: &[(&str, &str)]) -> Vec<(String, String)> {
        files
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn waivers_suppress_findings() {
        let files = owned(&[(
            "crates/cpu/src/core.rs",
            "fn f() {\n    // lint: allow(D3) -- head checked above\n    x.unwrap();\n    y.unwrap();\n}\n",
        )]);
        let r = lint_files(&files, &Baseline::default());
        assert_eq!(r.findings.len(), 2);
        assert_eq!(r.waived_count(), 1);
        assert_eq!(r.unwaived_count(), 1);
        let unwaived: Vec<_> = r.unwaived().collect();
        assert_eq!(unwaived[0].line, 4);
    }

    #[test]
    fn baseline_suppresses_by_fingerprint() {
        let files = owned(&[(
            "crates/mem/src/cache.rs",
            "use std::collections::HashMap;\n",
        )]);
        let clean = lint_files(&files, &Baseline::default());
        assert_eq!(clean.unwaived_count(), 1);
        let b = Baseline::parse("D1 crates/mem/src/cache.rs HashMap\n");
        let waived = lint_files(&files, &b);
        assert_eq!(waived.unwaived_count(), 0);
        assert_eq!(waived.waived_count(), 1);
    }

    #[test]
    fn reports_are_deterministic() {
        let files = owned(&[
            ("crates/mem/src/b.rs", "use std::collections::HashSet;\n"),
            (
                "crates/mem/src/a.rs",
                "fn f() { let t = Instant::now(); }\n",
            ),
        ]);
        use smtsim_core::json::ToJson;
        let a = lint_files(&files, &Baseline::default()).to_json();
        let b = lint_files(&files, &Baseline::default()).to_json();
        assert_eq!(a, b);
        // Sorted by path regardless of input order.
        assert!(a.find("a.rs").unwrap() < a.find("b.rs").unwrap());
    }
}
