//! Rule D8: the metric registry and METRICS.md must agree, in both
//! directions.
//!
//! The observability layer's contract (DESIGN.md §12) is that every
//! sampled stat has exactly one registration — a `MetricSpec { name:
//! "…", … }` literal — and one documentation row in METRICS.md. This
//! module extracts the registrations from the token stream (so strings
//! in comments, doctests and `#[cfg(test)]` regions don't count) and
//! the backticked dotted metric names from METRICS.md, then flags:
//!
//! * a registration whose name METRICS.md never mentions (the doc
//!   went stale), reported at the registration site;
//! * a documented name no crate registers (the doc overpromises),
//!   reported at `METRICS.md`.
//!
//! When the caller has no METRICS.md to offer (in-memory lint runs,
//! trees without the file) the rule is skipped entirely — D8 judges
//! the *pair*, not either side alone.

use crate::findings::{Finding, Rule};
use crate::lexer::{Tok, TokKind};
use crate::rules::{in_regions, test_regions, FileClass};

/// One `MetricSpec { name: "…" }` literal found in non-test code.
#[derive(Debug, Clone)]
pub struct Registration {
    /// Root-relative path of the registering file.
    pub path: String,
    /// 1-based line of the `MetricSpec` token.
    pub line: u32,
    /// The registered metric name (string contents, quotes stripped).
    pub name: String,
}

/// Strip the surrounding quotes from a string-literal token.
fn str_contents(text: &str) -> &str {
    text.strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .unwrap_or(text)
}

/// Collect every `MetricSpec { … name: "…" … }` construction in
/// `toks`, skipping test files, `#[cfg(test)]`/`#[test]` regions and
/// the `struct MetricSpec { … }` definition itself (its `name` field
/// has a type, not a string literal).
pub fn collect_registrations(rel: &str, toks: &[Tok<'_>], out: &mut Vec<Registration>) {
    if FileClass::of(rel).test_file {
        return;
    }
    let regions = test_regions(toks);
    let mut i = 0;
    while i + 1 < toks.len() {
        if toks[i].is_ident("MetricSpec")
            && toks[i + 1].is_punct('{')
            && !(i > 0 && toks[i - 1].is_ident("struct"))
            && !in_regions(&regions, i)
        {
            let line = toks[i].line;
            let mut depth = 1u32;
            let mut j = i + 2;
            while j < toks.len() && depth > 0 {
                if toks[j].is_punct('{') {
                    depth += 1;
                } else if toks[j].is_punct('}') {
                    depth -= 1;
                } else if depth == 1
                    && toks[j].is_ident("name")
                    && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
                    && toks.get(j + 2).is_some_and(|t| t.kind == TokKind::StrLit)
                {
                    out.push(Registration {
                        path: rel.to_string(),
                        line,
                        name: str_contents(toks[j + 2].text).to_string(),
                    });
                }
                j += 1;
            }
            i = j;
            continue;
        }
        i += 1;
    }
}

/// File extensions that keep a backticked dotted token from being read
/// as a metric name (`` `trace.jsonl` `` is a file, not a metric).
const NON_METRIC_EXTENSIONS: &[&str] = &[
    "rs", "md", "sh", "toml", "json", "jsonl", "txt", "py", "yml", "yaml", "lock", "csv",
];

/// Does `tok` look like a metric name? Dotted lowercase
/// (`cpu.thread.ipc` shape): only `[a-z0-9_.]`, at least one interior
/// dot, and not ending in a known file extension.
fn is_metric_token(tok: &str) -> bool {
    if !tok.contains('.') || tok.starts_with('.') || tok.ends_with('.') {
        return false;
    }
    if !tok
        .chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_')
    {
        return false;
    }
    let last = tok.rsplit('.').next().unwrap_or("");
    !NON_METRIC_EXTENSIONS.contains(&last)
}

/// Extract `(name, line)` for every backticked metric-shaped token in
/// the METRICS.md text, first occurrence per name. The text stops at
/// the "Result fields" section: its rows are result JSON paths
/// generated from the record tables, which the `metrics_doc` drift
/// test checks byte for byte.
pub fn doc_metric_names(doc: &str) -> Vec<(String, u32)> {
    let metrics = doc
        .split_once(smtsim_core::obs::RESULT_FIELDS_HEADING)
        .map_or(doc, |(metrics, _)| metrics);
    let mut names: Vec<(String, u32)> = Vec::new();
    for (lineno, line) in metrics.lines().enumerate() {
        let mut rest = line;
        while let Some(open) = rest.find('`') {
            let after = &rest[open + 1..];
            let Some(close) = after.find('`') else { break };
            let tok = &after[..close];
            if is_metric_token(tok) && !names.iter().any(|(n, _)| n == tok) {
                names.push((tok.to_string(), lineno as u32 + 1));
            }
            rest = &after[close + 1..];
        }
    }
    names
}

/// Cross-check registrations against the METRICS.md text (rule D8).
/// `doc` is `None` when the lint run has no METRICS.md — the rule is
/// skipped so in-memory engine tests and bare file sets stay valid.
pub fn check_metrics_doc(
    registrations: &[Registration],
    doc: Option<&str>,
    findings: &mut Vec<Finding>,
) {
    let Some(doc) = doc else { return };
    let documented = doc_metric_names(doc);
    for r in registrations {
        if !documented.iter().any(|(n, _)| n == &r.name) {
            findings.push(Finding {
                rule: Rule::D8,
                path: r.path.clone(),
                line: r.line,
                symbol: r.name.clone(),
                message: format!(
                    "registered metric `{}` is missing from METRICS.md; regenerate it \
                     (BLESS=1 cargo test -p smtsim-core --test metrics_doc)",
                    r.name
                ),
                chain: Vec::new(),
                waived: false,
            });
        }
    }
    for (name, line) in &documented {
        if !registrations.iter().any(|r| &r.name == name) {
            findings.push(Finding {
                rule: Rule::D8,
                path: "METRICS.md".to_string(),
                line: *line,
                symbol: name.clone(),
                message: format!(
                    "METRICS.md documents `{name}` but no crate registers it; \
                     remove the row or restore the registration"
                ),
                chain: Vec::new(),
                waived: false,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn regs(rel: &str, src: &str) -> Vec<Registration> {
        let toks = lex(src);
        let mut out = Vec::new();
        collect_registrations(rel, &toks, &mut out);
        out
    }

    #[test]
    fn collects_literal_registrations_only() {
        let src = r#"
pub struct MetricSpec {
    pub name: &'static str,
}
pub const A: MetricSpec = MetricSpec {
    name: "x.alpha",
};
pub const B: MetricSpec = MetricSpec { name: "x.beta" };
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let _ = super::MetricSpec { name: "x.test_only" };
    }
}
"#;
        let found = regs("crates/cpu/src/metrics.rs", src);
        let names: Vec<&str> = found.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["x.alpha", "x.beta"]);
    }

    #[test]
    fn test_files_and_comments_do_not_register() {
        let src = "// MetricSpec { name: \"x.commented\" }\n";
        assert!(regs("crates/cpu/src/metrics.rs", src).is_empty());
        let src = "pub const A: MetricSpec = MetricSpec { name: \"x.alpha\" };\n";
        assert!(regs("crates/cpu/tests/some_test.rs", src).is_empty());
    }

    #[test]
    fn doc_tokens_filter_shape_and_extensions() {
        let doc = "| `cpu.thread.ipc` | see `trace.jsonl` and `obs.rs` |\n\
                   prose `NotAMetric.Name` and `plain` and `mem.dram.round_trips`\n";
        let names: Vec<String> = doc_metric_names(doc).into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["cpu.thread.ipc", "mem.dram.round_trips"]);
    }

    #[test]
    fn result_field_paths_are_not_metric_names() {
        let doc = format!(
            "| `x.alpha` |\n{}\n\n| `mem.l2_hit_rate` |\n",
            smtsim_core::obs::RESULT_FIELDS_HEADING
        );
        let names: Vec<String> = doc_metric_names(&doc).into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["x.alpha"]);
    }

    #[test]
    fn both_drift_directions_are_findings() {
        let registrations = regs(
            "crates/cpu/src/metrics.rs",
            "pub const A: MetricSpec = MetricSpec { name: \"x.alpha\" };\n\
             pub const B: MetricSpec = MetricSpec { name: \"x.beta\" };\n",
        );
        let doc = "| `x.alpha` |\n| `x.orphan` |\n";
        let mut findings = Vec::new();
        check_metrics_doc(&registrations, Some(doc), &mut findings);
        assert_eq!(findings.len(), 2);
        assert!(findings
            .iter()
            .any(|f| f.symbol == "x.beta" && f.path == "crates/cpu/src/metrics.rs"));
        assert!(findings
            .iter()
            .any(|f| f.symbol == "x.orphan" && f.path == "METRICS.md" && f.line == 2));
        findings.clear();
        check_metrics_doc(&registrations, None, &mut findings);
        assert!(findings.is_empty(), "no doc, no D8");
    }
}
