//! `smtsim-lint` — gate the workspace on its determinism invariants.
//!
//! ```text
//! smtsim-lint [--root DIR] [--baseline FILE] [--json] [--list-rules]
//!             [--explain D<n>]
//! ```
//!
//! Walks every `.rs` file under the workspace root (found by searching
//! upward from the current directory unless `--root` is given), runs
//! rules D1–D12, applies inline waivers and the baseline file
//! (`scripts/lint-baseline.txt` by default), prints the findings and
//! exits nonzero when any unwaived finding remains. With `--json` the
//! full report is emitted through the workspace's `ToJson` machinery —
//! byte-identical across runs over the same tree.

use smtsim_analysis::lints_doc::scope_kind;
use smtsim_analysis::{find_workspace_root, lint_root, Baseline, Rule, ALL_RULES};
use smtsim_core::json::ToJson;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--baseline" => baseline_path = args.next().map(PathBuf::from),
            "--json" => json = true,
            "--list-rules" => {
                for r in ALL_RULES {
                    println!("{}  {}", r.id(), r.describe());
                }
                return ExitCode::SUCCESS;
            }
            "--explain" => {
                let Some(id) = args.next() else {
                    eprintln!("smtsim-lint: --explain needs a rule id (try --list-rules)");
                    return ExitCode::from(2);
                };
                let Some(rule) = Rule::parse(&id) else {
                    eprintln!("smtsim-lint: unknown rule `{id}` (try --list-rules)");
                    return ExitCode::from(2);
                };
                println!(
                    "{} ({} scope) — {}",
                    rule.id(),
                    scope_kind(rule),
                    rule.describe()
                );
                println!();
                println!("{}", rule.explain());
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!(
                    "usage: smtsim-lint [--root DIR] [--baseline FILE] [--json] [--list-rules] [--explain D<n>]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("smtsim-lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("smtsim-lint: no [workspace] Cargo.toml above the current directory; use --root");
                    return ExitCode::from(2);
                }
            }
        }
    };

    let baseline_path = baseline_path.unwrap_or_else(|| root.join("scripts/lint-baseline.txt"));
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => Baseline::parse(&text),
        Err(_) => Baseline::default(), // absent baseline = nothing grandfathered
    };

    let report = lint_root(&root, &baseline);

    if json {
        println!("{}", report.to_json());
    } else {
        for f in &report.findings {
            if !f.waived {
                println!("{}", f.render());
            }
        }
        println!(
            "smtsim-lint: {} files, {} findings ({} waived, {} unwaived)",
            report.files_scanned,
            report.findings.len(),
            report.waived_count(),
            report.unwaived_count()
        );
    }

    if report.unwaived_count() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
