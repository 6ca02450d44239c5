#![forbid(unsafe_code)]
//! # smtsim-analysis — the workspace's determinism linter
//!
//! The reproduction's results are only trustworthy because same-seed
//! runs are **byte-identical** (DESIGN.md §9). That contract is easy to
//! break silently: one `HashMap` iteration, one wall-clock read, one
//! stats field that never reaches the JSON report. This crate is the
//! static gate that keeps those out: a hand-rolled Rust lexer
//! ([`lexer`]) feeding a rule engine ([`rules`], [`metrics_doc`]) that
//! walks every `.rs` file in the workspace and enforces eleven rules
//! (a stats field that never reaches the report cannot be written:
//! the record tables of `smtsim_core::json` declare each reported
//! field once):
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | D1 | no `HashMap`/`HashSet` in non-test simulator code |
//! | D2 | no wall-clock (`Instant::now`, `SystemTime`) outside `crates/bench` |
//! | D3 | no `unwrap()`/`expect()` in cycle-loop files without a waiver |
//! | D5 | no `#[allow(clippy::…)]` without a waiver |
//! | D6 | no floating-point cycle/counter fields or accumulation |
//! | D7 | no `catch_unwind` outside the sweep's panic boundary |
//! | D8 | the metric registry and METRICS.md must agree, both ways |
//! | D10 | no heap allocation reachable from the cycle-loop roots |
//! | D11 | no panic site reachable from a run/sweep entry point |
//! | D12 | no nondeterminism source reachable from sim state (graph D1/D2) |
//! | D13 | no `std::net` outside `crates/serve`, no serve code reachable from sim state |
//!
//! D10–D13 (and D3's graph scope) come from a light parser
//! ([`parse`]) and a whole-workspace call graph ([`callgraph`]) built
//! over the same token stream; their findings carry the full call
//! chain from the root (`Simulator::step → … → Vec::new`). See the
//! generated LINTS.md for every rule's scope and waiver syntax.
//!
//! Violations can be suppressed with an inline
//! `// lint: allow(<rule>) -- <reason>` waiver ([`waiver`]) or a
//! checked-in baseline file; everything else fails the build — the
//! `smtsim-lint` binary exits nonzero and `scripts/ci.sh` gates on it.
//! The linter's own `--json` report goes through
//! [`smtsim_core::json::ToJson`] and is itself byte-stable (a golden
//! fixture pins it), because a flaky linter would be a poor instrument
//! for enforcing determinism.
//!
//! Std-only like the rest of the workspace: no syn, no regex, no
//! walkdir — see DESIGN.md §9/§10.

pub mod callgraph;
pub mod engine;
pub mod findings;
pub mod lexer;
pub mod lints_doc;
pub mod metrics_doc;
pub mod parse;
pub mod rules;
pub mod waiver;

pub use engine::{collect_files, find_workspace_root, lint_files, lint_files_doc, lint_root};
pub use findings::{Finding, LintReport, Rule, ALL_RULES};
pub use waiver::Baseline;
