//! LINTS.md generation.
//!
//! LINTS.md at the workspace root is *generated* from the [`Rule`]
//! metadata ([`Rule::describe`], [`Rule::explain`]) so the rule
//! reference can never drift from the rules themselves. A byte-drift
//! test (`crates/analysis/tests/lints_doc.rs`) compares the checked-in
//! file against [`lints_markdown`], mirroring the METRICS.md gate;
//! regenerate with `BLESS=1 cargo test -p smtsim-analysis --test
//! lints_doc`.

use crate::findings::{Rule, ALL_RULES};

/// How a rule decides what code it judges.
pub fn scope_kind(rule: Rule) -> &'static str {
    match rule {
        Rule::D1 | Rule::D2 | Rule::D5 | Rule::D6 | Rule::D7 => "file",
        Rule::D4 => "cross-file",
        Rule::D8 => "registry/doc pair",
        Rule::D3 | Rule::D10 | Rule::D11 | Rule::D12 => "call-graph",
        Rule::D13 => "file + call-graph",
    }
}

/// Render the full LINTS.md text.
pub fn lints_markdown() -> String {
    let mut out = String::new();
    out.push_str(
        "# Lint rules reference\n\n\
Every rule the determinism linter (`smtsim-lint`, crate\n\
`smtsim-analysis`) enforces. **Generated** from the `Rule` metadata by\n\
`lints_markdown()` in `crates/analysis/src/lints_doc.rs` — edit the\n\
metadata, then regenerate with\n\
`BLESS=1 cargo test -p smtsim-analysis --test lints_doc`.\n\
`smtsim-lint --explain D<n>` prints the same text per rule.\n\n\
File-scoped rules judge tokens by the file's path class; call-graph\n\
rules judge functions by *reachability* from the simulator's entry\n\
points and report the full call chain from the root (DESIGN.md §14).\n\
D9 (no reduced-fidelity components in golden-figure drivers) was\n\
retired with the fast memory model; its number stays unused.\n\n\
| Rule | Scope | Invariant |\n\
|------|-------|-----------|\n",
    );
    for r in ALL_RULES {
        out.push_str(&format!(
            "| {} | {} | {} |\n",
            r.id(),
            scope_kind(r),
            r.describe()
        ));
    }
    out.push_str(
        "\n## Waivers\n\n\
Findings are suppressed with a stated reason, never silently:\n\n\
* **Inline site waiver** — `// lint: allow(D3) -- <reason>` (several\n\
  rules: `allow(D1, D3)`) on the finding's line or the line directly\n\
  above it. The ` -- <reason>` part is mandatory; a reasonless waiver\n\
  is ignored.\n\
* **Function-scope waiver** (call-graph rules) — the same comment\n\
  placed directly above a `fn` declaration prunes that rule's graph\n\
  traversal at the function: the body and everything reachable *only*\n\
  through it is accepted with one stated reason. Used for cold\n\
  diagnostic subtrees (e.g. the watchdog's abort report) that hang off\n\
  hot roots.\n\
* **Baseline file** — `<rule> <path> <symbol>` lines (see\n\
  `scripts/lint-baseline.txt`), for grandfathered findings that\n\
  predate a rule. Kept empty; prefer inline waivers.\n\n\
## Rules\n\n",
    );
    for r in ALL_RULES {
        out.push_str(&format!(
            "### {} — {}\n\n{}\n\n",
            r.id(),
            r.describe(),
            r.explain()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_has_a_table_row_and_a_section() {
        let doc = lints_markdown();
        for r in ALL_RULES {
            assert!(
                doc.contains(&format!("| {} |", r.id())),
                "{} missing from table",
                r.id()
            );
            assert!(
                doc.contains(&format!("### {} —", r.id())),
                "{} missing a section",
                r.id()
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(lints_markdown(), lints_markdown());
    }
}
