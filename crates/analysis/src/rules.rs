//! The per-file determinism rules (D1, D2, D3, D5, D6, D7, D13).
//!
//! Each rule is a pass over one file's token stream. Rules never look
//! inside comments or string literals (the lexer already separated
//! them), and most skip `#[cfg(test)]` / `#[test]` regions — test code
//! may use hash maps and panic freely; only the simulator's replayed
//! state is held to the determinism bar.

use crate::findings::{Finding, Rule};
use crate::lexer::{Tok, TokKind};

/// Path-based classification of one file (paths are `/`-separated and
/// relative to the lint root).
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Inside a simulator crate's `src/` (or the root facade `src/`):
    /// code that runs during a simulation and therefore must replay.
    pub simulator: bool,
    /// Inside `crates/bench` — the one sanctioned wall-clock user.
    pub bench: bool,
    /// An integration-test or example file (`tests/`, `examples/`).
    pub test_file: bool,
    /// One of the cycle-loop files D3 applies to.
    pub hot_path: bool,
}

/// The files whose code runs once per simulated cycle (or per fetched
/// instruction): D3's scope. Kept explicit so adding a hot file is a
/// reviewed decision.
const HOT_PATH_FILES: &[&str] = &[
    "crates/cpu/src/core.rs",
    "crates/cpu/src/rob.rs",
    "crates/cpu/src/wheel.rs",
    "crates/cpu/src/thread.rs",
    "crates/cpu/src/regfile.rs",
    "crates/cpu/src/bpred.rs",
    "crates/cpu/src/btb.rs",
    "crates/cpu/src/ras.rs",
    "crates/mem/src/system.rs",
    "crates/mem/src/cache.rs",
    "crates/mem/src/bus.rs",
    "crates/mem/src/dram.rs",
    "crates/mem/src/l2bank.rs",
    "crates/mem/src/mshr.rs",
    "crates/mem/src/tlb.rs",
    "crates/mem/src/histogram.rs",
    "crates/core/src/sim.rs",
];

/// Crates whose `src/` trees count as simulator code for D1/D6.
const SIM_CRATES: &[&str] = &["cpu", "mem", "policy", "trace", "core", "energy", "obs"];

impl FileClass {
    /// Classify a root-relative path.
    pub fn of(rel: &str) -> FileClass {
        let bench = rel.starts_with("crates/bench/");
        let test_file = rel.starts_with("tests/")
            || rel.starts_with("examples/")
            || rel.contains("/tests/")
            || rel.contains("/examples/");
        let simulator = !test_file
            && (rel.starts_with("src/")
                || SIM_CRATES
                    .iter()
                    .any(|c| rel.starts_with(&format!("crates/{c}/src/"))));
        let hot_path =
            HOT_PATH_FILES.contains(&rel) || (rel.starts_with("crates/policy/src/") && !test_file);
        FileClass {
            simulator,
            bench,
            test_file,
            hot_path,
        }
    }
}

/// Token-index spans of `#[cfg(test)]` items and `#[test]` functions.
///
/// Detection is syntactic: the attribute, then any further attributes,
/// then the item's body braces. `mod tests;` (no body) contributes no
/// span. Nested braces are tracked, so a test module's full extent is
/// covered.
pub fn test_regions(toks: &[Tok<'_>]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if let Some(after_attr) = match_test_attr(toks, i) {
            // Skip any further attributes.
            let mut j = after_attr;
            while j < toks.len() && toks[j].is_punct('#') {
                j = skip_attr(toks, j);
            }
            // Find the body: first `{` before a `;` ends the item header.
            let mut k = j;
            while k < toks.len() && !toks[k].is_punct('{') && !toks[k].is_punct(';') {
                k += 1;
            }
            if k < toks.len() && toks[k].is_punct('{') {
                let end = match_brace(toks, k);
                regions.push((i, end));
                i = end + 1;
                continue;
            }
            i = k + 1;
            continue;
        }
        i += 1;
    }
    regions
}

/// Is the token at `idx` inside any of `regions`?
pub fn in_regions(regions: &[(usize, usize)], idx: usize) -> bool {
    regions.iter().any(|&(s, e)| idx >= s && idx <= e)
}

/// If `toks[i..]` starts `#[cfg(test)]` or `#[test]`, return the index
/// just past the closing `]`.
fn match_test_attr(toks: &[Tok<'_>], i: usize) -> Option<usize> {
    if !toks.get(i)?.is_punct('#') || !toks.get(i + 1)?.is_punct('[') {
        return None;
    }
    let end = skip_attr(toks, i);
    let inner = &toks[i + 2..end.saturating_sub(1)];
    let is_test = match inner {
        [t] if t.is_ident("test") => true,
        [c, ..] if c.is_ident("cfg") => inner.iter().any(|t| t.is_ident("test")),
        _ => false,
    };
    if is_test {
        Some(end)
    } else {
        None
    }
}

/// Given `toks[i]` == `#`, return the index just past the attribute's
/// closing `]`. Handles both outer (`#[...]`) and inner (`#![...]`)
/// attributes.
pub(crate) fn skip_attr(toks: &[Tok<'_>], i: usize) -> usize {
    let mut j = i + 1; // at `[`, or `!` for inner attributes
    if toks.get(j).map(|t| t.is_punct('!')) == Some(true) {
        j += 1;
    }
    if toks.get(j).map(|t| t.is_punct('[')) != Some(true) {
        return i + 1; // `#` not introducing an attribute
    }
    let mut depth = 0i32;
    while j < toks.len() {
        if toks[j].is_punct('[') {
            depth += 1;
        } else if toks[j].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    toks.len()
}

/// Given `toks[open]` == `{`, return the index of its matching `}` (or
/// the last token on imbalance).
pub(crate) fn match_brace(toks: &[Tok<'_>], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Counter-ish field names D6 protects: anything holding a cycle count
/// or an event tally must be integral, or same-seed replays drift by
/// accumulated rounding.
fn is_counter_name(name: &str) -> bool {
    name == "cycles"
        || name == "cycle"
        || name == "committed"
        || name == "fetched"
        || [
            "_cycles",
            "_count",
            "_counts",
            "_stalls",
            "_misses",
            "_hits",
            "_retries",
            "_flushes",
            "_merges",
            "_writebacks",
            "_prefetches",
            "_forwards",
            "_issued",
            "_executed",
            "_squashed",
        ]
        .iter()
        .any(|s| name.ends_with(s))
}

/// The single file allowed to call `catch_unwind`: the sweep's job
/// isolation boundary. Anywhere else, a swallowed panic hides a bug
/// from the determinism replay tests — D7's scope is absolute (test
/// code included; tests assert panics with `#[should_panic]` instead).
const PANIC_BOUNDARY_FILE: &str = "crates/core/src/sweep.rs";

/// The one crate allowed to touch the network: the serving layer.
/// Like D7, D13's scope is absolute (test code included) — a test
/// elsewhere that opens a socket couples the determinism suite to the
/// host network stack.
const NET_BOUNDARY_PREFIX: &str = "crates/serve/";

/// Socket types whose mere mention outside the serve crate is a D13
/// finding: an import alone already creates the dependency the rule
/// exists to forbid.
const NET_IDENTS: &[&str] = &["TcpListener", "TcpStream", "UdpSocket"];

/// Run D1, D2, D3, D5, D6 and D7 over one file. Waivers are applied
/// later by the engine; this emits raw findings.
pub fn check_file(rel: &str, toks: &[Tok<'_>], out: &mut Vec<Finding>) {
    let class = FileClass::of(rel);
    let regions = test_regions(toks);
    let sig: Vec<usize> = toks
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .map(|(i, _)| i)
        .collect();

    let push = |out: &mut Vec<Finding>, rule, tok: &Tok<'_>, symbol: &str, message: String| {
        out.push(Finding {
            rule,
            path: rel.to_string(),
            line: tok.line,
            symbol: symbol.to_string(),
            message,
            chain: Vec::new(),
            waived: false,
        });
    };

    for (si, &i) in sig.iter().enumerate() {
        let t = &toks[i];
        let in_test = in_regions(&regions, i);
        let prev = si.checked_sub(1).map(|p| &toks[sig[p]]);
        let next = sig.get(si + 1).map(|&n| &toks[n]);

        // D1: hash collections in simulator code.
        if class.simulator
            && !class.test_file
            && !in_test
            && t.kind == TokKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet")
        {
            push(
                out,
                Rule::D1,
                t,
                t.text,
                format!(
                    "{} has per-process random iteration order; use BTreeMap/BTreeSet, a sorted Vec, or mem::util's slab",
                    t.text
                ),
            );
        }

        // D2: wall-clock reads outside crates/bench.
        if !class.bench && t.kind == TokKind::Ident {
            if t.text == "SystemTime" {
                push(
                    out,
                    Rule::D2,
                    t,
                    "SystemTime",
                    "wall-clock time must not reach simulator state; only crates/bench may read the clock".into(),
                );
            }
            if t.text == "Instant" {
                // Flag the `Instant::now` call, not a mere type mention.
                let colons = sig.get(si + 1).map(|&n| &toks[n]).map(|t| t.is_punct(':'))
                    == Some(true)
                    && sig.get(si + 2).map(|&n| &toks[n]).map(|t| t.is_punct(':')) == Some(true);
                let then_now = sig
                    .get(si + 3)
                    .map(|&n| &toks[n])
                    .map(|t| t.is_ident("now"))
                    == Some(true);
                if colons && then_now {
                    push(
                        out,
                        Rule::D2,
                        t,
                        "Instant::now",
                        "wall-clock reads are nondeterministic; only crates/bench may call Instant::now".into(),
                    );
                }
            }
        }

        // D3: unwrap/expect in cycle-loop files.
        if class.hot_path
            && !in_test
            && t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && prev.map(|p| p.is_punct('.')) == Some(true)
            && next.map(|n| n.is_punct('(')) == Some(true)
        {
            push(
                out,
                Rule::D3,
                t,
                t.text,
                format!(
                    "{}() in a cycle-loop file: document the invariant with a waiver, restructure, or use debug_assert!",
                    t.text
                ),
            );
        }

        // D5: #[allow(clippy::...)] / #![allow(clippy::...)] anywhere.
        if t.is_punct('#') && next.map(|n| n.is_punct('[') || n.is_punct('!')) == Some(true) {
            let end = skip_attr(toks, i);
            let inner = &toks[i..end];
            let is_allow = inner.iter().any(|t| t.is_ident("allow"));
            let names_clippy = inner.iter().any(|t| t.is_ident("clippy"));
            if is_allow && names_clippy {
                let lint = inner
                    .iter()
                    .skip_while(|t| !t.is_ident("clippy"))
                    .find(|t| t.kind == TokKind::Ident && !t.is_ident("clippy"))
                    .map(|t| t.text)
                    .unwrap_or("lint");
                push(
                    out,
                    Rule::D5,
                    t,
                    lint,
                    format!("#[allow(clippy::{lint})] silences a defense-in-depth lint; state why with a waiver"),
                );
            }
        }

        // D7: catch_unwind anywhere but the sweep's isolation boundary.
        // Deliberately NOT test-exempt: a test that swallows panics can
        // mask nondeterminism; assert with #[should_panic] instead.
        if rel != PANIC_BOUNDARY_FILE && t.kind == TokKind::Ident && t.text == "catch_unwind" {
            push(
                out,
                Rule::D7,
                t,
                "catch_unwind",
                format!(
                    "catch_unwind outside {PANIC_BOUNDARY_FILE}: panic isolation has one blessed boundary (the sweep runner); swallowing panics elsewhere hides replay-breaking bugs"
                ),
            );
        }

        // D13 (lexical form): std::net outside the serve crate. Two
        // triggers: a socket-type ident, or the path `std :: net`
        // (catches `use std::net::…` spellings that never name a
        // type). Deliberately NOT test-exempt, like D7.
        if !rel.starts_with(NET_BOUNDARY_PREFIX) && t.kind == TokKind::Ident {
            if NET_IDENTS.contains(&t.text) {
                push(
                    out,
                    Rule::D13,
                    t,
                    t.text,
                    format!(
                        "`{}` outside {NET_BOUNDARY_PREFIX}: sockets are nondeterministic host input; only the serving layer may touch std::net",
                        t.text
                    ),
                );
            }
            if t.text == "std"
                && next.map(|n| n.is_punct(':')) == Some(true)
                && sig.get(si + 2).map(|&n| toks[n].is_punct(':')) == Some(true)
                && sig.get(si + 3).map(|&n| toks[n].is_ident("net")) == Some(true)
            {
                push(
                    out,
                    Rule::D13,
                    t,
                    "std::net",
                    format!(
                        "`std::net` outside {NET_BOUNDARY_PREFIX}: sockets are nondeterministic host input; only the serving layer may touch std::net"
                    ),
                );
            }
        }

        // D6 (accumulation form): `.counter += <float stuff>;`
        if class.simulator
            && !in_test
            && t.kind == TokKind::Ident
            && is_counter_name(t.text)
            && prev.map(|p| p.is_punct('.')) == Some(true)
            && next.map(|n| n.is_punct('+')) == Some(true)
            && sig.get(si + 2).map(|&n| toks[n].is_punct('=')) == Some(true)
        {
            // Scan the RHS up to the statement's `;`.
            let mut float_rhs = false;
            for &k in &sig[si + 3..] {
                let rt = &toks[k];
                if rt.is_punct(';') {
                    break;
                }
                if rt.kind == TokKind::FloatLit || rt.is_ident("f64") || rt.is_ident("f32") {
                    float_rhs = true;
                    break;
                }
            }
            if float_rhs {
                push(
                    out,
                    Rule::D6,
                    t,
                    t.text,
                    format!("floating-point accumulation into counter `{}`: rounding drifts across replays; accumulate integers and derive ratios at report time", t.text),
                );
            }
        }
    }

    // D6 (declaration form): counter-named struct fields typed f32/f64.
    if class.simulator && !class.test_file {
        check_float_counter_fields(rel, toks, &regions, &sig, out);
    }
}

/// Walk `struct` bodies looking for `counter_name: f64` declarations.
fn check_float_counter_fields(
    rel: &str,
    toks: &[Tok<'_>],
    regions: &[(usize, usize)],
    sig: &[usize],
    out: &mut Vec<Finding>,
) {
    let mut si = 0;
    while si < sig.len() {
        let i = sig[si];
        if !toks[i].is_ident("struct") || in_regions(regions, i) {
            si += 1;
            continue;
        }
        // Find the body `{` (tuple/unit structs hit `(`/`;` first).
        let mut k = si + 1;
        while k < sig.len() {
            let t = &toks[sig[k]];
            if t.is_punct('{') || t.is_punct('(') || t.is_punct(';') {
                break;
            }
            k += 1;
        }
        if k >= sig.len() || !toks[sig[k]].is_punct('{') {
            si = k + 1;
            continue;
        }
        let body_end = match_brace(toks, sig[k]);
        // Within the body: `name : f64` at brace depth 1, followed by
        // `,` or `}`.
        let mut depth = 0i32;
        let mut m = k;
        while m < sig.len() && sig[m] <= body_end {
            let t = &toks[sig[m]];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
            } else if depth == 1
                && t.kind == TokKind::Ident
                && is_counter_name(t.text)
                && toks
                    .get(sig.get(m + 1).copied().unwrap_or(usize::MAX))
                    .map(|n| n.is_punct(':'))
                    == Some(true)
            {
                if let Some(&ty_i) = sig.get(m + 2) {
                    let ty = &toks[ty_i];
                    let term = sig
                        .get(m + 3)
                        .map(|&x| toks[x].is_punct(',') || toks[x].is_punct('}'))
                        == Some(true);
                    if (ty.is_ident("f64") || ty.is_ident("f32")) && term {
                        out.push(Finding {
                            rule: Rule::D6,
                            path: rel.to_string(),
                            line: t.line,
                            symbol: t.text.to_string(),
                            message: format!(
                                "counter field `{}` declared as {}: cycle/event tallies must be integers",
                                t.text, ty.text
                            ),
                            chain: Vec::new(),
                            waived: false,
                        });
                    }
                }
            }
            m += 1;
        }
        si = m;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn findings(rel: &str, src: &str) -> Vec<Finding> {
        let toks = lex(src);
        let mut out = Vec::new();
        check_file(rel, &toks, &mut out);
        out
    }

    #[test]
    fn file_classes() {
        assert!(FileClass::of("crates/cpu/src/core.rs").simulator);
        assert!(FileClass::of("crates/cpu/src/core.rs").hot_path);
        assert!(!FileClass::of("crates/cpu/tests/pipeline.rs").simulator);
        assert!(FileClass::of("crates/bench/src/bin/benchmark/stats.rs").bench);
        assert!(FileClass::of("crates/policy/src/mflush.rs").hot_path);
        assert!(FileClass::of("src/lib.rs").simulator);
        assert!(FileClass::of("examples/quickstart.rs").test_file);
    }

    #[test]
    fn d1_flags_hash_collections_outside_tests() {
        let src = "use std::collections::HashMap;\n#[cfg(test)]\nmod tests {\n use std::collections::HashSet;\n}\n";
        let f = findings("crates/mem/src/cache.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::D1);
        assert_eq!(f[0].symbol, "HashMap");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn d1_ignores_strings_comments_and_test_files() {
        let src = "// HashMap in a comment\nlet s = \"HashMap\";\n";
        assert!(findings("crates/mem/src/cache.rs", src).is_empty());
        assert!(findings(
            "crates/mem/tests/stress.rs",
            "use std::collections::HashMap;"
        )
        .is_empty());
    }

    #[test]
    fn d2_flags_wall_clock_outside_bench() {
        let f = findings("crates/core/src/sweep.rs", "let t = Instant::now();");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].symbol, "Instant::now");
        assert!(findings(
            "crates/bench/src/bin/benchmark/stats.rs",
            "let t = Instant::now();"
        )
        .is_empty());
        let f = findings("crates/trace/src/gen.rs", "use std::time::SystemTime;");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn d3_only_in_hot_files_outside_tests() {
        let src = "fn f() { x.unwrap(); y.expect(\"msg\"); }\n#[test]\nfn t() { z.unwrap(); }\n";
        let f = findings("crates/cpu/src/core.rs", src);
        assert_eq!(f.len(), 2);
        assert!(findings("crates/trace/src/gen.rs", src).is_empty());
    }

    #[test]
    fn d5_flags_clippy_allows() {
        let f = findings(
            "crates/trace/src/spec.rs",
            "#[allow(clippy::too_many_arguments)]\nfn f() {}\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].symbol, "too_many_arguments");
        // Non-clippy allows are rustc business, not ours.
        assert!(findings(
            "crates/trace/src/spec.rs",
            "#[allow(dead_code)]\nfn f() {}\n"
        )
        .is_empty());
    }

    #[test]
    fn d7_flags_catch_unwind_everywhere_but_the_sweep() {
        let src = "use std::panic::catch_unwind;\nfn f() { let _ = catch_unwind(|| {}); }\n";
        let f = findings("crates/core/src/sim.rs", src);
        assert_eq!(f.len(), 2, "the use and the call both flag");
        assert!(f.iter().all(|f| f.rule == Rule::D7));
        // Not even test regions are exempt...
        let in_test = "#[test]\nfn t() { let _ = std::panic::catch_unwind(|| {}); }\n";
        assert_eq!(findings("tests/property.rs", in_test).len(), 1);
        // ...but the sweep runner is the blessed boundary.
        assert!(findings("crates/core/src/sweep.rs", src).is_empty());
    }

    #[test]
    fn d6_flags_float_counters() {
        let f = findings(
            "crates/cpu/src/stats.rs",
            "pub struct S { pub busy_cycles: f64, pub ok_cycles: u64, pub rate: f64 }",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].symbol, "busy_cycles");

        let f = findings(
            "crates/cpu/src/core.rs",
            "fn f(&mut self) { self.total_cycles += dt as f64; }",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::D6);
        assert!(findings(
            "crates/cpu/src/core.rs",
            "fn f(&mut self) { self.total_cycles += 1; }"
        )
        .is_empty());
    }
}
