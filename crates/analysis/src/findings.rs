//! Finding and report types, plus their JSON rendering.
//!
//! The linter's own output must clear the same bar it enforces: the
//! `--json` report is emitted through `smtsim_core::json::ToJson`
//! (declaration-ordered fields, pinned float/string formatting, no
//! insignificant whitespace) and findings are sorted by
//! `(path, line, rule, symbol)`, so repeated runs over the same tree
//! are byte-identical.

use smtsim_core::json::{Shape, ToJson};

/// The determinism rules (DESIGN.md §10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No `HashMap`/`HashSet` in non-test simulator code.
    D1,
    /// No wall-clock (`Instant::now`, `SystemTime`) outside `crates/bench`.
    D2,
    /// No `unwrap()`/`expect()` in cycle-loop files without a waiver.
    D3,
    // D4 (every pub stats field must reach its ToJson impl) was
    // retired when the record tables made a dropped field
    // unwritable; its number stays unused.
    /// No `#[allow(clippy::...)]` without a waiver.
    D5,
    /// No floating-point cycle/counter fields or accumulation.
    D6,
    /// No `catch_unwind` outside the sweep's panic-isolation boundary.
    D7,
    /// Every registered metric must be documented in METRICS.md, and
    /// METRICS.md must not document metrics that no longer exist.
    D8,
    // D9 (no reduced-fidelity components in golden-figure drivers)
    // was retired with the fast memory model; its number stays unused.
    /// No heap allocation reachable from the cycle-loop roots
    /// (call-graph scope).
    D10,
    /// No panic site reachable from a run/sweep entry point
    /// (call-graph scope).
    D11,
    /// No nondeterminism source reachable from simulator state
    /// (call-graph scope; the graph upgrade of D1/D2).
    D12,
    /// No `std::net` outside `crates/serve` (lexical), and no serve
    /// function reachable from a simulator root (call-graph scope).
    D13,
}

/// All rules, in id order.
pub const ALL_RULES: [Rule; 11] = [
    Rule::D1,
    Rule::D2,
    Rule::D3,
    Rule::D5,
    Rule::D6,
    Rule::D7,
    Rule::D8,
    Rule::D10,
    Rule::D11,
    Rule::D12,
    Rule::D13,
];

impl Rule {
    /// Stable id used in findings, waivers and the baseline file.
    pub fn id(&self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::D3 => "D3",
            Rule::D5 => "D5",
            Rule::D6 => "D6",
            Rule::D7 => "D7",
            Rule::D8 => "D8",
            Rule::D10 => "D10",
            Rule::D11 => "D11",
            Rule::D12 => "D12",
            Rule::D13 => "D13",
        }
    }

    /// One-line description (for `--list-rules` and docs).
    pub fn describe(&self) -> &'static str {
        match self {
            Rule::D1 => "no HashMap/HashSet in non-test simulator code (iteration order is per-process random)",
            Rule::D2 => "no wall-clock reads (Instant::now, SystemTime) outside crates/bench",
            Rule::D3 => "no unwrap()/expect() in cycle-loop files without an inline waiver",
            Rule::D5 => "no #[allow(clippy::...)] without an inline waiver",
            Rule::D6 => "no floating-point cycle/counter struct fields or float accumulation into counters",
            Rule::D7 => "no catch_unwind outside crates/core/src/sweep.rs (panic isolation has one blessed boundary)",
            Rule::D8 => "every registered MetricSpec name must appear in METRICS.md, and METRICS.md must not list unregistered metrics",
            Rule::D10 => "no heap allocation (Vec::new, vec!, Box::new, clone, format!, to_string, collect, ...) in functions reachable from the cycle-loop roots",
            Rule::D11 => "no panic site (unwrap/expect outside D3's hot files, panic!, unreachable!) in functions reachable from a run/sweep entry point",
            Rule::D12 => "no nondeterminism source (wall-clock call, hash-ordered collection) reachable from sim state where D1/D2 do not already apply",
            Rule::D13 => "no std::net (TcpListener, TcpStream, UdpSocket) outside crates/serve, and no serve-layer function reachable from a simulator root",
        }
    }

    /// Long-form explanation: scope, rationale, and how to fix or
    /// waive. Feeds `smtsim-lint --explain` and the generated LINTS.md.
    pub fn explain(&self) -> &'static str {
        match self {
            Rule::D1 => {
                "HashMap/HashSet iterate in per-process random order, so any simulator \
state or output derived from iterating one diverges between same-seed runs. Scope: every \
non-test token in simulator crates' src/ trees. Fix: BTreeMap/BTreeSet, a sorted Vec, or an \
index-keyed slab. Graph-scoped follow-up: D12 catches hash collections *outside* this scope \
that the cycle loop can still reach."
            }
            Rule::D2 => {
                "Wall-clock reads (Instant::now, SystemTime) are nondeterministic input. \
Only crates/bench — host-time measurement, explicitly outside the replay bar — may read the \
clock. Scope: every file outside crates/bench. Graph-scoped follow-up: D12 catches clock reads \
*inside* crates/bench that simulator code can reach."
            }
            Rule::D3 => {
                "unwrap()/expect() in the cycle loop turns a recoverable model bug into \
a process abort mid-sweep. Scope: call-graph — unwrap/expect sites in the declared hot-path \
file list, inside functions reachable from a cycle-loop root (Simulator::step and the \
tick-protocol entry points); when the linted file set defines no such root, the rule falls \
back to flagging the whole hot file. Fix: restructure to Result, debug_assert!, or waive with \
the invariant stated."
            }
            Rule::D5 => {
                "#[allow(clippy::...)] disables a defense-in-depth lint for everyone \
who edits the file later; the waiver comment records why that is safe. Scope: every file. \
Fix: state the reason in a `// lint: allow(D5) -- reason` waiver on the same or previous line."
            }
            Rule::D6 => {
                "Floating-point cycle/event counters accumulate rounding that drifts \
across replays and platforms. Scope: counter-named struct fields and `+=` accumulations in \
simulator code. Fix: count in integers; derive ratios at report time."
            }
            Rule::D7 => {
                "catch_unwind swallows panics, which hides replay-breaking bugs. The \
sweep runner (crates/core/src/sweep.rs) is the one blessed isolation boundary. Scope: every \
other file, test code included (tests assert panics with #[should_panic])."
            }
            Rule::D8 => {
                "METRICS.md is generated from the metric registry; drift in either \
direction means the docs lie. Scope: the registry/doc pair — METRICS.md's metric table, \
not its generated Result fields section (result JSON paths, byte-checked by the metrics_doc \
test). Fix: re-bless METRICS.md (BLESS=1) or remove the stale doc row."
            }
            Rule::D10 => {
                "A heap allocation inside the cycle loop costs allocator traffic \
every simulated cycle; the rule keeps the cycle loop allocation-free. Scope: call-graph — \
allocation sites (Vec::new, vec!, Box::new, .clone(), format!, \
to_string, collect, String::from, to_vec, to_owned, with_capacity) inside non-test functions \
transitively reachable from a cycle-loop root: Simulator::step, SmtCore::tick, \
MemorySystem::tick. Findings print the full call chain from the root. Fix: hoist into a \
reusable scratch buffer on the owning struct; for cold diagnostic paths, waive at the site \
or put a function-scope waiver on the subtree's entry fn."
            }
            Rule::D11 => {
                "A panic reachable from a run/sweep entry point can kill a job \
mid-sweep; failure must be a value (SimError), not an abort. Scope: call-graph — \
unwrap()/expect() sites outside D3's hot-file list, plus panic!/unreachable!/todo!/\
unimplemented! anywhere, inside non-test functions reachable from Simulator::run, run_sweep, \
run_sweep_journaled or run_sweep_ok. unwrap/expect inside the hot-file list is D3's \
jurisdiction (tighter, cycle-rooted scope). Fix: return Result, or waive with the invariant \
stated."
            }
            Rule::D12 => {
                "The graph upgrade of D1/D2: nondeterminism sources in code those \
file-scoped rules exempt (clock reads inside crates/bench, hash collections outside \
simulator src/) are still defects when the simulator can actually reach them. Scope: \
call-graph — Instant::now/SystemTime::now calls in crates/bench and HashMap/HashSet uses \
outside D1's scope, inside non-test functions reachable from a cycle-loop or run root. Fix: \
keep clock reads and hash collections out of anything the simulator calls."
            }
            Rule::D13 => {
                "The network is nondeterministic input and the serving layer is the one \
blessed place to touch it: a socket read inside the simulator would put host I/O timing in the \
replay path, and a sim-to-serve call would invert the dependency the workspace is layered \
around (serve drives the simulator, never the reverse). Scope: lexical — the idents \
TcpListener/TcpStream/UdpSocket and the path `std::net` in any file outside crates/serve, test \
code included; call-graph — functions defined in crates/serve reachable from a cycle-loop or \
run root. Fix: keep socket code in crates/serve and hand it plain strings/bytes across the \
boundary."
            }
        }
    }

    /// Parse a rule id (`"D1"`).
    pub fn parse(s: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.id() == s)
    }
}

smtsim_core::record! {
    /// One rule violation at one source location.
    #[derive(Debug, Clone)]
    pub struct Finding {
        #[label]
        /// The rule violated.
        pub rule: Rule,
        #[label]
        /// Path relative to the lint root, `/`-separated.
        pub path: String,
        #[label]
        /// 1-based line.
        pub line: u32,
        #[label]
        /// The offending symbol (`HashMap`, `unwrap`, a field name, …);
        /// part of the baseline fingerprint, so it must not contain line
        /// numbers or other churn-prone detail.
        pub symbol: String,
        #[label]
        /// What is wrong, and how to fix it.
        pub message: String,
        #[label]
        /// For call-graph rules (D3 graph scope, D10–D12): the shortest
        /// call chain from a root to the function containing the site,
        /// root first (`["Simulator::step", "SmtCore::tick", …]`).
        /// Empty for file-scoped rules.
        pub chain: Vec<String>,
        #[label]
        /// Suppressed by an inline waiver or a baseline entry.
        pub waived: bool,
    }
}

/// A rule renders as its id (`"D1"`).
impl ToJson for Rule {
    fn write_json(&self, out: &mut String) {
        self.id().write_json(out);
    }
}

impl Shape for Rule {}

impl Finding {
    /// Baseline fingerprint: stable across unrelated edits to the file.
    pub fn fingerprint(&self) -> String {
        format!("{} {} {}", self.rule.id(), self.path, self.symbol)
    }

    /// Human-readable one-liner (the non-JSON output format). Graph
    /// findings append the root-to-site call chain.
    pub fn render(&self) -> String {
        let via = if self.chain.is_empty() {
            String::new()
        } else {
            format!(
                " (via {} \u{2192} {})",
                self.chain.join(" \u{2192} "),
                self.symbol
            )
        };
        format!(
            "{}:{}: {}: {}{} [{}]",
            self.path,
            self.line,
            self.rule.id(),
            self.message,
            via,
            self.symbol
        )
    }
}

smtsim_core::record! {
    /// The complete result of one lint run.
    #[derive(Debug, Clone)]
    pub struct LintReport {
        #[label]
        /// Version of the report's format.
        "version": u64 = |_r| 1,
        #[counter("files")]
        /// Number of `.rs` files scanned.
        pub files_scanned: u64,
        #[counter("findings")]
        /// Findings, waived ones included.
        "total": u64 = |r| r.findings.len() as u64,
        #[counter("findings")]
        /// Findings suppressed by a waiver or baseline entry.
        "waived": u64 = |r| r.waived_count(),
        #[counter("findings")]
        /// Findings not suppressed.
        "unwaived": u64 = |r| r.unwaived_count(),
        #[record]
        /// Every finding, waived ones included, sorted.
        pub findings: Vec<Finding>,
    }
}

impl LintReport {
    /// Sort findings into the pinned report order.
    pub fn normalize(&mut self) {
        self.findings.sort_by(|a, b| {
            (&a.path, a.line, a.rule, &a.symbol).cmp(&(&b.path, b.line, b.rule, &b.symbol))
        });
    }

    /// Findings not suppressed by a waiver or baseline entry.
    pub fn unwaived(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.waived)
    }

    pub fn unwaived_count(&self) -> u64 {
        self.unwaived().count() as u64
    }

    pub fn waived_count(&self) -> u64 {
        self.findings.iter().filter(|f| f.waived).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_roundtrip() {
        for r in ALL_RULES {
            assert_eq!(Rule::parse(r.id()), Some(r));
        }
        assert_eq!(Rule::parse("D14"), None);
    }

    #[test]
    fn report_json_is_sorted_and_stable() {
        let f = |path: &str, line, rule| Finding {
            rule,
            path: path.into(),
            line,
            symbol: "x".into(),
            message: "m".into(),
            chain: Vec::new(),
            waived: false,
        };
        let mut r = LintReport {
            files_scanned: 2,
            findings: vec![
                f("b.rs", 3, Rule::D1),
                f("a.rs", 9, Rule::D2),
                f("a.rs", 1, Rule::D5),
            ],
        };
        r.normalize();
        let j1 = r.to_json();
        r.normalize();
        assert_eq!(j1, r.to_json());
        let pa = j1.find("a.rs").unwrap();
        let pb = j1.find("b.rs").unwrap();
        assert!(pa < pb);
        assert!(j1.starts_with("{\"version\":1,\"files_scanned\":2,"));
    }
}
