//! The whole-workspace call graph and its reachability rules
//! (D10–D12, plus D3's graph scope).
//!
//! Nodes are the [`FnDef`]s the parser extracted; edges are
//! name-resolved calls. Resolution is heuristic — there is no type
//! inference — and every heuristic errs toward *more* edges, because a
//! reachability lint that under-approximates is silently useless:
//!
//! * `Qualifier::name` resolves to `Qualifier`'s method of that name
//!   (`Self` maps to the calling function's owner); when the qualifier
//!   is not a known type (a module path, `std` types), it falls back
//!   to free functions of that name.
//! * `recv.name(…)` resolves to the receiver's own method when the
//!   receiver is literally `self` and the owner defines `name`;
//!   otherwise to **every** method of that name in the workspace (this
//!   is what makes `dispatch!`-style macro forwarding and trait-object
//!   calls visible, at the cost of over-approximation between
//!   same-named methods on unrelated types).
//! * `name(…)` resolves to a free function of that name — same file
//!   preferred — falling back to methods of that name (macro bodies
//!   take this path).
//!
//! Test functions (and whole `tests/`/`examples/` files) are excluded
//! from the graph: they may allocate and panic freely, and nothing in
//! them can make *simulator* code hot.
//!
//! Traversal honours **function-scope waivers**: a
//! `// lint: allow(D10) -- reason` comment directly above a `fn`
//! prunes that rule's traversal at the function — the fn and
//! everything only-reachable through it is accepted, with one stated
//! reason, instead of demanding a waiver at every leaf. DESIGN.md §14
//! documents the design; LINTS.md documents every rule's scope.

use crate::findings::{Finding, Rule};
use crate::parse::{CallKind, CallSite, FnDef};
use crate::rules::FileClass;
use crate::waiver::Waivers;
use std::collections::{BTreeMap, VecDeque};

/// Cycle-loop roots: `(owner, name)` pairs whose bodies run every
/// simulated cycle. D10's and graph-D3's entry set.
const CYCLE_ROOTS: &[(&str, &str)] = &[
    ("Simulator", "step"),
    ("SmtCore", "tick"),
    ("MemorySystem", "tick"),
];

/// Run/sweep entry points: D11's root set (methods by `(owner, name)`,
/// free functions by name).
const RUN_METHOD_ROOTS: &[(&str, &str)] = &[("Simulator", "run")];
const RUN_FREE_ROOTS: &[&str] = &["run_sweep", "run_sweep_journaled", "run_sweep_ok"];

/// D10's allocation vocabulary, by call shape.
const ALLOC_METHODS: &[&str] = &["clone", "to_string", "collect", "to_vec", "to_owned"];
const ALLOC_MACROS: &[&str] = &["vec", "format"];
const ALLOC_QUALIFIERS: &[&str] = &["Vec", "VecDeque", "String", "Box", "BTreeMap", "BTreeSet"];
const ALLOC_QUALIFIED_NAMES: &[&str] = &["new", "from", "with_capacity"];

/// D11's panic vocabulary.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Method names that are ~always std calls (`.collect()`, `.clone()`):
/// the by-name fallback must not resolve them to same-named workspace
/// methods (`Waivers::collect`!) — they are detection *leaves*, not
/// edges. Explicit `Type::collect(…)` qualification still resolves.
const STD_METHOD_STOPLIST: &[&str] = &[
    "clone",
    "collect",
    "to_string",
    "to_vec",
    "to_owned",
    "unwrap",
    "expect",
    "parse",
];

/// The workspace call graph.
pub struct Graph {
    nodes: Vec<FnDef>,
    /// `(owner, name)` → node ids (an owner can appear in several
    /// files, and `impl` blocks can repeat).
    by_owner_name: BTreeMap<(String, String), Vec<usize>>,
    /// Free functions by name.
    free_by_name: BTreeMap<String, Vec<usize>>,
    /// Free functions by `(file, name)` — same-file resolution wins.
    free_by_file_name: BTreeMap<(String, String), Vec<usize>>,
    /// All methods (owner != None) by bare name.
    methods_by_name: BTreeMap<String, Vec<usize>>,
    /// Known owner type names (for qualifier-vs-module disambiguation).
    owners: BTreeMap<String, ()>,
}

impl Graph {
    /// Build the graph from every parsed function. Test functions and
    /// functions in test/example files are dropped here, once.
    pub fn build(defs: Vec<FnDef>) -> Graph {
        let nodes: Vec<FnDef> = defs
            .into_iter()
            .filter(|d| !d.in_test && !FileClass::of(&d.file).test_file)
            .collect();
        let mut g = Graph {
            nodes,
            by_owner_name: BTreeMap::new(),
            free_by_name: BTreeMap::new(),
            free_by_file_name: BTreeMap::new(),
            methods_by_name: BTreeMap::new(),
            owners: BTreeMap::new(),
        };
        for (id, d) in g.nodes.iter().enumerate() {
            match &d.owner {
                Some(o) => {
                    g.by_owner_name
                        .entry((o.clone(), d.name.clone()))
                        .or_default()
                        .push(id);
                    g.methods_by_name
                        .entry(d.name.clone())
                        .or_default()
                        .push(id);
                    g.owners.insert(o.clone(), ());
                }
                None => {
                    g.free_by_name.entry(d.name.clone()).or_default().push(id);
                    g.free_by_file_name
                        .entry((d.file.clone(), d.name.clone()))
                        .or_default()
                        .push(id);
                }
            }
        }
        g
    }

    pub fn nodes(&self) -> &[FnDef] {
        &self.nodes
    }

    /// Resolve one call site from `caller` to target node ids.
    fn resolve(&self, caller: usize, call: &CallSite) -> Vec<usize> {
        match &call.kind {
            CallKind::Macro => Vec::new(),
            CallKind::Qualified { qualifier } => {
                let q = if qualifier == "Self" {
                    match &self.nodes[caller].owner {
                        Some(o) => o.clone(),
                        None => return Vec::new(),
                    }
                } else {
                    qualifier.clone()
                };
                if let Some(ids) = self.by_owner_name.get(&(q.clone(), call.name.clone())) {
                    return ids.clone();
                }
                if self.owners.contains_key(&q) {
                    // A known type without that method: a std-trait or
                    // derived method (`Config::clone`) — no edge.
                    return Vec::new();
                }
                // Module-qualified free function (`util::helper()`).
                self.free_by_name
                    .get(&call.name)
                    .cloned()
                    .unwrap_or_default()
            }
            CallKind::Method { on_self } => {
                if *on_self {
                    if let Some(o) = &self.nodes[caller].owner {
                        if let Some(ids) = self.by_owner_name.get(&(o.clone(), call.name.clone())) {
                            return ids.clone();
                        }
                    }
                }
                if STD_METHOD_STOPLIST.contains(&call.name.as_str()) {
                    return Vec::new();
                }
                self.methods_by_name
                    .get(&call.name)
                    .cloned()
                    .unwrap_or_default()
            }
            CallKind::Plain => {
                let file = self.nodes[caller].file.clone();
                if let Some(ids) = self.free_by_file_name.get(&(file, call.name.clone())) {
                    return ids.clone();
                }
                if let Some(ids) = self.free_by_name.get(&call.name) {
                    return ids.clone();
                }
                // Macro-forwarded method calls (`dispatch!(…, tick(…))`)
                // surface as Plain; fall back to methods by name.
                self.methods_by_name
                    .get(&call.name)
                    .cloned()
                    .unwrap_or_default()
            }
        }
    }

    /// Node ids matching the cycle-loop root set.
    pub fn cycle_roots(&self) -> Vec<usize> {
        self.method_roots(CYCLE_ROOTS)
    }

    /// Node ids matching the run/sweep root set.
    pub fn run_roots(&self) -> Vec<usize> {
        let mut ids = self.method_roots(RUN_METHOD_ROOTS);
        for name in RUN_FREE_ROOTS {
            if let Some(more) = self.free_by_name.get(*name) {
                ids.extend(more.iter().copied());
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    fn method_roots(&self, set: &[(&str, &str)]) -> Vec<usize> {
        let mut ids = Vec::new();
        for (owner, name) in set {
            if let Some(found) = self
                .by_owner_name
                .get(&(owner.to_string(), name.to_string()))
            {
                ids.extend(found.iter().copied());
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// BFS from `roots`, skipping traversal out of any node `prune`
    /// accepts (function-scope waivers). Returns the parent map:
    /// `parents[id] = Some(predecessor)` for reached non-root nodes,
    /// roots point to themselves.
    pub fn reach(&self, roots: &[usize], prune: &dyn Fn(usize) -> bool) -> Vec<Option<usize>> {
        let mut parents: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut queue = VecDeque::new();
        for &r in roots {
            if parents[r].is_none() {
                parents[r] = Some(r);
                queue.push_back(r);
            }
        }
        while let Some(id) = queue.pop_front() {
            if prune(id) {
                continue;
            }
            for call in &self.nodes[id].calls {
                for tgt in self.resolve(id, call) {
                    if parents[tgt].is_none() {
                        parents[tgt] = Some(id);
                        queue.push_back(tgt);
                    }
                }
            }
        }
        parents
    }

    /// Root-to-`id` label chain from a parent map.
    pub fn chain(&self, parents: &[Option<usize>], id: usize) -> Vec<String> {
        let mut rev = vec![id];
        let mut cur = id;
        while let Some(p) = parents[cur] {
            if p == cur {
                break;
            }
            rev.push(p);
            cur = p;
        }
        rev.iter().rev().map(|&n| self.nodes[n].label()).collect()
    }
}

/// Is this call site a D10 allocation?
fn alloc_symbol(call: &CallSite) -> Option<String> {
    match &call.kind {
        CallKind::Method { .. } if ALLOC_METHODS.contains(&call.name.as_str()) => {
            Some(call.name.clone())
        }
        CallKind::Macro if ALLOC_MACROS.contains(&call.name.as_str()) => {
            Some(format!("{}!", call.name))
        }
        CallKind::Qualified { qualifier }
            if ALLOC_QUALIFIERS.contains(&qualifier.as_str())
                && ALLOC_QUALIFIED_NAMES.contains(&call.name.as_str()) =>
        {
            Some(format!("{}::{}", qualifier, call.name))
        }
        _ => None,
    }
}

/// Is this call site a D11 panic site? Returns the symbol.
fn panic_symbol(call: &CallSite, hot_file: bool) -> Option<String> {
    match &call.kind {
        // unwrap/expect in hot files is D3's jurisdiction.
        CallKind::Method { .. } if !hot_file && PANIC_METHODS.contains(&call.name.as_str()) => {
            Some(call.name.clone())
        }
        CallKind::Macro if PANIC_MACROS.contains(&call.name.as_str()) => {
            Some(format!("{}!", call.name))
        }
        _ => None,
    }
}

/// Run the call-graph rules over the built graph, appending findings.
///
/// * graph-D3: `unwrap`/`expect` in hot-path files, reachable from a
///   cycle root. The caller removes the lexical D3 findings first when
///   this scope is active (see [`crate::engine`]).
/// * D10: allocation sites reachable from a cycle root.
/// * D11: panic sites reachable from a run root.
/// * D12: nondeterminism sources D1/D2 exempt, reachable from either.
pub fn check_graph(graph: &Graph, waivers: &BTreeMap<&str, Waivers>, out: &mut Vec<Finding>) {
    let fn_waived = |rule: Rule| {
        move |id: usize| {
            let d = &graph.nodes()[id];
            waivers
                .get(d.file.as_str())
                .map(|w| w.allows(d.line, rule))
                .unwrap_or(false)
        }
    };
    let cycle = graph.cycle_roots();
    let run = graph.run_roots();

    if !cycle.is_empty() {
        // D10 — allocation in the cycle loop.
        let prune = fn_waived(Rule::D10);
        let parents = graph.reach(&cycle, &prune);
        for (id, d) in graph.nodes().iter().enumerate() {
            if parents[id].is_none() || prune(id) {
                continue;
            }
            let chain = graph.chain(&parents, id);
            for call in &d.calls {
                if let Some(symbol) = alloc_symbol(call) {
                    out.push(Finding {
                        rule: Rule::D10,
                        path: d.file.clone(),
                        line: call.line,
                        message: format!(
                            "`{symbol}` allocates inside the cycle loop (reached from `{}`): hoist into a reusable scratch buffer",
                            chain[0]
                        ),
                        symbol,
                        chain: chain.clone(),
                        waived: false,
                    });
                }
            }
        }

        // graph-D3 — unwrap/expect in hot files, cycle-reachable.
        let prune = fn_waived(Rule::D3);
        let parents = graph.reach(&cycle, &prune);
        for (id, d) in graph.nodes().iter().enumerate() {
            if parents[id].is_none() || prune(id) || !FileClass::of(&d.file).hot_path {
                continue;
            }
            let chain = graph.chain(&parents, id);
            for call in &d.calls {
                if matches!(call.kind, CallKind::Method { .. })
                    && PANIC_METHODS.contains(&call.name.as_str())
                {
                    out.push(Finding {
                        rule: Rule::D3,
                        path: d.file.clone(),
                        line: call.line,
                        symbol: call.name.clone(),
                        message: format!(
                            "{}() reachable from the cycle loop (`{}`): document the invariant with a waiver, restructure, or use debug_assert!",
                            call.name, chain[0]
                        ),
                        chain: chain.clone(),
                        waived: false,
                    });
                }
            }
        }
    }

    if !run.is_empty() {
        // D11 — panic sites on the run path.
        let prune = fn_waived(Rule::D11);
        let parents = graph.reach(&run, &prune);
        for (id, d) in graph.nodes().iter().enumerate() {
            if parents[id].is_none() || prune(id) {
                continue;
            }
            let hot = FileClass::of(&d.file).hot_path;
            let chain = graph.chain(&parents, id);
            for call in &d.calls {
                if let Some(symbol) = panic_symbol(call, hot) {
                    out.push(Finding {
                        rule: Rule::D11,
                        path: d.file.clone(),
                        line: call.line,
                        message: format!(
                            "`{symbol}` can abort a run (reached from `{}`): return a SimError instead, or waive with the invariant stated",
                            chain[0]
                        ),
                        symbol,
                        chain: chain.clone(),
                        waived: false,
                    });
                }
            }
        }
    }

    if !cycle.is_empty() || !run.is_empty() {
        // D12 — nondeterminism outside D1/D2's file scopes.
        let mut roots = cycle.clone();
        roots.extend(run.iter().copied());
        roots.sort_unstable();
        roots.dedup();
        let prune = fn_waived(Rule::D12);
        let parents = graph.reach(&roots, &prune);
        for (id, d) in graph.nodes().iter().enumerate() {
            if parents[id].is_none() || prune(id) {
                continue;
            }
            let class = FileClass::of(&d.file);
            let chain = graph.chain(&parents, id);
            // Clock reads: D2 covers every non-bench file already.
            if class.bench {
                for call in &d.calls {
                    if let CallKind::Qualified { qualifier } = &call.kind {
                        if call.name == "now"
                            && (qualifier == "Instant" || qualifier == "SystemTime")
                        {
                            let symbol = format!("{}::now", qualifier);
                            out.push(Finding {
                                rule: Rule::D12,
                                path: d.file.clone(),
                                line: call.line,
                                message: format!(
                                    "wall-clock read reachable from sim state (`{}`): bench-only code must stay off the simulator's call paths",
                                    chain[0]
                                ),
                                symbol,
                                chain: chain.clone(),
                                waived: false,
                            });
                        }
                    }
                }
            }
            // Hash collections: D1 covers non-test simulator src/.
            if !class.simulator {
                for (name, line) in &d.type_refs {
                    if name == "HashMap" || name == "HashSet" {
                        out.push(Finding {
                            rule: Rule::D12,
                            path: d.file.clone(),
                            line: *line,
                            symbol: name.clone(),
                            message: format!(
                                "{name} reachable from sim state (`{}`): iteration order is per-process random",
                                chain[0]
                            ),
                            chain: chain.clone(),
                            waived: false,
                        });
                    }
                }
            }
        }

        // D13 — the simulator must never reach the serving layer.
        // Lexical D13 bans std::net outside crates/serve; this half
        // bans the inverted dependency: any function *defined* in
        // crates/serve that a cycle/run root can reach means sim code
        // is calling up into the server (host I/O in the replay path).
        let prune = fn_waived(Rule::D13);
        let parents = graph.reach(&roots, &prune);
        for (id, d) in graph.nodes().iter().enumerate() {
            if parents[id].is_none() || prune(id) {
                continue;
            }
            if d.file.starts_with("crates/serve/") {
                let chain = graph.chain(&parents, id);
                out.push(Finding {
                    rule: Rule::D13,
                    path: d.file.clone(),
                    line: d.line,
                    symbol: d.label(),
                    message: format!(
                        "serve-layer function reachable from sim state (`{}`): the server drives the simulator, never the reverse",
                        chain[0]
                    ),
                    chain,
                    waived: false,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse_file;

    fn graph(files: &[(&str, &str)]) -> Graph {
        let mut defs = Vec::new();
        for (rel, src) in files {
            defs.extend(parse_file(rel, &lex(src)));
        }
        Graph::build(defs)
    }

    fn findings(files: &[(&str, &str)]) -> Vec<Finding> {
        let g = graph(files);
        let mut waivers = BTreeMap::new();
        for (rel, src) in files {
            // Leak is fine in tests; keys must outlive the map.
            let toks = lex(src);
            waivers.insert(*rel, Waivers::collect(&toks));
        }
        let mut out = Vec::new();
        check_graph(&g, &waivers, &mut out);
        out
    }

    #[test]
    fn d10_follows_the_chain_from_step() {
        let f = findings(&[(
            "crates/core/src/sim.rs",
            "impl Simulator {\n pub fn step(&mut self) { self.issue_stage(); }\n fn issue_stage(&mut self) { self.grow_buf(); }\n fn grow_buf(&mut self) { let mut v: Vec<u64> = Vec::new(); v.push(1); }\n}\n",
        )]);
        let d10: Vec<_> = f.iter().filter(|f| f.rule == Rule::D10).collect();
        assert_eq!(d10.len(), 1);
        assert_eq!(d10[0].symbol, "Vec::new");
        assert_eq!(
            d10[0].chain,
            [
                "Simulator::step",
                "Simulator::issue_stage",
                "Simulator::grow_buf"
            ]
        );
    }

    #[test]
    fn unreachable_allocations_do_not_flag() {
        let f = findings(&[(
            "crates/core/src/sim.rs",
            "impl Simulator {\n pub fn step(&mut self) {}\n pub fn snapshot(&self) -> Vec<u64> { let v = Vec::new(); v }\n}\n",
        )]);
        assert!(f.iter().all(|f| f.rule != Rule::D10));
    }

    #[test]
    fn d11_reaches_through_free_functions() {
        let f = findings(&[(
            "crates/core/src/sweep.rs",
            "pub fn run_sweep(jobs: &[Job]) { worker(jobs) }\nfn worker(jobs: &[Job]) { jobs.first().unwrap(); }\n",
        )]);
        let d11: Vec<_> = f.iter().filter(|f| f.rule == Rule::D11).collect();
        assert_eq!(d11.len(), 1);
        assert_eq!(d11[0].chain, ["run_sweep", "worker"]);
    }

    #[test]
    fn d11_skips_hot_files_for_unwrap_but_not_macros() {
        let f = findings(&[
            (
                "crates/core/src/sim.rs",
                "impl Simulator { pub fn run(self) { self.helper(); } fn helper(&self) { x.unwrap(); panic!(\"boom\"); } }\n",
            ),
        ]);
        // sim.rs is a hot file: unwrap is D3's business (but `run` is
        // not a cycle root, so no D3 either); panic! still flags.
        assert!(f.iter().all(|f| f.rule != Rule::D3));
        let d11: Vec<_> = f.iter().filter(|f| f.rule == Rule::D11).collect();
        assert_eq!(d11.len(), 1);
        assert_eq!(d11[0].symbol, "panic!");
    }

    #[test]
    fn graph_d3_flags_cycle_reachable_unwrap_with_chain() {
        let f = findings(&[(
            "crates/cpu/src/core.rs",
            "impl SmtCore {\n pub fn tick(&mut self) { self.commit(); }\n fn commit(&mut self) { self.rob.head().unwrap(); }\n pub fn new() { cfg.validate().expect(\"bad\"); }\n}\n",
        )]);
        let d3: Vec<_> = f.iter().filter(|f| f.rule == Rule::D3).collect();
        assert_eq!(d3.len(), 1, "{f:?}");
        assert_eq!(d3[0].symbol, "unwrap");
        assert_eq!(d3[0].chain, ["SmtCore::tick", "SmtCore::commit"]);
    }

    #[test]
    fn d12_flags_reachable_bench_clock_and_foreign_hashmap() {
        let f = findings(&[
            (
                "crates/core/src/sim.rs",
                "impl Simulator { pub fn step(&mut self) { profile_phase(); tally(); } }\n",
            ),
            (
                "crates/bench/src/bin/benchmark/traced.rs",
                "pub fn profile_phase() { let t = Instant::now(); }\npub fn tally() { let m: HashMap<u64,u64> = make(); }\n",
            ),
        ]);
        let d12: Vec<_> = f.iter().filter(|f| f.rule == Rule::D12).collect();
        assert_eq!(d12.len(), 2, "{f:?}");
        assert!(d12.iter().any(|f| f.symbol == "Instant::now"));
        assert!(d12.iter().any(|f| f.symbol == "HashMap"));
    }

    #[test]
    fn fn_scope_waiver_prunes_the_subtree() {
        let f = findings(&[(
            "crates/core/src/sim.rs",
            "impl Simulator {\n pub fn step(&mut self) { self.diagnose(); }\n // lint: allow(D10) -- cold abort diagnostics, runs at most once\n fn diagnose(&self) { self.deep(); }\n fn deep(&self) { let s = x.to_string(); }\n}\n",
        )]);
        assert!(f.iter().all(|f| f.rule != Rule::D10), "{f:?}");
    }

    #[test]
    fn test_functions_are_outside_the_graph() {
        let f = findings(&[(
            "crates/core/src/sim.rs",
            "impl Simulator { pub fn step(&mut self) {} }\n#[cfg(test)]\nmod tests {\n fn helper() { let v: Vec<u64> = Vec::new(); }\n}\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn dispatch_macro_plain_calls_resolve_to_methods() {
        let f = findings(&[
            (
                "crates/mem/src/system.rs",
                "impl MemorySystem { pub fn tick(&mut self, now: u64) { dispatch!(self, tick_inner(now)) } }\n",
            ),
            (
                "crates/mem/src/bus.rs",
                "impl Bus { fn tick_inner(&mut self, now: u64) { self.buf.clone(); } }\n",
            ),
        ]);
        let d10: Vec<_> = f.iter().filter(|f| f.rule == Rule::D10).collect();
        assert!(
            d10.iter()
                .any(|f| f.path.ends_with("bus.rs") && f.symbol == "clone"),
            "{f:?}"
        );
    }
}
