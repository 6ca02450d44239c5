//! A light item/function parser over the lexer's tokens.
//!
//! The call-graph rules (D10–D12, and D3's graph scope) need to know
//! *which function* each token belongs to and *which functions that
//! function calls* — nothing more. This module extracts exactly that
//! from the [`crate::lexer`] token stream: every `fn` item (free,
//! inherent/trait method, or nested), its owner type, and the call
//! sites inside its body. It is deliberately not a full Rust parser;
//! DESIGN.md §14 documents what it resolves and what it
//! over-approximates.
//!
//! What it handles:
//!
//! * `impl Type`, `impl<T> Type<T>`, `impl Trait for Type` (the type
//!   after `for` wins), `where` clauses, lifetimes;
//! * `trait` blocks (default method bodies are owned by the trait);
//! * nested `fn` items (they become their own [`FnDef`]; their bodies
//!   are excluded from the enclosing function's call list);
//! * closures (their bodies belong to the enclosing function);
//! * macro invocation arguments (`dispatch!(…, tick(now, mem))` still
//!   yields a `tick` call site; `$x` fragment variables are skipped);
//! * turbofish (`collect::<Vec<_>>()` is a `collect` call);
//! * path *references* without a call (`map(Self::helper)`) — kept as
//!   weak edges so passing a function by name still marks it reachable.
//!
//! What it deliberately does not do: type inference. Method calls
//! resolve by name (see [`crate::callgraph`]), which over-approximates
//! — the safe direction for a reachability lint.

use crate::lexer::{Tok, TokKind};
use crate::rules::{in_regions, match_brace, skip_attr, test_regions};

/// How a call site was written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `helper(x)` — a bare name.
    Plain,
    /// `recv.m(x)`; `on_self` when the receiver is literally `self`.
    Method { on_self: bool },
    /// `Qualifier::m(x)` (or a `Qualifier::m` path reference).
    Qualified { qualifier: String },
    /// `name!(…)` / `name![…]` / `name!{…}`.
    Macro,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub kind: CallKind,
    /// The called name (`tick`, `unwrap`, `format` for `format!`).
    pub name: String,
    /// 1-based source line.
    pub line: u32,
}

/// One `fn` item and everything the graph needs to know about it.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Lint-root-relative path of the defining file.
    pub file: String,
    /// `impl`/`trait` owner type name, `None` for free functions.
    pub owner: Option<String>,
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Inside a `#[cfg(test)]` / `#[test]` region.
    pub in_test: bool,
    /// Every call site in the body, in source order.
    pub calls: Vec<CallSite>,
    /// Watch-list identifier mentions (`HashMap`, `HashSet`,
    /// `SystemTime`) that are not call sites — D12's raw material.
    pub type_refs: Vec<(String, u32)>,
}

impl FnDef {
    /// Display label: `Owner::name` or bare `name`.
    pub fn label(&self) -> String {
        match &self.owner {
            Some(o) => format!("{}::{}", o, self.name),
            None => self.name.clone(),
        }
    }
}

/// Identifiers that are expression keywords, not callables: `while (…)`
/// etc. must not become call sites.
const EXPR_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "let",
    "move", "ref", "mut", "as", "unsafe", "async", "await", "dyn", "where", "impl", "fn",
];

/// Idents D12 watches even when they are not call sites.
const TYPE_WATCHLIST: &[&str] = &["HashMap", "HashSet", "SystemTime"];

/// Parse one file into its function definitions.
pub fn parse_file(rel: &str, toks: &[Tok<'_>]) -> Vec<FnDef> {
    // Work on a comment-free token vector; all the brace/attr helpers
    // operate identically on it, and call-pattern lookbehind gets
    // simpler when comments cannot sit between tokens.
    let st: Vec<Tok<'_>> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .copied()
        .collect();
    let regions = test_regions(&st);
    let mut out = Vec::new();
    scan_items(rel, &st, 0, st.len(), None, &regions, &mut out);
    out
}

/// Scan an item-level token range (module body, impl body, trait body).
fn scan_items(
    rel: &str,
    st: &[Tok<'_>],
    lo: usize,
    hi: usize,
    owner: Option<&str>,
    regions: &[(usize, usize)],
    out: &mut Vec<FnDef>,
) {
    let mut i = lo;
    while i < hi {
        let t = &st[i];
        if t.is_punct('#') {
            i = skip_attr(st, i);
            continue;
        }
        if t.is_ident("impl") {
            if let Some((body, impl_owner)) = parse_impl_header(st, i, hi) {
                let end = match_brace(st, body);
                scan_items(rel, st, body + 1, end, impl_owner.as_deref(), regions, out);
                i = end + 1;
                continue;
            }
            i += 1;
            continue;
        }
        if t.is_ident("trait") {
            // `trait Name … {` — default method bodies belong to the
            // trait name.
            let name = st
                .get(i + 1)
                .filter(|n| n.kind == TokKind::Ident)
                .map(|n| n.text);
            let mut j = i + 1;
            while j < hi && !st[j].is_punct('{') && !st[j].is_punct(';') {
                j += 1;
            }
            if j < hi && st[j].is_punct('{') {
                let end = match_brace(st, j);
                scan_items(rel, st, j + 1, end, name, regions, out);
                i = end + 1;
                continue;
            }
            i = j + 1;
            continue;
        }
        if t.is_ident("fn") {
            i = scan_fn(rel, st, i, hi, owner, regions, out);
            continue;
        }
        i += 1;
    }
}

/// `st[i]` is `impl`. Return `(body_brace_index, owner_type)`; the
/// owner is the last path segment at angle-depth 0 — reset at `for`, so
/// `impl Trait for Type` yields `Type` — stopping at `where`.
fn parse_impl_header(st: &[Tok<'_>], i: usize, hi: usize) -> Option<(usize, Option<String>)> {
    let mut angle = 0i32;
    let mut last: Option<&str> = None;
    let mut j = i + 1;
    while j < hi {
        let t = &st[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') && !(j > 0 && st[j - 1].is_punct('-')) {
            angle = (angle - 1).max(0);
        } else if angle == 0 {
            if t.is_ident("for") {
                last = None; // the implemented-for type wins
            } else if t.is_ident("where") {
                // Generic bounds name types we must not mistake for
                // the owner; scan on for the body brace only.
                while j < hi && !st[j].is_punct('{') && !st[j].is_punct(';') {
                    j += 1;
                }
                break;
            } else if t.kind == TokKind::Ident
                && !matches!(t.text, "dyn" | "mut" | "const" | "unsafe" | "async")
            {
                last = Some(t.text);
            } else if t.is_punct('{') {
                break;
            } else if t.is_punct(';') {
                return None;
            }
        }
        if t.is_punct('{') && angle == 0 {
            break;
        }
        j += 1;
    }
    if j < hi && st[j].is_punct('{') {
        Some((j, last.map(str::to_string)))
    } else {
        None
    }
}

/// `st[i]` is `fn`. Parse the item; returns the index to resume at.
fn scan_fn(
    rel: &str,
    st: &[Tok<'_>],
    i: usize,
    hi: usize,
    owner: Option<&str>,
    regions: &[(usize, usize)],
    out: &mut Vec<FnDef>,
) -> usize {
    let Some(name_tok) = st.get(i + 1).filter(|n| n.kind == TokKind::Ident) else {
        return i + 1; // `fn(u64) -> u64` — a function-pointer type
    };
    // Scan the signature for the body `{` (or `;`: a bodyless trait
    // method / extern decl, which defines nothing callable here).
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut angle = 0i32;
    let mut j = i + 2;
    while j < hi {
        let t = &st[j];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket -= 1;
        } else if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') && !st[j - 1].is_punct('-') {
            angle = (angle - 1).max(0);
        } else if t.is_punct('{') && paren == 0 && bracket == 0 && angle == 0 {
            break;
        } else if t.is_punct(';') && paren == 0 && bracket == 0 && angle == 0 {
            return j + 1;
        }
        j += 1;
    }
    if j >= hi || !st[j].is_punct('{') {
        return j;
    }
    let end = match_brace(st, j);
    let mut def = FnDef {
        file: rel.to_string(),
        owner: owner.map(str::to_string),
        name: name_tok.text.to_string(),
        line: st[i].line,
        in_test: in_regions(regions, i),
        calls: Vec::new(),
        type_refs: Vec::new(),
    };
    scan_body(rel, st, j + 1, end, &mut def, regions, out);
    out.push(def);
    end + 1
}

/// Scan a function body: collect call sites into `def`, spin nested
/// `fn` items off into their own defs.
fn scan_body(
    rel: &str,
    st: &[Tok<'_>],
    lo: usize,
    hi: usize,
    def: &mut FnDef,
    regions: &[(usize, usize)],
    out: &mut Vec<FnDef>,
) {
    let mut i = lo;
    while i < hi {
        let t = &st[i];
        if t.is_punct('#') {
            i = skip_attr(st, i);
            continue;
        }
        if t.is_ident("fn") {
            // Nested item: its body is *not* part of `def`'s calls.
            i = scan_fn(rel, st, i, hi, None, regions, out);
            continue;
        }
        if t.kind == TokKind::Ident {
            if i > 0 && st[i - 1].is_punct('$') {
                i += 1; // `$frag` inside a macro_rules body
                continue;
            }
            if TYPE_WATCHLIST.contains(&t.text) {
                def.type_refs.push((t.text.to_string(), t.line));
            }
            // Macro invocation: `name!(…)`. The delimited arguments are
            // real expression tokens; keep scanning linearly so calls
            // inside them are still collected.
            let bang = st.get(i + 1).map(|n| n.is_punct('!')) == Some(true);
            let delim = st
                .get(i + 2)
                .map(|d| d.is_punct('(') || d.is_punct('[') || d.is_punct('{'))
                == Some(true);
            if bang && delim {
                def.calls.push(CallSite {
                    kind: CallKind::Macro,
                    name: t.text.to_string(),
                    line: t.line,
                });
                i += 2; // land on the delimiter; its contents get scanned
                continue;
            }
            if !EXPR_KEYWORDS.contains(&t.text) {
                // Turbofish: `name::<…>(…)` still calls `name`.
                let mut k = i + 1;
                if st.get(k).map(|x| x.is_punct(':')) == Some(true)
                    && st.get(k + 1).map(|x| x.is_punct(':')) == Some(true)
                    && st.get(k + 2).map(|x| x.is_punct('<')) == Some(true)
                {
                    k = skip_angles(st, k + 2);
                }
                let is_call = st.get(k).map(|x| x.is_punct('(')) == Some(true);
                let kind = call_kind(st, i);
                match (is_call, &kind) {
                    (true, _) => def.calls.push(CallSite {
                        kind,
                        name: t.text.to_string(),
                        line: t.line,
                    }),
                    // A `Path::name` mention without a call — a
                    // function passed by name. Weak edge.
                    (false, CallKind::Qualified { .. }) => def.calls.push(CallSite {
                        kind,
                        name: t.text.to_string(),
                        line: t.line,
                    }),
                    _ => {}
                }
            }
        }
        i += 1;
    }
}

/// Classify the call at ident `st[i]` from its left context.
fn call_kind(st: &[Tok<'_>], i: usize) -> CallKind {
    if i >= 1 && st[i - 1].is_punct('.') {
        let on_self = i >= 2 && st[i - 2].is_ident("self");
        return CallKind::Method { on_self };
    }
    if i >= 2 && st[i - 1].is_punct(':') && st[i - 2].is_punct(':') {
        return CallKind::Qualified {
            qualifier: qualifier_before(st, i.saturating_sub(3)),
        };
    }
    CallKind::Plain
}

/// The path segment ending at `st[q]`, walking back over one
/// `::<…>` turbofish group if present (`Vec::<u64>::new`).
fn qualifier_before(st: &[Tok<'_>], q: usize) -> String {
    let mut q = q;
    if st.get(q).map(|t| t.is_punct('>')) == Some(true) {
        // Walk back to the matching `<`, then past `::` to the ident.
        let mut depth = 0i32;
        while q > 0 {
            if st[q].is_punct('>') {
                depth += 1;
            } else if st[q].is_punct('<') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            q -= 1;
        }
        q = q.saturating_sub(1);
        while st.get(q).map(|t| t.is_punct(':')) == Some(true) {
            q = q.saturating_sub(1);
        }
    }
    match st.get(q) {
        Some(t) if t.kind == TokKind::Ident => t.text.to_string(),
        _ => String::new(),
    }
}

/// `st[open]` is `<`; return the index just past its matching `>`.
fn skip_angles(st: &[Tok<'_>], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < st.len() {
        if st[j].is_punct('<') {
            depth += 1;
        } else if st[j].is_punct('>') && !st[j - 1].is_punct('-') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    st.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<FnDef> {
        parse_file("crates/x/src/lib.rs", &lex(src))
    }

    fn find<'a>(defs: &'a [FnDef], label: &str) -> &'a FnDef {
        defs.iter().find(|d| d.label() == label).unwrap_or_else(|| {
            panic!(
                "no fn {label} in {:?}",
                defs.iter().map(|d| d.label()).collect::<Vec<_>>()
            )
        })
    }

    fn call_names(d: &FnDef) -> Vec<&str> {
        d.calls.iter().map(|c| c.name.as_str()).collect()
    }

    #[test]
    fn free_and_method_fns() {
        let defs =
            parse("fn free() { helper(); }\nimpl Core { fn tick(&mut self) { self.fetch(); } }\n");
        assert_eq!(call_names(find(&defs, "free")), ["helper"]);
        let tick = find(&defs, "Core::tick");
        assert_eq!(tick.calls[0].kind, CallKind::Method { on_self: true });
    }

    #[test]
    fn impl_trait_for_type_owner_is_the_type() {
        let defs = parse("impl ToJson for Finding { fn write_json(&self) { go(); } }\n");
        assert_eq!(
            find(&defs, "Finding::write_json").owner.as_deref(),
            Some("Finding")
        );
    }

    #[test]
    fn generics_and_where_clauses() {
        let defs = parse(
            "impl<T: Clone> Ring<T> where T: Default {\n fn push<U>(&mut self, x: U) -> Option<T> where U: Into<T> { self.grow() }\n}\n",
        );
        let p = find(&defs, "Ring::push");
        assert_eq!(call_names(p), ["grow"]);
    }

    #[test]
    fn trait_default_methods_belong_to_the_trait() {
        let defs = parse(
            "trait Policy {\n fn name(&self) -> &str;\n fn reset(&mut self) { self.clear(); }\n}\n",
        );
        assert_eq!(
            find(&defs, "Policy::reset").owner.as_deref(),
            Some("Policy")
        );
        // The bodyless `name` declares nothing callable.
        assert!(defs.iter().all(|d| d.name != "name"));
    }

    #[test]
    fn nested_fns_are_separate_defs() {
        let defs = parse("fn outer() {\n fn inner() { deep(); }\n inner();\n}\n");
        assert_eq!(call_names(find(&defs, "outer")), ["inner"]);
        assert_eq!(call_names(find(&defs, "inner")), ["deep"]);
    }

    #[test]
    fn macro_args_still_yield_calls() {
        let defs = parse("fn f() { dispatch!(&mut self.backend, tick(now, mem)); }\n");
        let f = find(&defs, "f");
        let names = call_names(f);
        assert!(names.contains(&"dispatch"));
        assert!(names.contains(&"tick"));
        assert_eq!(f.calls[0].kind, CallKind::Macro);
    }

    #[test]
    fn macro_rules_fragments_are_not_calls() {
        let defs = parse("fn f() { m!($x, $m(1)); }\n");
        let names = call_names(find(&defs, "f"));
        assert!(!names.contains(&"x"));
        assert!(!names.contains(&"m") || names.iter().filter(|n| **n == "m").count() == 1);
    }

    #[test]
    fn turbofish_and_qualified_calls() {
        let defs = parse("fn f() { let v = it.collect::<Vec<_>>(); let b = Vec::<u8>::new(); let c = Vec::new(); }\n");
        let f = find(&defs, "f");
        let collect = f.calls.iter().find(|c| c.name == "collect").unwrap();
        assert_eq!(collect.kind, CallKind::Method { on_self: false });
        let news: Vec<_> = f.calls.iter().filter(|c| c.name == "new").collect();
        assert_eq!(news.len(), 2);
        for n in news {
            assert_eq!(
                n.kind,
                CallKind::Qualified {
                    qualifier: "Vec".into()
                },
                "{n:?}"
            );
        }
    }

    #[test]
    fn path_reference_without_call_is_a_weak_edge() {
        let defs = parse("fn f(xs: &[u64]) { xs.iter().map(Self::helper); }\n");
        let f = find(&defs, "f");
        assert!(f.calls.iter().any(|c| c.name == "helper"
            && c.kind
                == CallKind::Qualified {
                    qualifier: "Self".into()
                }));
    }

    #[test]
    fn keywords_and_fn_pointer_types_are_not_calls() {
        let defs = parse(
            "fn f(g: fn(u64) -> u64) { if cond() { while check() {} } match x { _ => {} } }\n",
        );
        let names = call_names(find(&defs, "f"));
        assert_eq!(names, ["cond", "check"]);
    }

    #[test]
    fn test_regions_are_marked() {
        let defs = parse(
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n fn helper() {}\n #[test]\n fn t() {}\n}\n",
        );
        assert!(!find(&defs, "prod").in_test);
        assert!(find(&defs, "helper").in_test);
        assert!(find(&defs, "t").in_test);
    }

    #[test]
    fn same_name_methods_on_different_types_stay_distinct() {
        let defs =
            parse("impl A { fn tick(&self) { one(); } }\nimpl B { fn tick(&self) { two(); } }\n");
        assert_eq!(call_names(find(&defs, "A::tick")), ["one"]);
        assert_eq!(call_names(find(&defs, "B::tick")), ["two"]);
    }

    #[test]
    fn watchlist_type_refs_are_recorded() {
        let defs = parse("fn f() { let m: HashMap<u64, u64> = make(); }\n");
        let f = find(&defs, "f");
        assert_eq!(f.type_refs[0].0, "HashMap");
    }

    #[test]
    fn arrow_in_return_type_does_not_unbalance_angles() {
        let defs = parse("fn f<T: Iterator<Item = u64>>(it: T) -> Vec<u64> { g() }\n");
        assert_eq!(call_names(find(&defs, "f")), ["g"]);
    }
}
