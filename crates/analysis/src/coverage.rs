//! D4 — JSON field coverage.
//!
//! The figures pipeline only sees what reaches the JSON report; a stats
//! field that is counted but never serialized is a silent reporting
//! bug (and history shows they survive review: the field *exists*, the
//! numbers *look* complete). This pass cross-references every struct's
//! `pub` fields against the keys its `impl ToJson` emits.
//!
//! Mechanics, over the whole file set:
//!
//! 1. collect every named-field struct declaration (outside test
//!    regions) → `struct name → [(field, is_pub, file, line)]`;
//! 2. collect every `impl ToJson for <Name>` body → the set of string
//!    keys passed to `.field("…", …)` **plus** every `self.<ident>`
//!    access (a field folded into a computed value — e.g.
//!    `self.core.contexts` or a `self.l2_hit_rate()` method reading
//!    fields — still counts as reaching the report);
//! 3. for every struct that *has* an impl, flag `pub` fields that
//!    appear in neither set.
//!
//! Structs without a `ToJson` impl are not judged (not everything is
//! reportable), and a struct name declared twice in the file set is
//! skipped as ambiguous rather than guessed at.

use crate::findings::{Finding, Rule};
use crate::lexer::{Tok, TokKind};
use crate::rules::{in_regions, test_regions};
use std::collections::{BTreeMap, BTreeSet};

/// One struct's declaration site and fields.
#[derive(Debug, Clone)]
struct StructDecl {
    file: String,
    fields: Vec<FieldDecl>,
    /// Same name seen in more than one declaration.
    ambiguous: bool,
}

#[derive(Debug, Clone)]
struct FieldDecl {
    name: String,
    line: u32,
    is_pub: bool,
}

/// What one `impl ToJson for X` body mentions.
#[derive(Debug, Default, Clone)]
struct ImplInfo {
    keys: BTreeSet<String>,
    self_refs: BTreeSet<String>,
}

/// Accumulates declarations and impls across files, then reports.
#[derive(Debug, Default)]
pub struct Coverage {
    structs: BTreeMap<String, StructDecl>,
    impls: BTreeMap<String, ImplInfo>,
}

impl Coverage {
    /// Scan one file's tokens.
    pub fn scan_file(&mut self, rel: &str, toks: &[Tok<'_>]) {
        let regions = test_regions(toks);
        let sig: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        self.scan_structs(rel, toks, &regions, &sig);
        self.scan_impls(toks, &sig);
    }

    /// Emit the D4 findings after every file has been scanned.
    pub fn finish(self, out: &mut Vec<Finding>) {
        for (name, decl) in &self.structs {
            if decl.ambiguous {
                continue;
            }
            let Some(info) = self.impls.get(name) else {
                continue;
            };
            for f in &decl.fields {
                if !f.is_pub {
                    continue;
                }
                if info.keys.contains(&f.name) || info.self_refs.contains(&f.name) {
                    continue;
                }
                out.push(Finding {
                    rule: Rule::D4,
                    path: decl.file.clone(),
                    line: f.line,
                    symbol: format!("{name}.{}", f.name),
                    message: format!(
                        "pub field `{}` of `{name}` never reaches its ToJson impl: the JSON report silently drops it",
                        f.name
                    ),
                    chain: Vec::new(),
                    waived: false,
                });
            }
        }
    }

    fn scan_structs(
        &mut self,
        rel: &str,
        toks: &[Tok<'_>],
        regions: &[(usize, usize)],
        sig: &[usize],
    ) {
        let mut si = 0;
        while si < sig.len() {
            let i = sig[si];
            if !toks[i].is_ident("struct") || in_regions(regions, i) {
                si += 1;
                continue;
            }
            let Some(&name_i) = sig.get(si + 1) else {
                break;
            };
            if toks[name_i].kind != TokKind::Ident {
                si += 1;
                continue;
            }
            let name = toks[name_i].text.to_string();
            // Find the body `{`; `(` or `;` first means tuple/unit.
            let mut k = si + 2;
            let mut body = None;
            while k < sig.len() {
                let t = &toks[sig[k]];
                if t.is_punct('{') {
                    body = Some(k);
                    break;
                }
                if t.is_punct('(') || t.is_punct(';') {
                    break;
                }
                k += 1;
            }
            let Some(body_si) = body else {
                si = k + 1;
                continue;
            };
            let (fields, next_si) = parse_fields(toks, sig, body_si);
            match self.structs.get_mut(&name) {
                Some(prev) => prev.ambiguous = true,
                None => {
                    self.structs.insert(
                        name,
                        StructDecl {
                            file: rel.to_string(),
                            fields,
                            ambiguous: false,
                        },
                    );
                }
            }
            si = next_si;
        }
    }

    fn scan_impls(&mut self, toks: &[Tok<'_>], sig: &[usize]) {
        let mut si = 0;
        while si < sig.len() {
            let t = &toks[sig[si]];
            let next_is_for = sig.get(si + 1).map(|&n| toks[n].is_ident("for")) == Some(true);
            if !(t.is_ident("ToJson") && next_is_for) {
                si += 1;
                continue;
            }
            // Type name: first identifier after `for`.
            let mut k = si + 2;
            let mut name = None;
            while k < sig.len() {
                let tt = &toks[sig[k]];
                if tt.kind == TokKind::Ident {
                    name = Some(tt.text.to_string());
                    break;
                }
                if tt.is_punct('{') {
                    break;
                }
                k += 1;
            }
            // Body: first `{` after the type.
            while k < sig.len() && !toks[sig[k]].is_punct('{') {
                k += 1;
            }
            if k >= sig.len() {
                break;
            }
            let (info, next_si) = parse_impl_body(toks, sig, k);
            if let Some(name) = name {
                let entry = self.impls.entry(name).or_default();
                entry.keys.extend(info.keys);
                entry.self_refs.extend(info.self_refs);
            }
            si = next_si;
        }
    }
}

/// Parse a struct body starting at `sig[body_si]` == `{`. Returns the
/// fields and the sig-index just past the closing `}`.
fn parse_fields(toks: &[Tok<'_>], sig: &[usize], body_si: usize) -> (Vec<FieldDecl>, usize) {
    let mut fields = Vec::new();
    let mut depth = 0i32;
    // Bracket depths inside types (`Vec<(u8, u64)>`, `[u64; 32]`): a
    // field boundary is a `,` only at all-zero nesting.
    let (mut paren, mut square, mut angle) = (0i32, 0i32, 0i32);
    let mut si = body_si;
    let mut expect_field = true;
    let mut pending_pub = false;
    let mut prev_ident_like = false; // last sig token could end a type (for `<` disambiguation)
    while si < sig.len() {
        let t = &toks[sig[si]];
        if t.is_punct('{') {
            depth += 1;
            si += 1;
            prev_ident_like = false;
            continue;
        }
        if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return (fields, si + 1);
            }
            si += 1;
            prev_ident_like = false;
            continue;
        }
        if depth == 1 && paren == 0 && square == 0 && angle == 0 {
            if t.is_punct(',') {
                expect_field = true;
                pending_pub = false;
                si += 1;
                prev_ident_like = false;
                continue;
            }
            if t.is_punct('#') {
                // Field attribute: skip it wholesale.
                let after = skip_attr_sig(toks, sig, si);
                si = after;
                continue;
            }
            if expect_field && t.is_ident("pub") {
                pending_pub = true;
                si += 1;
                // Skip a `(crate)`-style restriction.
                if sig.get(si).map(|&n| toks[n].is_punct('(')) == Some(true) {
                    let mut pd = 0i32;
                    while si < sig.len() {
                        if toks[sig[si]].is_punct('(') {
                            pd += 1;
                        } else if toks[sig[si]].is_punct(')') {
                            pd -= 1;
                            if pd == 0 {
                                si += 1;
                                break;
                            }
                        }
                        si += 1;
                    }
                }
                prev_ident_like = false;
                continue;
            }
            if expect_field
                && t.kind == TokKind::Ident
                && sig.get(si + 1).map(|&n| toks[n].is_punct(':')) == Some(true)
            {
                fields.push(FieldDecl {
                    name: t.text.to_string(),
                    line: t.line,
                    is_pub: pending_pub,
                });
                expect_field = false;
                si += 2;
                prev_ident_like = false;
                continue;
            }
        }
        match () {
            _ if t.is_punct('(') => paren += 1,
            _ if t.is_punct(')') => paren -= 1,
            _ if t.is_punct('[') => square += 1,
            _ if t.is_punct(']') => square -= 1,
            _ if t.is_punct('<') && prev_ident_like => angle += 1,
            _ if t.is_punct('>') && angle > 0 => angle -= 1,
            _ => {}
        }
        prev_ident_like = t.kind == TokKind::Ident || t.is_punct('>');
        si += 1;
    }
    (fields, si)
}

/// Parse an impl body starting at `sig[body_si]` == `{`: collect string
/// keys and `self.x` accesses. Returns the info and the sig-index past
/// the closing `}`.
fn parse_impl_body(toks: &[Tok<'_>], sig: &[usize], body_si: usize) -> (ImplInfo, usize) {
    let mut info = ImplInfo::default();
    let mut depth = 0i32;
    let mut si = body_si;
    while si < sig.len() {
        let t = &toks[sig[si]];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return (info, si + 1);
            }
        } else if t.kind == TokKind::StrLit {
            let key = t.text.trim_start_matches('b').trim_matches('"');
            info.keys.insert(key.to_string());
        } else if t.is_ident("self")
            && sig.get(si + 1).map(|&n| toks[n].is_punct('.')) == Some(true)
        {
            if let Some(&n) = sig.get(si + 2) {
                if toks[n].kind == TokKind::Ident {
                    info.self_refs.insert(toks[n].text.to_string());
                }
            }
        }
        si += 1;
    }
    (info, si)
}

/// `skip_attr` over significant indices: `sig[si]` == `#`; returns the
/// sig-index past the closing `]`.
fn skip_attr_sig(toks: &[Tok<'_>], sig: &[usize], si: usize) -> usize {
    let mut depth = 0i32;
    let mut j = si + 1;
    if sig.get(j).map(|&n| toks[n].is_punct('!')) == Some(true) {
        j += 1;
    }
    while j < sig.len() {
        let t = &toks[sig[j]];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        } else if depth == 0 {
            return j; // `#` not followed by `[` — bail
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let mut cov = Coverage::default();
        for (rel, src) in files {
            cov.scan_file(rel, &lex(src));
        }
        let mut out = Vec::new();
        cov.finish(&mut out);
        out
    }

    const STATS: &str =
        "pub struct S { pub a: u64, pub b: Vec<(u8, u64)>, internal: u64, pub dropped: u64 }";

    #[test]
    fn dropped_field_is_flagged() {
        let f = run(&[
            ("crates/cpu/src/stats.rs", STATS),
            (
                "crates/core/src/json.rs",
                r#"impl ToJson for S { fn write_json(&self, out: &mut String) {
                    let mut o = JsonObject::begin(out);
                    o.field("a", &self.a).field("b", &self.b);
                    o.end();
                } }"#,
            ),
        ]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::D4);
        assert_eq!(f[0].symbol, "S.dropped");
        assert_eq!(f[0].path, "crates/cpu/src/stats.rs");
    }

    #[test]
    fn self_access_counts_as_coverage() {
        // `cores` is folded into a computed key, not emitted verbatim.
        let f = run(&[
            (
                "crates/mem/src/system.rs",
                "pub struct M { pub cores: Vec<u64> }",
            ),
            (
                "crates/core/src/json.rs",
                r#"impl ToJson for M { fn write_json(&self, out: &mut String) {
                    out.push_str(&format!("{}", self.cores.len()));
                } }"#,
            ),
        ]);
        assert!(f.is_empty());
    }

    #[test]
    fn structs_without_impls_are_not_judged() {
        assert!(run(&[("crates/cpu/src/stats.rs", STATS)]).is_empty());
    }

    #[test]
    fn ambiguous_names_are_skipped() {
        let f = run(&[
            ("crates/cpu/src/a.rs", "pub struct S { pub x: u64 }"),
            ("crates/mem/src/b.rs", "pub struct S { pub y: u64 }"),
            (
                "crates/core/src/json.rs",
                r#"impl ToJson for S { fn write_json(&self, out: &mut String) {} }"#,
            ),
        ]);
        assert!(f.is_empty());
    }

    #[test]
    fn private_fields_are_exempt() {
        let f = run(&[
            (
                "crates/energy/src/account.rs",
                "pub struct E { hidden: u64, pub shown: u64 }",
            ),
            (
                "crates/core/src/json.rs",
                r#"impl ToJson for E { fn write_json(&self, out: &mut String) {
                    JsonObject::begin(out).field("shown", &self.shown);
                } }"#,
            ),
        ]);
        assert!(f.is_empty());
    }

    #[test]
    fn blanket_impls_do_not_match_structs() {
        let f = run(&[
            ("crates/cpu/src/stats.rs", "pub struct T { pub x: u64 }"),
            (
                "crates/core/src/json.rs",
                "impl<T: ToJson> ToJson for Vec<T> { fn write_json(&self, out: &mut String) {} }",
            ),
        ]);
        // The blanket impl's first ident after `for` is `Vec`, which is
        // no declared struct; `T` the struct is untouched (no impl).
        assert!(f.is_empty());
    }
}
