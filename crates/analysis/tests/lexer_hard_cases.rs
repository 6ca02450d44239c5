//! The lexer's hard cases: the constructs that defeat naive (regex or
//! line-based) scanning and would make the linter lie — raw strings,
//! char literals vs lifetimes, nested block comments, byte strings.
//! Each case asserts both the token shapes *and* that rule-relevant
//! identifiers inside literals/comments stay invisible.

use smtsim_analysis::lexer::{lex, TokKind};

fn kinds(src: &str) -> Vec<(TokKind, String)> {
    lex(src)
        .into_iter()
        .map(|t| (t.kind, t.text.to_string()))
        .collect()
}

fn idents(src: &str) -> Vec<String> {
    lex(src)
        .into_iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.to_string())
        .collect()
}

#[test]
fn raw_strings_swallow_quotes_and_hashes() {
    let src = r####"let s = r#"says "HashMap" here \ no escape"#; next"####;
    let toks = kinds(src);
    let raw = toks
        .iter()
        .find(|(k, _)| *k == TokKind::RawStrLit)
        .expect("raw string token");
    assert!(raw.1.contains("HashMap"));
    assert!(raw.1.ends_with("\"#"));
    assert_eq!(idents(src), vec!["let", "s", "next"]);
}

#[test]
fn raw_strings_with_more_hashes() {
    // `"#` inside must NOT terminate an `r##`-string.
    let src = r#####"r##"inner "# still inside"## after"#####;
    let toks = kinds(src);
    assert_eq!(toks[0].0, TokKind::RawStrLit);
    assert!(toks[0].1.contains("still inside"));
    assert_eq!(toks[1], (TokKind::Ident, "after".into()));
}

#[test]
fn raw_identifier_is_not_a_raw_string() {
    let toks = kinds("let r#match = 1;");
    assert!(toks.contains(&(TokKind::Ident, "r#match".into())));
}

#[test]
fn char_literal_vs_lifetime() {
    // `'a'` is a char; `'a` in `&'a str` is a lifetime.
    let src = "fn f<'a>(x: &'a str) -> char { 'a' }";
    let toks = kinds(src);
    let lifetimes: Vec<_> = toks
        .iter()
        .filter(|(k, _)| *k == TokKind::Lifetime)
        .collect();
    let chars: Vec<_> = toks
        .iter()
        .filter(|(k, _)| *k == TokKind::CharLit)
        .collect();
    assert_eq!(lifetimes.len(), 2, "{toks:?}");
    assert!(lifetimes.iter().all(|(_, t)| t == "'a"));
    assert_eq!(chars.len(), 1);
    assert_eq!(chars[0].1, "'a'");
}

#[test]
fn static_lifetime_and_escaped_chars() {
    let src = r"let x: &'static str = y; let q = '\''; let n = '\n'; let u = '\u{1F600}';";
    let toks = kinds(src);
    assert!(toks.contains(&(TokKind::Lifetime, "'static".into())));
    let chars: Vec<_> = toks
        .iter()
        .filter(|(k, _)| *k == TokKind::CharLit)
        .map(|(_, t)| t.clone())
        .collect();
    assert_eq!(chars, vec![r"'\''", r"'\n'", r"'\u{1F600}'"]);
}

#[test]
fn nested_block_comments() {
    // Identifiers inside nested comments must stay invisible; code
    // after the outermost close must reappear.
    let src = "/* outer /* HashMap inner */ still comment */ Instant";
    let toks = kinds(src);
    assert_eq!(toks.len(), 2);
    assert_eq!(toks[0].0, TokKind::BlockComment);
    assert!(toks[0].1.contains("inner"));
    assert_eq!(toks[1], (TokKind::Ident, "Instant".into()));
}

#[test]
fn unterminated_block_comment_does_not_hang_or_panic() {
    let toks = kinds("code /* never closed /* deeper ");
    assert_eq!(toks[0], (TokKind::Ident, "code".into()));
    assert_eq!(toks[1].0, TokKind::BlockComment);
}

#[test]
fn byte_strings_and_byte_literals() {
    let src = r##"let a = b"bytes with HashMap"; let b = br#"raw bytes"#; let c = b'x';"##;
    let toks = kinds(src);
    assert!(toks.contains(&(TokKind::StrLit, r#"b"bytes with HashMap""#.into())));
    assert!(toks.contains(&(TokKind::RawStrLit, r##"br#"raw bytes"#"##.into())));
    assert!(toks.contains(&(TokKind::CharLit, "b'x'".into())));
    assert!(!idents(src).contains(&"HashMap".to_string()));
}

#[test]
fn numbers_floats_ranges_and_method_calls() {
    let toks = kinds("1.5 1..2 1.max(2) 0xff 1e9 2.5e-3 7f64 3_000");
    let floats: Vec<_> = toks
        .iter()
        .filter(|(k, _)| *k == TokKind::FloatLit)
        .map(|(_, t)| t.clone())
        .collect();
    let ints: Vec<_> = toks
        .iter()
        .filter(|(k, _)| *k == TokKind::IntLit)
        .map(|(_, t)| t.clone())
        .collect();
    assert_eq!(floats, vec!["1.5", "1e9", "2.5e-3", "7f64"]);
    assert_eq!(ints, vec!["1", "2", "1", "2", "0xff", "3_000"]);
    // `1.max(2)` keeps `max` as a real identifier.
    assert!(toks.contains(&(TokKind::Ident, "max".into())));
}

#[test]
fn line_numbers_survive_multiline_tokens() {
    let src = "a\n/* two\nlines */\nr#\"raw\nstring\"#\nz";
    let toks = lex(src);
    let z = toks.iter().find(|t| t.is_ident("z")).expect("z token");
    assert_eq!(z.line, 6);
}

#[test]
fn string_escapes_do_not_leak_tokens() {
    // An escaped quote must not end the string early and fabricate an
    // `unwrap` identifier for D3 to trip on.
    let src = r#"let s = "prefix \" unwrap() suffix"; done"#;
    assert_eq!(idents(src), vec!["let", "s", "done"]);
}
