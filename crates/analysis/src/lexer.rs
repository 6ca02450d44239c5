//! A small hand-rolled Rust lexer.
//!
//! The linter's rules only need a *token* view of each source file —
//! enough to tell an identifier in code from the same word inside a
//! string, comment or doc comment, and to know which line everything is
//! on. A full parser would be overkill; a regex would be wrong (raw
//! strings, nested block comments and lifetimes all defeat line-based
//! matching). This lexer handles the hard cases of real Rust:
//!
//! * line (`//`, `///`, `//!`) and block (`/* .. */`) comments, with
//!   block-comment **nesting**;
//! * string literals with escapes, raw strings `r#"..."#` with any
//!   number of `#`s, byte strings `b"..."`, raw byte strings
//!   `br#"..."#`, byte literals `b'x'`;
//! * char literals vs lifetimes (`'a'` vs `&'a str`), including escaped
//!   chars (`'\''`, `'\u{1F600}'`);
//! * raw identifiers (`r#match`) vs raw strings (`r#"..."#`);
//! * numeric literals with `_` separators, `0x`/`0o`/`0b` prefixes,
//!   float detection (`1.5`, `1e9`, `2.`) without misreading ranges
//!   (`1..2`) or method calls (`1.max(2)`);
//! * everything else as one-character punctuation tokens.
//!
//! Unterminated constructs (EOF inside a string or comment) terminate
//! the token at EOF rather than panicking: the linter must never crash
//! on the code it is judging.

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fetch`, `struct`, `r#match`).
    Ident,
    /// Lifetime (`'a`, `'static`), *without* a trailing quote.
    Lifetime,
    /// Char literal (`'a'`, `'\''`) or byte literal (`b'x'`).
    CharLit,
    /// String literal, including `b"..."` byte strings.
    StrLit,
    /// Raw string literal (`r"..."`, `r#"..."#`, `br#"..."#`).
    RawStrLit,
    /// Integer literal (`42`, `0xff`, `1_000`).
    IntLit,
    /// Floating-point literal (`1.5`, `1e9`, `2.`).
    FloatLit,
    /// `// ...` comment (includes doc comments).
    LineComment,
    /// `/* ... */` comment, nesting handled.
    BlockComment,
    /// A single punctuation character (`.`, `:`, `{`, `<`, …).
    Punct,
}

/// One token: kind, source text, and 1-based line of its first byte.
#[derive(Debug, Clone, Copy)]
pub struct Tok<'a> {
    pub kind: TokKind,
    pub text: &'a str,
    pub line: u32,
}

impl<'a> Tok<'a> {
    /// True if this token is an identifier with exactly this text.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True if this token is this punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

struct Cursor<'a> {
    src: &'a str,
    /// Byte offset of the next unread char.
    pos: usize,
    /// 1-based line of `pos`.
    line: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn peek2(&self) -> Option<char> {
        let mut it = self.src[self.pos..].chars();
        it.next();
        it.next()
    }

    fn peek3(&self) -> Option<char> {
        let mut it = self.src[self.pos..].chars();
        it.next();
        it.next();
        it.next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    /// Consume chars while `f` holds.
    fn eat_while(&mut self, f: impl Fn(char) -> bool) {
        while let Some(c) = self.peek() {
            if !f(c) {
                break;
            }
            self.bump();
        }
    }
}

/// Lex `src` into tokens (whitespace dropped, comments kept).
pub fn lex(src: &str) -> Vec<Tok<'_>> {
    let mut cur = Cursor {
        src,
        pos: 0,
        line: 1,
    };
    let mut toks = Vec::new();
    while let Some(c) = cur.peek() {
        let start = cur.pos;
        let line = cur.line;
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        let kind = match c {
            '/' if cur.peek2() == Some('/') => {
                cur.eat_while(|c| c != '\n');
                TokKind::LineComment
            }
            '/' if cur.peek2() == Some('*') => {
                lex_block_comment(&mut cur);
                TokKind::BlockComment
            }
            '"' => {
                lex_string(&mut cur);
                TokKind::StrLit
            }
            'r' if cur.peek2() == Some('"') || cur.peek2() == Some('#') => {
                // `r"..."`, `r#"..."#`, or the raw ident `r#match`.
                match try_lex_raw_string(&mut cur, 1) {
                    Some(k) => k,
                    None => {
                        lex_ident(&mut cur);
                        TokKind::Ident
                    }
                }
            }
            'b' if cur.peek2() == Some('"') => {
                cur.bump(); // b
                lex_string(&mut cur);
                TokKind::StrLit
            }
            'b' if cur.peek2() == Some('\'') => {
                cur.bump(); // b
                lex_char_literal(&mut cur);
                TokKind::CharLit
            }
            'b' if cur.peek2() == Some('r')
                && (cur.peek3() == Some('"') || cur.peek3() == Some('#')) =>
            {
                match try_lex_raw_string(&mut cur, 2) {
                    Some(k) => k,
                    None => {
                        lex_ident(&mut cur);
                        TokKind::Ident
                    }
                }
            }
            '\'' => lex_char_or_lifetime(&mut cur),
            c if is_ident_start(c) => {
                lex_ident(&mut cur);
                TokKind::Ident
            }
            c if c.is_ascii_digit() => lex_number(&mut cur),
            _ => {
                cur.bump();
                TokKind::Punct
            }
        };
        toks.push(Tok {
            kind,
            text: &src[start..cur.pos],
            line,
        });
    }
    toks
}

fn lex_ident(cur: &mut Cursor) {
    // Raw-ident prefix `r#` (only reached when not a raw string).
    if cur.peek() == Some('r') && cur.peek2() == Some('#') {
        cur.bump();
        cur.bump();
    }
    cur.eat_while(is_ident_continue);
}

fn lex_block_comment(cur: &mut Cursor) {
    cur.bump(); // /
    cur.bump(); // *
    let mut depth = 1u32;
    while depth > 0 {
        match cur.peek() {
            None => break, // unterminated: stop at EOF
            Some('/') if cur.peek2() == Some('*') => {
                cur.bump();
                cur.bump();
                depth += 1;
            }
            Some('*') if cur.peek2() == Some('/') => {
                cur.bump();
                cur.bump();
                depth -= 1;
            }
            Some(_) => {
                cur.bump();
            }
        }
    }
}

fn lex_string(cur: &mut Cursor) {
    cur.bump(); // opening "
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                cur.bump(); // whatever is escaped, including " and \
            }
            '"' => return,
            _ => {}
        }
    }
}

/// Try `r"..."` / `r#"..."#` / `br#"..."#`. `prefix_len` is 1 for `r`,
/// 2 for `br`. Returns `None` when the `#`s are not followed by a quote
/// (i.e. this is a raw identifier like `r#match`), leaving the cursor
/// untouched.
fn try_lex_raw_string(cur: &mut Cursor, prefix_len: usize) -> Option<TokKind> {
    let save_pos = cur.pos;
    let save_line = cur.line;
    for _ in 0..prefix_len {
        cur.bump();
    }
    let mut hashes = 0usize;
    while cur.peek() == Some('#') {
        cur.bump();
        hashes += 1;
    }
    if cur.peek() != Some('"') {
        cur.pos = save_pos;
        cur.line = save_line;
        return None;
    }
    cur.bump(); // "
                // Scan to `"` followed by `hashes` `#`s.
    'outer: while let Some(c) = cur.bump() {
        if c == '"' {
            let rest = &cur.src[cur.pos..];
            let mut seen = 0usize;
            for rc in rest.chars() {
                if rc == '#' && seen < hashes {
                    seen += 1;
                } else {
                    break;
                }
            }
            if seen == hashes {
                for _ in 0..hashes {
                    cur.bump();
                }
                break 'outer;
            }
        }
    }
    Some(TokKind::RawStrLit)
}

fn lex_char_literal(cur: &mut Cursor) {
    cur.bump(); // opening '
    match cur.bump() {
        Some('\\') => {
            // Escape: consume the escaped char, then anything up to the
            // closing quote (covers \u{...} and \x4A).
            cur.bump();
            while let Some(c) = cur.peek() {
                if c == '\'' {
                    cur.bump();
                    return;
                }
                if c == '\n' {
                    return; // malformed; don't run across lines
                }
                cur.bump();
            }
        }
        _ => {
            if cur.peek() == Some('\'') {
                cur.bump();
            }
        }
    }
}

/// Disambiguate `'a'` (char literal) from `'a` (lifetime).
fn lex_char_or_lifetime(cur: &mut Cursor) -> TokKind {
    match cur.peek2() {
        // `'\n'`, `'\''`, `'\u{..}'` — an escape is always a char literal.
        Some('\\') => {
            lex_char_literal(cur);
            TokKind::CharLit
        }
        Some(c) if is_ident_start(c) => {
            // Scan the identifier after the quote; a trailing `'` makes
            // it a char literal (`'a'`), otherwise it is a lifetime
            // (`'a`, `'static`).
            let mut probe = cur.pos + 1; // past the opening '
            for pc in cur.src[probe..].chars() {
                if is_ident_continue(pc) {
                    probe += pc.len_utf8();
                } else {
                    break;
                }
            }
            if cur.src[probe..].starts_with('\'') {
                cur.bump(); // '
                while cur.pos < probe {
                    cur.bump();
                }
                cur.bump(); // closing '
                TokKind::CharLit
            } else {
                cur.bump(); // '
                cur.eat_while(is_ident_continue);
                TokKind::Lifetime
            }
        }
        // `'+'`, `'9'`, `'界'` — single non-ident char.
        Some(_) => {
            lex_char_literal(cur);
            TokKind::CharLit
        }
        None => {
            cur.bump();
            TokKind::Punct
        }
    }
}

fn lex_number(cur: &mut Cursor) -> TokKind {
    let mut is_float = false;
    if cur.peek() == Some('0') && matches!(cur.peek2(), Some('x' | 'X' | 'o' | 'O' | 'b' | 'B')) {
        cur.bump();
        cur.bump();
        cur.eat_while(|c| c.is_ascii_hexdigit() || c == '_');
    } else {
        cur.eat_while(|c| c.is_ascii_digit() || c == '_');
        // A `.` makes a float only when NOT starting a range (`1..2`)
        // or a method/field access (`1.max(2)`).
        if cur.peek() == Some('.') {
            match cur.peek2() {
                Some('.') => {}
                Some(c) if is_ident_start(c) => {}
                _ => {
                    is_float = true;
                    cur.bump(); // .
                    cur.eat_while(|c| c.is_ascii_digit() || c == '_');
                }
            }
        }
        // Exponent.
        if matches!(cur.peek(), Some('e' | 'E')) {
            let (p2, p3) = (cur.peek2(), cur.peek3());
            let exp_digits = matches!(p2, Some(c) if c.is_ascii_digit())
                || (matches!(p2, Some('+' | '-')) && matches!(p3, Some(c) if c.is_ascii_digit()));
            if exp_digits {
                is_float = true;
                cur.bump(); // e
                if matches!(cur.peek(), Some('+' | '-')) {
                    cur.bump();
                }
                cur.eat_while(|c| c.is_ascii_digit() || c == '_');
            }
        }
    }
    // Type suffix (`u64`, `f64`, …) glued onto the literal.
    let suffix_start = cur.pos;
    cur.eat_while(is_ident_continue);
    let suffix = &cur.src[suffix_start..cur.pos];
    if suffix == "f32" || suffix == "f64" {
        is_float = true;
    }
    if is_float {
        TokKind::FloatLit
    } else {
        TokKind::IntLit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, &str)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_puncts() {
        assert_eq!(
            kinds("let x = y;"),
            vec![
                (TokKind::Ident, "let"),
                (TokKind::Ident, "x"),
                (TokKind::Punct, "="),
                (TokKind::Ident, "y"),
                (TokKind::Punct, ";"),
            ]
        );
    }

    #[test]
    fn line_numbers_advance() {
        let toks = lex("a\nb\n\nc");
        assert_eq!(
            toks.iter().map(|t| (t.text, t.line)).collect::<Vec<_>>(),
            vec![("a", 1), ("b", 2), ("c", 4)]
        );
    }

    #[test]
    fn strings_hide_identifiers() {
        let toks = kinds(r#"let s = "HashMap inside";"#);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::StrLit && t.contains("HashMap")));
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && *t == "HashMap"));
    }

    #[test]
    fn escaped_quote_does_not_end_string() {
        let toks = kinds(r#""a\"b" x"#);
        assert_eq!(toks[0], (TokKind::StrLit, r#""a\"b""#));
        assert_eq!(toks[1], (TokKind::Ident, "x"));
    }
}
