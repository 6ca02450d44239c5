//! Hand-rolled JSON: the writer, the parser, and the record tables
//! that declare each reported struct once.
//!
//! The workspace carries no external crates, so result/report/figure
//! data is serialised by this small writer instead of `serde`. The
//! format choices are pinned down because same-seed runs must produce
//! **byte-identical** JSON (the determinism bar in DESIGN.md §9):
//!
//! * object fields are emitted in declaration order — no maps, no
//!   reordering;
//! * floats use Rust's shortest-roundtrip `Display` (stable across
//!   platforms and compiler versions); non-finite floats become `null`;
//! * strings escape `"`, `\`, and all control characters below `0x20`
//!   (`\n`/`\r`/`\t`/`\b`/`\f` short forms, `\u00XX` otherwise);
//! * no insignificant whitespace.
//!
//! A struct whose fields are reported is declared through
//! [`record!`](crate::record): one table row per field generates the
//! struct, its [`ToJson`] impl, its [`FromJson`] decoder and its
//! [`FieldSpec`] registration, so a field cannot reach one of them
//! and miss another. Anything else implements [`ToJson`] by opening a
//! [`JsonObject`] (or writing a scalar/array directly).
//!
//! The module lives in this leaf crate so that the simulator crates
//! can declare their own stats structs as record tables;
//! `smtsim_core::json` re-exports it.

use std::fmt::Write as _;

/// Types that can render themselves as a JSON value.
pub trait ToJson {
    /// Append this value's JSON rendering to `out`.
    fn write_json(&self, out: &mut String);

    /// Convenience: render into a fresh string.
    fn to_json(&self) -> String {
        let mut s = String::new();
        self.write_json(&mut s);
        s
    }
}

/// Escape and quote a string into `out`. Runs of bytes that need no
/// escape are copied with one `push_str` each, so a string without
/// specials costs one copy.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        // Every escaped byte is ASCII, so `run..i` falls on char
        // boundaries.
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0c => out.push_str("\\f"),
            // Writing to a String cannot fail.
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Incremental `{...}` builder that handles commas and key quoting.
pub struct JsonObject<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> JsonObject<'a> {
    /// Open an object into `out`.
    pub fn begin(out: &'a mut String) -> Self {
        out.push('{');
        JsonObject { out, first: true }
    }

    /// Emit one `"name":value` field.
    pub fn field(&mut self, name: &str, value: &dyn ToJson) -> &mut Self {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        write_escaped(self.out, name);
        self.out.push(':');
        value.write_json(self.out);
        self
    }

    /// Close the object.
    pub fn end(self) {
        self.out.push('}');
    }
}

macro_rules! int_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                // `Display` formats into `out` directly; writing to a
                // String cannot fail.
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

int_to_json!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            // Shortest-roundtrip decimal; always re-reads as this bit
            // pattern. JSON has no NaN/Infinity, those become null.
            let start = out.len();
            let _ = write!(out, "{self}");
            // `Display` prints integral floats without a dot ("2"); that
            // is valid JSON but would re-parse as an integer. Keep the
            // type explicit.
            if !out[start..].contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        } else {
            out.push_str("null");
        }
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        write_escaped(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        write_escaped(out, self);
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (*self).write_json(out);
    }
}

// ---------------------------------------------------------------------
// Parsing — the inverse direction, used by the sweep journal to replay
// recorded results. The journal replays byte-identically because every
// *raw* field in our JSON is an integer, bool or string; floats only
// appear as derived values that the emitters recompute from raw fields.
// ---------------------------------------------------------------------

/// A parsed JSON value. Objects keep insertion order in a `Vec` (no
/// maps — rule D1), which also preserves duplicate-key detection as a
/// non-goal: last write wins is never needed because we only parse our
/// own emitter's output.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Non-negative integer without a fractional part or exponent.
    UInt(u64),
    /// Negative integer without a fractional part or exponent.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// String (escapes decoded).
    Str(String),
    /// Array.
    Arr(Vec<JsonValue>),
    /// Object, fields in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Look up a field of an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a float, widening integers (all JSON numbers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(v) => Some(*v as f64),
            JsonValue::Int(v) => Some(*v as f64),
            JsonValue::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Required `u64` field of an object.
    pub fn req_u64(&self, key: &str) -> Result<u64, String> {
        self.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("missing or non-integer field {key:?}"))
    }

    /// Required string field of an object.
    pub fn req_str(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("missing or non-string field {key:?}"))
    }

    /// Required array field of an object.
    pub fn req_arr(&self, key: &str) -> Result<&[JsonValue], String> {
        self.get(key)
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| format!("missing or non-array field {key:?}"))
    }
}

/// Parse one complete JSON document. Trailing non-whitespace is an
/// error.
///
/// Linear in the document's length: a string is copied run by run, and
/// numbers are read as slices of `src`.
pub fn parse_json(src: &str) -> Result<JsonValue, String> {
    let mut pos = 0;
    let value = parse_value(src, &mut pos)?;
    skip_ws(src.as_bytes(), &mut pos);
    if pos != src.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn expect_byte(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    match bytes.get(*pos) {
        Some(&b) if b == want => {
            *pos += 1;
            Ok(())
        }
        Some(&b) => Err(format!(
            "expected {:?} at byte {}, found {:?}",
            want as char, *pos, b as char
        )),
        None => Err(format!(
            "expected {:?} at byte {}, found end",
            want as char, *pos
        )),
    }
}

fn parse_value(src: &str, pos: &mut usize) -> Result<JsonValue, String> {
    let bytes = src.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(src, pos),
        Some(b'[') => parse_array(src, pos),
        Some(b'"') => Ok(JsonValue::Str(parse_string(src, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", JsonValue::Null),
        Some(b) if *b == b'-' || b.is_ascii_digit() => parse_number(src, pos),
        Some(b) => Err(format!("unexpected {:?} at byte {}", *b as char, *pos)),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_object(src: &str, pos: &mut usize) -> Result<JsonValue, String> {
    let bytes = src.as_bytes();
    expect_byte(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(src, pos)?;
        skip_ws(bytes, pos);
        expect_byte(bytes, pos, b':')?;
        let value = parse_value(src, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(src: &str, pos: &mut usize) -> Result<JsonValue, String> {
    let bytes = src.as_bytes();
    expect_byte(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(src, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

/// Parse the JSON string that starts at `src[*pos]`, leaving `pos`
/// just past its closing quote. The journal reads a line's key with it
/// without parsing the rest of the line.
pub fn parse_string(src: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = src.as_bytes();
    expect_byte(bytes, pos, b'"')?;
    let mut s = String::new();
    loop {
        // Copy the run up to the next quote or backslash in one step.
        // It starts after an ASCII byte and ends on one, so it is a
        // whole number of UTF-8 characters of `src`.
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or("unterminated string")?;
        s.push_str(&src[*pos..*pos + run]);
        *pos += run;
        if bytes[*pos] == b'"' {
            *pos += 1;
            return Ok(s);
        }
        *pos += 1;
        match bytes.get(*pos) {
            Some(b'"') => s.push('"'),
            Some(b'\\') => s.push('\\'),
            Some(b'/') => s.push('/'),
            Some(b'n') => s.push('\n'),
            Some(b'r') => s.push('\r'),
            Some(b't') => s.push('\t'),
            Some(b'b') => s.push('\u{8}'),
            Some(b'f') => s.push('\u{c}'),
            Some(b'u') => {
                let code = parse_hex4(src, *pos + 1)?;
                *pos += 4;
                // Our emitter never writes surrogates (it only escapes
                // control bytes), but decode pairs anyway so
                // hand-edited journals still parse.
                let c = if (0xd800..0xdc00).contains(&code) {
                    if bytes.get(*pos + 1..*pos + 3) != Some(b"\\u") {
                        return Err("lone high surrogate".into());
                    }
                    let low = parse_hex4(src, *pos + 3)?;
                    *pos += 6;
                    if !(0xdc00..0xe000).contains(&low) {
                        return Err("invalid low surrogate".into());
                    }
                    0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00)
                } else {
                    code
                };
                s.push(char::from_u32(c).ok_or_else(|| format!("invalid codepoint {c:#x}"))?);
            }
            _ => return Err(format!("bad escape at byte {}", *pos)),
        }
        *pos += 1;
    }
}

fn parse_hex4(src: &str, at: usize) -> Result<u32, String> {
    // `get` also refuses a range that would split a character.
    let text = src.get(at..at + 4).ok_or("truncated \\u escape")?;
    // `from_str_radix` alone would also take a sign ("+12f").
    if !text.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("bad \\u escape {text:?}"));
    }
    u32::from_str_radix(text, 16).map_err(|e| e.to_string())
}

fn parse_number(src: &str, pos: &mut usize) -> Result<JsonValue, String> {
    let bytes = src.as_bytes();
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while bytes
        .get(*pos)
        .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    // Every byte taken is ASCII, so this slice needs no re-validation.
    let text = &src[start..*pos];
    let integral = !text.contains(['.', 'e', 'E']);
    if integral {
        if let Some(digits) = text.strip_prefix('-') {
            if let Ok(v) = digits.parse::<u64>() {
                if v == 0 {
                    // "-0" — keep the integer lattice simple.
                    return Ok(JsonValue::UInt(0));
                }
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(JsonValue::Int(v));
            }
        } else if let Ok(v) = text.parse::<u64>() {
            return Ok(JsonValue::UInt(v));
        }
    }
    text.parse::<f64>()
        .map(JsonValue::Float)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

// ---------------------------------------------------------------------
// Decoding into typed values, and the record tables.
// ---------------------------------------------------------------------

/// Types that can be read back from their own JSON rendering.
///
/// The integer impls refuse a value their type cannot hold instead of
/// truncating it, so a damaged document decodes as an error, never as
/// a different number.
pub trait FromJson: Sized {
    /// Decode `v`, or say why it is not a `Self`.
    fn from_json(v: &JsonValue) -> Result<Self, String>;
}

impl FromJson for u64 {
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        v.as_u64()
            .ok_or_else(|| "not a non-negative integer".to_string())
    }
}

impl FromJson for u32 {
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        let n = u64::from_json(v)?;
        u32::try_from(n).map_err(|_| format!("{n} is out of range for u32"))
    }
}

impl FromJson for bool {
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        v.as_bool().ok_or_else(|| "not a bool".to_string())
    }
}

impl FromJson for String {
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        v.as_str()
            .map(String::from)
            .ok_or_else(|| "not a string".to_string())
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        match v {
            JsonValue::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        v.as_arr()
            .ok_or_else(|| "not an array".to_string())?
            .iter()
            .enumerate()
            .map(|(i, x)| T::from_json(x).map_err(|e| format!("[{i}]: {e}")))
            .collect()
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        Vec::<T>::from_json(v)?
            .try_into()
            .map_err(|items: Vec<T>| format!("{} entries, not {N}", items.len()))
    }
}

/// Decode field `key` of the object `v`. A missing field, or one that
/// does not decode, is an error naming the key.
pub fn field<T: FromJson>(v: &JsonValue, key: &str) -> Result<T, String> {
    let value = v.get(key).ok_or_else(|| format!("missing field {key:?}"))?;
    T::from_json(value).map_err(|e| format!("{key}: {e}"))
}

/// What a reported row holds: a leaf (number, string, flag, or an
/// array of those) or a record whose own rows follow. A record table
/// implements it with its [`FieldSpec`] list; containers forward their
/// element's.
pub trait Shape {
    /// The rows of each record the value holds; empty for a leaf.
    const ROWS: &'static [FieldSpec] = &[];
    /// Whether the value renders as a JSON array.
    const LIST: bool = false;
}

impl Shape for u64 {}
impl Shape for u32 {}
impl Shape for f64 {}
impl Shape for bool {}
impl Shape for String {}
impl Shape for &str {}

impl<T: Shape> Shape for Option<T> {
    const ROWS: &'static [FieldSpec] = T::ROWS;
    const LIST: bool = T::LIST;
}

impl<T: Shape> Shape for Vec<T> {
    const ROWS: &'static [FieldSpec] = T::ROWS;
    const LIST: bool = true;
}

impl<T: Shape, const N: usize> Shape for [T; N] {
    const ROWS: &'static [FieldSpec] = T::ROWS;
    const LIST: bool = true;
}

/// What kind of number (or thing) a reported row is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// A cumulative tally over the run.
    Counter,
    /// A value at one instant, a setting, or a value computed from
    /// tallies.
    Gauge,
    /// Text or a flag that names or classifies something.
    Label,
    /// A record, or a list of records, whose rows are listed below it.
    Record,
}

impl FieldKind {
    /// Stable lowercase tag (`"counter"`, `"gauge"`, …).
    pub fn as_str(&self) -> &'static str {
        match self {
            FieldKind::Counter => "counter",
            FieldKind::Gauge => "gauge",
            FieldKind::Label => "label",
            FieldKind::Record => "record",
        }
    }
}

/// The registration of one reported row of a record table, generated
/// by [`record!`](crate::record) as an entry of the table's `FIELDS`
/// list. METRICS.md's "Result fields" section is rendered from these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldSpec {
    /// The JSON key: the field's name, or a derived row's key.
    pub key: &'static str,
    /// Counter, gauge, label or record.
    pub kind: FieldKind,
    /// `true` for a derived row: computed from the stored fields when
    /// rendered, never stored, recomputed after decoding.
    pub derived: bool,
    /// Unit of the value (`instr`, `cycles`, …), or `""`.
    pub unit: &'static str,
    /// Paper figure the row feeds (`"Fig. 4"`), or `""`.
    pub figure: &'static str,
    /// The row's doc comment (for a stored row, also its rustdoc).
    pub doc: &'static str,
    /// The rows of the record(s) this row holds; empty for a leaf.
    pub rows: &'static [FieldSpec],
    /// Whether the value renders as a JSON array.
    pub list: bool,
}

/// Declare a record table: a struct whose every field is reported.
///
/// Each row declares one thing once, and the table generates the
/// struct, its [`ToJson`](crate::json::ToJson) impl (keys in row
/// order), a `FIELDS` list of [`FieldSpec`](crate::json::FieldSpec)s
/// and a [`Shape`](crate::json::Shape) impl. A row starts with its
/// kind — `#[counter(unit, figure)]`, `#[gauge(unit, figure)]`,
/// `#[label]` or `#[record]`, unit and figure optional — then its doc
/// comment, then one of:
///
/// * `pub name: Type,` — a stored field, reported under its own name;
/// * `"key": Type = |s| expr,` — a derived row, reported where it is
///   declared as `expr` computed from `s: &Self`, never stored;
/// * `.. = |s, o| expr,` — derived keys spliced into the object
///   (`o` is the open [`JsonObject`](crate::json::JsonObject)),
///   unregistered;
/// * `#[via] pub name: Type,` — a stored field reported only through
///   the derived rows (in place of a kind).
///
/// A table followed by `decode;` (or `decode with path;`, where
/// `path(&value)` returns `Result<(), String>` and is checked on every
/// decoded value) also gets a [`FromJson`](crate::json::FromJson) impl
/// and an inherent `from_json`: stored rows are read back, derived
/// rows recomputed, so a decoded value re-renders to its own bytes.
///
/// ```
/// use smtsim_obs::json::{parse_json, ToJson};
///
/// smtsim_obs::record! {
///     #[derive(Debug, Clone, PartialEq)]
///     pub struct Tally {
///         #[counter("events")]
///         /// Events seen.
///         pub seen: u64,
///         #[gauge("fraction")]
///         /// Share of events kept.
///         "kept_share": f64 = |t| t.kept as f64 / t.seen as f64,
///         #[counter("events")]
///         /// Events kept.
///         pub kept: u64,
///     }
///     decode;
/// }
///
/// let t = Tally { seen: 4, kept: 1 };
/// assert_eq!(t.to_json(), r#"{"seen":4,"kept_share":0.25,"kept":1}"#);
/// assert_eq!(Tally::from_json(&parse_json(&t.to_json()).unwrap()), Ok(t));
/// assert_eq!(Tally::FIELDS[1].key, "kept_share");
/// assert!(Tally::FIELDS[1].derived);
/// ```
#[macro_export]
macro_rules! record {
    // Row kinds and their unit/figure arguments.
    (@kind counter) => { $crate::json::FieldKind::Counter };
    (@kind gauge) => { $crate::json::FieldKind::Gauge };
    (@kind label) => { $crate::json::FieldKind::Label };
    (@kind record) => { $crate::json::FieldKind::Record };
    (@unit) => { "" };
    (@unit $unit:literal $(, $figure:literal)?) => { $unit };
    (@figure $($unit:literal)?) => { "" };
    (@figure $unit:literal, $figure:literal) => { $figure };

    // One row's part of `write_json`.
    (@emit $this:ident $o:ident (stored $name:ident)) => {
        $o.field(stringify!($name), &$this.$name);
    };
    (@emit $this:ident $o:ident (derived $key:literal $ty:ty; $s:ident $e:expr)) => {{
        let $s = $this;
        let value: $ty = $e;
        $o.field($key, &value);
    }};
    (@emit $this:ident $o:ident (splice $s:ident $so:ident $e:expr)) => {{
        let $s = $this;
        let $so = &mut $o;
        $e;
    }};

    // The decoder, for a table followed by `decode;`.
    (@decode $name:ident [$($field:ident)*]) => {};
    (@decode $name:ident [$($field:ident)*] decode $(with $check:path)?;) => {
        impl $crate::json::FromJson for $name {
            fn from_json(v: &$crate::json::JsonValue) -> Result<Self, String> {
                let decoded = $name {
                    $($field: $crate::json::field(v, stringify!($field))?,)*
                };
                $($check(&decoded)?;)?
                Ok(decoded)
            }
        }

        impl $name {
            /// Decode a value from its own JSON rendering: the stored
            /// rows are read back (the derived ones are recomputed
            /// when it is rendered again), so a value decoded from a
            /// rendering re-renders to the same bytes.
            pub fn from_json(v: &$crate::json::JsonValue) -> Result<Self, String> {
                <Self as $crate::json::FromJson>::from_json(v)
            }
        }
    };

    // Every row read: generate the struct and its impls.
    (@rows [$($head:tt)*] [$name:ident $($tail:tt)*]
        [$({$($decl:tt)*})*] [$($field:ident)*] [$($emit:tt)*] [$($spec:tt)*]
    ) => {
        $($head)* $name {
            $($($decl)*,)*
        }

        impl $crate::json::ToJson for $name {
            fn write_json(&self, out: &mut String) {
                let this = self;
                let mut o = $crate::json::JsonObject::begin(out);
                $($crate::record!(@emit this o $emit);)*
                o.end();
            }
        }

        impl $name {
            /// The reported rows, in JSON key order.
            pub const FIELDS: &'static [$crate::json::FieldSpec] = &[$($spec)*];
        }

        impl $crate::json::Shape for $name {
            const ROWS: &'static [$crate::json::FieldSpec] = Self::FIELDS;
        }

        $crate::record!(@decode $name [$($field)*] $($tail)*);
    };
    // A stored field reported only through the derived rows.
    (@rows $head:tt $tail:tt [$($decl:tt)*] $fields:tt $emit:tt $spec:tt
        #[via]
        $(#[doc = $doc:literal])*
        $vis:vis $name:ident : $ty:ty
        $(, $($rest:tt)*)?
    ) => {
        $crate::record!(@rows $head $tail
            [$($decl)* {$(#[doc = $doc])* $vis $name: $ty}] $fields $emit $spec
            $($($rest)*)?
        );
    };
    // A stored field.
    (@rows $head:tt $tail:tt [$($decl:tt)*] [$($field:ident)*] [$($emit:tt)*] [$($spec:tt)*]
        #[$kind:ident $(($($meta:tt)*))?]
        $(#[doc = $doc:literal])*
        $vis:vis $name:ident : $ty:ty
        $(, $($rest:tt)*)?
    ) => {
        $crate::record!(@rows $head $tail
            [$($decl)* {$(#[doc = $doc])* $vis $name: $ty}]
            [$($field)* $name]
            [$($emit)* (stored $name)]
            [$($spec)* $crate::json::FieldSpec {
                key: stringify!($name),
                kind: $crate::record!(@kind $kind),
                derived: false,
                unit: $crate::record!(@unit $($($meta)*)?),
                figure: $crate::record!(@figure $($($meta)*)?),
                doc: concat!($($doc),*),
                rows: <$ty as $crate::json::Shape>::ROWS,
                list: <$ty as $crate::json::Shape>::LIST,
            },]
            $($($rest)*)?
        );
    };
    // A derived row.
    (@rows $head:tt $tail:tt $decls:tt $fields:tt [$($emit:tt)*] [$($spec:tt)*]
        #[$kind:ident $(($($meta:tt)*))?]
        $(#[doc = $doc:literal])*
        $key:literal : $ty:ty = |$s:ident| $e:expr
        $(, $($rest:tt)*)?
    ) => {
        $crate::record!(@rows $head $tail $decls $fields
            [$($emit)* (derived $key $ty; $s $e)]
            [$($spec)* $crate::json::FieldSpec {
                key: $key,
                kind: $crate::record!(@kind $kind),
                derived: true,
                unit: $crate::record!(@unit $($($meta)*)?),
                figure: $crate::record!(@figure $($($meta)*)?),
                doc: concat!($($doc),*),
                rows: <$ty as $crate::json::Shape>::ROWS,
                list: <$ty as $crate::json::Shape>::LIST,
            },]
            $($($rest)*)?
        );
    };
    // Derived keys spliced into the object.
    (@rows $head:tt $tail:tt $decls:tt $fields:tt [$($emit:tt)*] $spec:tt
        $(#[doc = $doc:literal])*
        .. = |$s:ident, $so:ident| $e:expr
        $(, $($rest:tt)*)?
    ) => {
        $crate::record!(@rows $head $tail $decls $fields
            [$($emit)* (splice $s $so $e)] $spec
            $($($rest)*)?
        );
    };

    // Entry: a table.
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident { $($rows:tt)* }
        $($tail:tt)*
    ) => {
        $crate::record!(@rows [$(#[$attr])* $vis struct] [$name $($tail)*] [] [] [] []
            $($rows)*
        );
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        // The extremes were captured from the emitter as it stood
        // before numbers were formatted straight into the output.
        assert_eq!(42u64.to_json(), "42");
        assert_eq!((-7i64).to_json(), "-7");
        assert_eq!((-1i64).to_json(), "-1");
        assert_eq!(0u64.to_json(), "0");
        assert_eq!(u64::MAX.to_json(), "18446744073709551615");
        assert_eq!(i64::MIN.to_json(), "-9223372036854775808");
        assert_eq!(usize::MAX.to_json(), usize::MAX.to_string());
        assert_eq!(true.to_json(), "true");
        assert_eq!(1.5f64.to_json(), "1.5");
        assert_eq!(2.0f64.to_json(), "2.0");
        assert_eq!(0.0f64.to_json(), "0.0");
        assert_eq!((-0.0f64).to_json(), "-0.0");
        assert_eq!(0.1f64.to_json(), "0.1");
        assert_eq!(1e-7f64.to_json(), "0.0000001");
        assert_eq!(1e300f64.to_json(), format!("1{}.0", "0".repeat(300)));
        assert_eq!(f64::NAN.to_json(), "null");
        assert_eq!(f64::INFINITY.to_json(), "null");
        assert_eq!("hi".to_json(), "\"hi\"");
        // Appending keeps what the buffer already holds.
        let mut out = String::from("[");
        2.0f64.write_json(&mut out);
        out.push(',');
        (-1i64).write_json(&mut out);
        assert_eq!(out, "[2.0,-1");
    }

    #[test]
    fn strings_escape_specials() {
        assert_eq!(
            "a\"b\\c\nd\te\u{1}".to_json(),
            "\"a\\\"b\\\\c\\nd\\te\\u0001\""
        );
    }

    #[test]
    fn collections_render() {
        assert_eq!(vec![1u64, 2, 3].to_json(), "[1,2,3]");
        assert_eq!([1.5f64, 0.25].to_json(), "[1.5,0.25]");
        assert_eq!(Vec::<u64>::new().to_json(), "[]");
        assert_eq!(Some(5u32).to_json(), "5");
        assert_eq!(None::<u32>.to_json(), "null");
    }

    #[test]
    fn objects_comma_correctly() {
        let mut s = String::new();
        let mut o = JsonObject::begin(&mut s);
        o.field("a", &1u64).field("b", &"x");
        o.end();
        assert_eq!(s, "{\"a\":1,\"b\":\"x\"}");

        let mut s = String::new();
        JsonObject::begin(&mut s).end();
        assert_eq!(s, "{}");
    }

    #[test]
    fn float_roundtrip_is_shortest_form() {
        // The throughput of a 100-commit / 300-cycle run.
        let v = 100.0f64 / 300.0;
        let j = v.to_json();
        assert_eq!(j.parse::<f64>().unwrap(), v);
        assert_eq!(j, "0.3333333333333333");
    }

    #[test]
    fn parser_handles_scalars() {
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse_json("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse_json("42").unwrap(), JsonValue::UInt(42));
        assert_eq!(parse_json("-7").unwrap(), JsonValue::Int(-7));
        assert_eq!(parse_json("1.5").unwrap(), JsonValue::Float(1.5));
        assert_eq!(parse_json("2.0").unwrap(), JsonValue::Float(2.0));
        assert_eq!(parse_json("\"hi\"").unwrap(), JsonValue::Str("hi".into()));
    }

    #[test]
    fn parser_decodes_escapes() {
        let v = parse_json(r#""a\"b\\c\nd\te\u0001""#).unwrap();
        assert_eq!(v, JsonValue::Str("a\"b\\c\nd\te\u{1}".into()));
    }

    #[test]
    fn parser_handles_structures() {
        let v = parse_json(r#"{"a":1,"b":[true,null],"c":{"d":"x"}}"#).unwrap();
        assert_eq!(v.req_u64("a").unwrap(), 1);
        assert_eq!(
            v.req_arr("b").unwrap(),
            &[JsonValue::Bool(true), JsonValue::Null]
        );
        assert_eq!(v.get("c").unwrap().req_str("d").unwrap(), "x");
        assert!(v.get("missing").is_none());
        assert_eq!(parse_json("[]").unwrap(), JsonValue::Arr(vec![]));
        assert_eq!(parse_json("{}").unwrap(), JsonValue::Obj(vec![]));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"unterminated",
            "{\"a\":1,}",
            "nul",
            "[1 2]",
            "\"\\q\"",
            "\"\\u12\"",
            // Broken strings and escapes, also around multi-byte text.
            r#""\u12"#,
            r#""\u"#,
            "\"\\u00é\"",
            "\"\\u😀\"",
            r#""\ud83d""#,
            r#""\ud83d\u0041""#,
            r#""\ud83d\ude""#,
            r#""\ude00""#,
            r#""\u+12f""#,
            "\"\\",
            "\"é\\",
            "\"漢",
            &format!("{{\"a\":[{}\"tail", "1,".repeat(50_000)),
        ] {
            assert!(parse_json(bad).is_err(), "accepted malformed {bad:?}");
        }
    }

    #[test]
    fn parser_roundtrips_emitter_output() {
        // A shape mirroring real result JSON: nested objects, arrays,
        // nulls, floats, escapes.
        let src =
            r#"{"policy":"FLUSH-S100","cycles":150000,"ipc":[1.5,0.25],"min":null,"note":"a\nb"}"#;
        let v = parse_json(src).unwrap();
        assert_eq!(v.req_str("policy").unwrap(), "FLUSH-S100");
        assert_eq!(v.req_u64("cycles").unwrap(), 150000);
        assert_eq!(field::<Option<u64>>(&v, "min").unwrap(), None);
        assert_eq!(v.req_str("note").unwrap(), "a\nb");
    }

    #[test]
    fn strings_roundtrip_through_emitter_and_parser() {
        let controls: String = (0u8..0x20).map(char::from).collect();
        for text in [
            "",
            "plain",
            "é",
            "漢",
            "😀",
            "naïve 漢字 😀 mixed",
            "\"\\\n\r\t\u{8}\u{c}",
            "é\"漢\\😀\n",
            controls.as_str(),
            "\u{7f}\u{1}x\u{1f}😀\u{0}",
        ] {
            let json = text.to_json();
            assert_eq!(
                parse_json(&json).unwrap(),
                JsonValue::Str(text.into()),
                "{json}"
            );
        }
        assert_eq!("é漢😀".to_json(), "\"é漢😀\"");
        assert_eq!(
            "\u{0}\u{1f}".to_json(),
            "\"\\u0000\\u001f\"",
            "bare control bytes use the \\u form"
        );
        // Surrogate pairs and other `\u` escapes decode.
        assert_eq!(
            parse_json(r#""\ud83d\ude00 \u00e9\u6f22""#).unwrap(),
            JsonValue::Str("😀 é漢".into())
        );
        // Raw control bytes inside a string are taken as they are.
        assert_eq!(
            parse_json("\"a\u{1}\tb\"").unwrap(),
            JsonValue::Str("a\u{1}\tb".into())
        );
    }

    #[test]
    fn a_one_mebibyte_string_parses() {
        let text: String = "ab漢\"😀\n".repeat(1 << 17);
        assert!(text.len() >= 1 << 20);
        let mut doc = String::from("{\"s\":");
        text.write_json(&mut doc);
        doc.push('}');
        assert_eq!(parse_json(&doc).unwrap().req_str("s").unwrap(), text);
    }
}
