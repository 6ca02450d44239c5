//! Hand-rolled JSON emission.
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
//! Implement [`ToJson`] for a type by opening a [`JsonObject`] (or
//! writing a scalar/array directly) into the output string.

use crate::calibration::CalRow;
use crate::config::SimConfig;
use crate::result::SimResult;
use smtsim_cpu::{CoreStats, ThreadStats};
use smtsim_energy::EnergyAccount;
use smtsim_mem::{CoreMemStats, LatencyHistogram, MemStats};

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

/// Escape and quote a string into `out`.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
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
                out.push_str(itoa_buf(*self as i128).as_str());
            }
        }
    )*};
}

int_to_json!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Integer formatting without a heap allocation per call.
fn itoa_buf(v: i128) -> String {
    // Plain `to_string` is already allocation-minimal; kept behind one
    // function so a faster path could slot in without touching callers.
    v.to_string()
}

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            // Shortest-roundtrip decimal; always re-reads as this bit
            // pattern. JSON has no NaN/Infinity, those become null.
            let s = format!("{self}");
            out.push_str(&s);
            // `Display` prints integral floats without a dot ("2"); that
            // is valid JSON but would re-parse as an integer. Keep the
            // type explicit.
            if !s.contains(['.', 'e', 'E']) {
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
            JsonValue::Obj(fields) => {
                fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
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

    /// Required bool field of an object.
    pub fn req_bool(&self, key: &str) -> Result<bool, String> {
        self.get(key)
            .and_then(JsonValue::as_bool)
            .ok_or_else(|| format!("missing or non-bool field {key:?}"))
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

    /// Required `Option<u64>` field: `null` maps to `None`.
    pub fn req_opt_u64(&self, key: &str) -> Result<Option<u64>, String> {
        match self.get(key) {
            Some(JsonValue::Null) => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("non-integer field {key:?}")),
            None => Err(format!("missing field {key:?}")),
        }
    }
}

/// Parse one complete JSON document. Trailing non-whitespace is an
/// error.
pub fn parse_json(src: &str) -> Result<JsonValue, String> {
    let bytes = src.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
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
        None => Err(format!("expected {:?} at byte {}, found end", want as char, *pos)),
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", JsonValue::Null),
        Some(b) if *b == b'-' || b.is_ascii_digit() => parse_number(bytes, pos),
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

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect_byte(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect_byte(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
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

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect_byte(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
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

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect_byte(bytes, pos, b'"')?;
    let mut s = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(s);
            }
            Some(b'\\') => {
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
                        let code = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        // Our emitter never writes surrogates (it only
                        // escapes control bytes), but decode pairs
                        // anyway so hand-edited journals still parse.
                        let c = if (0xd800..0xdc00).contains(&code) {
                            if bytes.get(*pos + 1..*pos + 3) != Some(b"\\u") {
                                return Err("lone high surrogate".into());
                            }
                            let low = parse_hex4(bytes, *pos + 3)?;
                            *pos += 6;
                            if !(0xdc00..0xe000).contains(&low) {
                                return Err("invalid low surrogate".into());
                            }
                            0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00)
                        } else {
                            code
                        };
                        s.push(
                            char::from_u32(c)
                                .ok_or_else(|| format!("invalid codepoint {c:#x}"))?,
                        );
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one whole UTF-8 character (input is &str, so
                // boundaries are valid).
                let rest = &bytes[*pos..];
                let tail = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                let c = tail.chars().next().ok_or("unterminated string")?;
                s.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let chunk = bytes
        .get(at..at + 4)
        .ok_or("truncated \\u escape")?;
    let text = std::str::from_utf8(chunk).map_err(|e| e.to_string())?;
    u32::from_str_radix(text, 16).map_err(|e| e.to_string())
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
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
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
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
// Domain types. `ToJson` is local to this crate, so implementing it for
// the component crates' types here is fine (and keeps the serialisation
// policy in one place).
// ---------------------------------------------------------------------

impl ToJson for EnergyAccount {
    fn write_json(&self, out: &mut String) {
        let mut o = JsonObject::begin(out);
        o.field("committed", &self.committed())
            .field("flush_squashed", &self.flush_squashed_by_stage())
            .field("branch_squashed", &self.branch_squashed_by_stage())
            .field("wasted_energy", &self.wasted_energy())
            .field("waste_ratio", &self.waste_ratio());
        o.end();
    }
}

impl ToJson for ThreadStats {
    fn write_json(&self, out: &mut String) {
        let mut o = JsonObject::begin(out);
        o.field("committed", &self.committed)
            .field("fetched", &self.fetched)
            .field("branches", &self.branches)
            .field("mispredicts", &self.mispredicts)
            .field("loads_issued", &self.loads_issued)
            .field("flushes", &self.flushes)
            .field("energy", &self.energy);
        o.end();
    }
}

impl ToJson for CoreStats {
    fn write_json(&self, out: &mut String) {
        let mut o = JsonObject::begin(out);
        o.field("threads", &self.threads)
            .field("fetch_active_cycles", &self.fetch_active_cycles)
            .field("iq_full_stalls", &self.iq_full_stalls)
            .field("reg_full_stalls", &self.reg_full_stalls)
            .field("rob_full_stalls", &self.rob_full_stalls)
            .field("mshr_retries", &self.mshr_retries)
            .field("flushes_executed", &self.flushes_executed)
            .field("stalls_executed", &self.stalls_executed)
            .field("store_forwards", &self.store_forwards);
        o.end();
    }
}

impl ToJson for CoreMemStats {
    fn write_json(&self, out: &mut String) {
        let mut o = JsonObject::begin(out);
        o.field("ifetches", &self.ifetches)
            .field("ifetch_l1_misses", &self.ifetch_l1_misses)
            .field("loads", &self.loads)
            .field("load_l1_misses", &self.load_l1_misses)
            .field("stores", &self.stores)
            .field("store_l1_misses", &self.store_l1_misses)
            .field("l2_hits", &self.l2_hits)
            .field("l2_misses", &self.l2_misses)
            .field("itlb_misses", &self.itlb_misses)
            .field("dtlb_misses", &self.dtlb_misses)
            .field("mshr_merges", &self.mshr_merges)
            .field("mshr_full_stalls", &self.mshr_full_stalls)
            .field("writebacks", &self.writebacks)
            .field("prefetches", &self.prefetches);
        o.end();
    }
}

impl ToJson for MemStats {
    fn write_json(&self, out: &mut String) {
        let mut o = JsonObject::begin(out);
        o.field("cores", &self.cores)
            .field("l2_hit_rate", &self.l2_hit_rate());
        o.end();
    }
}

impl ToJson for LatencyHistogram {
    fn write_json(&self, out: &mut String) {
        let mut o = JsonObject::begin(out);
        o.field("bin_width", &self.bin_width())
            .field("bins", &self.bin_counts())
            .field("overflow", &self.overflow())
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("min", &self.min())
            .field("max", &self.max());
        o.end();
    }
}

impl ToJson for SimResult {
    fn write_json(&self, out: &mut String) {
        let mut o = JsonObject::begin(out);
        o.field("policy", &self.policy)
            .field("workload", &self.workload)
            .field("cycles", &self.cycles)
            .field("throughput", &self.throughput())
            .field("hmean_ipc", &self.hmean_ipc())
            .field("per_thread_ipc", &self.per_thread_ipc())
            .field("total_flushes", &self.total_flushes())
            .field("cores", &self.cores)
            .field("mem", &self.mem)
            .field("l2_hit_hist", &self.l2_hit_hist)
            .field("energy", &self.energy());
        o.end();
    }
}

impl ToJson for CalRow {
    fn write_json(&self, out: &mut String) {
        let mut o = JsonObject::begin(out);
        o.field("name", &self.name)
            .field("ipc_per_thread", &self.ipc_per_thread)
            .field("branch_accuracy", &self.branch_accuracy)
            .field("l1d_miss_rate", &self.l1d_miss_rate)
            .field("l2_hit_rate", &self.l2_hit_rate)
            .field("dtlb_miss_rate", &self.dtlb_miss_rate);
        o.end();
    }
}

impl ToJson for SimConfig {
    fn write_json(&self, out: &mut String) {
        let mut o = JsonObject::begin(out);
        o.field("policy", &self.policy.label())
            .field("benchmarks", &self.benchmarks)
            .field("cycles", &self.cycles)
            .field("seed", &self.seed)
            .field("warmup", &self.warmup)
            .field("watchdog_cycles", &self.watchdog_cycles)
            .field("skip_ahead", &self.skip_ahead)
            .field("cores", &self.cores())
            .field("contexts_per_core", &self.core.contexts)
            .field("l2_banks", &self.mem.l2_banks)
            .field("l2_clusters", &self.mem.l2_clusters)
            .field("fidelity", &self.fidelity.label());
        o.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(42u64.to_json(), "42");
        assert_eq!((-7i64).to_json(), "-7");
        assert_eq!(true.to_json(), "true");
        assert_eq!(1.5f64.to_json(), "1.5");
        assert_eq!(2.0f64.to_json(), "2.0");
        assert_eq!(f64::NAN.to_json(), "null");
        assert_eq!(f64::INFINITY.to_json(), "null");
        assert_eq!("hi".to_json(), "\"hi\"");
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
        assert_eq!(
            parse_json("\"hi\"").unwrap(),
            JsonValue::Str("hi".into())
        );
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
            "", "{", "[1,", "{\"a\"}", "{\"a\":}", "tru", "1 2", "\"unterminated",
            "{\"a\":1,}", "nul", "[1 2]", "\"\\q\"", "\"\\u12\"",
        ] {
            assert!(parse_json(bad).is_err(), "accepted malformed {bad:?}");
        }
    }

    #[test]
    fn parser_roundtrips_emitter_output() {
        // A shape mirroring real result JSON: nested objects, arrays,
        // nulls, floats, escapes.
        let src = r#"{"policy":"FLUSH-S100","cycles":150000,"ipc":[1.5,0.25],"min":null,"note":"a\nb"}"#;
        let v = parse_json(src).unwrap();
        assert_eq!(v.req_str("policy").unwrap(), "FLUSH-S100");
        assert_eq!(v.req_u64("cycles").unwrap(), 150000);
        assert_eq!(v.req_opt_u64("min").unwrap(), None);
        assert_eq!(v.req_str("note").unwrap(), "a\nb");
    }

    #[test]
    fn config_json_bytes_are_pinned() {
        // Config JSON is what `config_fingerprint` hashes, so these bytes
        // key every cache and journal entry: a change here re-simulates
        // everything ever stored.
        use crate::fidelity::Fidelity;
        use crate::workloads::Workload;
        use smtsim_policy::PolicyKind;
        let w = Workload::by_name("8W3").unwrap();
        assert_eq!(
            SimConfig::for_workload(w, PolicyKind::Mflush).to_json(),
            r#"{"policy":"MFLUSH","benchmarks":["art","swim","lucas","equake","gap","vortex","crafty","eon"],"cycles":150000,"seed":24301,"warmup":true,"watchdog_cycles":50000,"skip_ahead":true,"cores":4,"contexts_per_core":2,"l2_banks":4,"l2_clusters":1,"fidelity":"mem=detailed"}"#
        );
        let w = Workload::by_name("8W2").unwrap();
        let mut clustered =
            SimConfig::for_workload(w, PolicyKind::Mflush).with_fidelity(Fidelity::fast());
        clustered.mem.l2_clusters = 2;
        clustered.validate().unwrap();
        assert_eq!(
            clustered.to_json(),
            r#"{"policy":"MFLUSH","benchmarks":["vpr","parser","art","swim","gzip","eon","apsi","wupwise"],"cycles":150000,"seed":24301,"warmup":true,"watchdog_cycles":50000,"skip_ahead":true,"cores":4,"contexts_per_core":2,"l2_banks":4,"l2_clusters":2,"fidelity":"mem=fast"}"#
        );
    }
}
